#include "serve/server.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <istream>
#include <ostream>
#include <thread>

#include "mem/ub.h"

namespace cherisem::serve {

namespace {

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

Response
badRequest(std::string id, const std::string &why)
{
    Response r;
    r.id = std::move(id);
    r.verdict = "bad-request";
    r.message = why;
    return r;
}

} // namespace

Server::Server(const ServerOptions &opts)
    : opts_(opts), cache_(opts.cacheCapacity),
      warm_(opts.warmPrelude.empty() ? 0 : opts.warmCapacity),
      pool_(opts.threads ? opts.threads
                         : std::max(1u,
                                    std::thread::hardware_concurrency()),
            opts.queueCapacity)
{
}

Server::~Server()
{
    cancelAll();
    pool_.shutdown();
}

void
Server::cancelAll()
{
    cancel_.store(true, std::memory_order_relaxed);
}

Metrics::Snapshot
Server::stats() const
{
    return metrics_.snapshot(cache_.stats(), pool_.queueDepth());
}

Response
Server::execute(const Request &req, uint64_t queueNs)
{
    uint64_t t0 = nowNs();
    Response resp;
    resp.id = req.id;
    resp.queueNs = queueNs;

    if (req.op == Request::Op::Stats) {
        resp.verdict = "stats";
        resp.statsJson = stats().renderJson();
        return resp;
    }
    if (req.op == Request::Op::Shutdown) {
        resp.verdict = "shutdown";
        return resp;
    }

    const driver::Profile *profile = req.profile.empty()
        ? &driver::referenceProfile()
        : driver::findProfile(req.profile);
    if (!profile) {
        metrics_.onBadRequest();
        return badRequest(req.id,
                          "unknown profile '" + req.profile + "'");
    }

    RunSpec spec;
    spec.maxSteps = req.maxSteps;
    spec.deadlineMs = req.deadlineMs;
    spec.traceDigest = req.traceDigest;

    ExecLimits limits;
    limits.maxSteps = opts_.maxSteps;
    limits.deadlineMs = opts_.deadlineMs;
    limits.cancel = &cancel_;

    ExecResult r = warmEnabled()
        ? runRequestWarm(opts_.warmPrelude, req.source, *profile,
                         spec, limits, &cache_, &warm_)
        : runRequest(req.source, *profile, spec, limits, &cache_);

    if (r.warmHit)
        metrics_.onWarmHit();
    else if (r.warmBuild)
        metrics_.onWarmBuild();
    resp.cached = r.cacheHit;
    resp.warm = r.warmHit;
    resp.phases = r.phases;
    if (r.frontendError) {
        resp.verdict = "frontend-error";
        resp.message = r.frontendMessage;
    } else {
        using Kind = corelang::Outcome::Kind;
        switch (r.outcome.kind) {
          case Kind::Exit:
            resp.verdict = "exit";
            resp.exitCode = r.outcome.exitCode;
            break;
          case Kind::Undefined:
            resp.verdict = "ub";
            resp.ubName = mem::ubName(r.outcome.failure.ub);
            break;
          case Kind::AssertFail:
            resp.verdict = "assert-fail";
            resp.message = r.outcome.message;
            break;
          case Kind::ResourceExhausted:
            resp.verdict = "resource-exhausted";
            resp.message = r.outcome.failure.message;
            break;
          case Kind::Error:
            resp.verdict = "error";
            resp.message = r.outcome.message;
            break;
        }
        resp.steps = r.outcome.steps;
        resp.loads = r.outcome.memStats.loads;
        resp.stores = r.outcome.memStats.stores;
        if (req.wantOutput) {
            resp.output = r.outcome.output;
            resp.hasOutput = true;
        }
        if (r.hasDigest) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "fnv1a:%016" PRIx64,
                          r.digest);
            resp.traceDigest = buf;
        }
    }
    resp.totalNs = queueNs + (nowNs() - t0);
    metrics_.onCompleted(resp.verdict, resp.totalNs);
    return resp;
}

Response
Server::runNow(const Request &req)
{
    metrics_.onAccepted();
    return execute(req, 0);
}

bool
Server::submit(Request req, std::function<void(Response)> done)
{
    metrics_.onAccepted();
    uint64_t enqueuedAt = nowNs();
    return pool_.submit([this, req = std::move(req),
                         done = std::move(done), enqueuedAt] {
        uint64_t queueNs = nowNs() - enqueuedAt;
        Response resp = execute(req, queueNs);
        if (done)
            done(std::move(resp));
    });
}

void
Server::drain()
{
    pool_.drain();
}

int
Server::runBatch(std::istream &in, std::ostream &out)
{
    // Responses come back out of order; the batch contract is
    // input-order output, so park them in submission slots.
    auto slots = std::make_shared<std::vector<Response>>();
    auto mu = std::make_shared<std::mutex>();
    int malformed = 0;

    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        size_t index;
        {
            std::lock_guard<std::mutex> lock(*mu);
            index = slots->size();
            slots->emplace_back();
        }
        Request req;
        std::string err;
        if (!parseRequest(line, &req, &err)) {
            ++malformed;
            metrics_.onBadRequest();
            std::lock_guard<std::mutex> lock(*mu);
            (*slots)[index] = badRequest(
                "line-" + std::to_string(index + 1), err);
            continue;
        }
        if (req.op == Request::Op::Shutdown)
            break;
        submit(std::move(req), [slots, mu, index](Response r) {
            std::lock_guard<std::mutex> lock(*mu);
            (*slots)[index] = std::move(r);
        });
    }
    drain();
    for (const Response &r : *slots)
        out << r.render() << "\n";
    return malformed;
}

} // namespace cherisem::serve
