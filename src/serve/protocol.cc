#include "serve/protocol.h"

#include <cinttypes>
#include <cstdio>

#include "serve/json.h"

namespace cherisem::serve {

namespace {

void
appendKv(std::string &out, const char *key, const std::string &value,
         bool *first)
{
    if (!*first)
        out.push_back(',');
    *first = false;
    appendJsonString(out, key);
    out.push_back(':');
    appendJsonString(out, value);
}

void
appendKvU64(std::string &out, const char *key, uint64_t value,
            bool *first)
{
    if (!*first)
        out.push_back(',');
    *first = false;
    appendJsonString(out, key);
    char buf[32];
    std::snprintf(buf, sizeof buf, ":%" PRIu64, value);
    out += buf;
}

void
appendKvBool(std::string &out, const char *key, bool value,
             bool *first)
{
    if (!*first)
        out.push_back(',');
    *first = false;
    appendJsonString(out, key);
    out += value ? ":true" : ":false";
}

} // namespace

bool
parseRequest(const std::string &line, Request *out, std::string *err)
{
    Json j;
    if (!parseJson(line, &j, err))
        return false;
    if (!j.isObject()) {
        if (err)
            *err = "request is not a JSON object";
        return false;
    }
    *out = Request{};
    std::string op = "run";
    if (const Json *v = j.get("op"))
        op = v->asString("run");
    if (op == "run") {
        out->op = Request::Op::Run;
    } else if (op == "stats") {
        out->op = Request::Op::Stats;
    } else if (op == "shutdown") {
        out->op = Request::Op::Shutdown;
    } else {
        if (err)
            *err = "unknown op '" + op + "'";
        return false;
    }
    if (const Json *v = j.get("id"))
        out->id = v->asString();
    if (const Json *v = j.get("source"))
        out->source = v->asString();
    if (const Json *v = j.get("profile"))
        out->profile = v->asString();
    if (const Json *v = j.get("max_steps"))
        out->maxSteps = v->asU64();
    if (const Json *v = j.get("deadline_ms"))
        out->deadlineMs = v->asU64();
    if (const Json *v = j.get("trace_digest"))
        out->traceDigest = v->asBool();
    if (const Json *v = j.get("output"))
        out->wantOutput = v->asBool(true);
    if (out->op == Request::Op::Run && out->source.empty()) {
        if (err)
            *err = "run request without source";
        return false;
    }
    return true;
}

std::string
renderRequest(const Request &req)
{
    std::string out = "{";
    bool first = true;
    const char *op = req.op == Request::Op::Run ? "run"
        : req.op == Request::Op::Stats          ? "stats"
                                                : "shutdown";
    appendKv(out, "op", op, &first);
    if (!req.id.empty())
        appendKv(out, "id", req.id, &first);
    if (req.op == Request::Op::Run) {
        appendKv(out, "source", req.source, &first);
        if (!req.profile.empty())
            appendKv(out, "profile", req.profile, &first);
        if (req.maxSteps)
            appendKvU64(out, "max_steps", req.maxSteps, &first);
        if (req.deadlineMs)
            appendKvU64(out, "deadline_ms", req.deadlineMs, &first);
        if (req.traceDigest)
            appendKvBool(out, "trace_digest", true, &first);
        if (!req.wantOutput)
            appendKvBool(out, "output", false, &first);
    }
    out.push_back('}');
    return out;
}

std::string
Response::render() const
{
    std::string out = "{";
    bool first = true;
    appendKv(out, "id", id, &first);
    appendKv(out, "verdict", verdict, &first);
    if (verdict == "stats") {
        out += ",\"stats\":";
        out += statsJson.empty() ? "{}" : statsJson;
        out.push_back('}');
        return out;
    }
    if (verdict == "exit") {
        char buf[48];
        std::snprintf(buf, sizeof buf, ",\"exit_code\":%d", exitCode);
        out += buf;
    }
    if (!ubName.empty())
        appendKv(out, "ub", ubName, &first);
    if (!message.empty())
        appendKv(out, "message", message, &first);
    if (verdict == "exit" || verdict == "ub" ||
        verdict == "assert-fail" || verdict == "error" ||
        verdict == "resource-exhausted") {
        appendKvBool(out, "cached", cached, &first);
        if (warm)
            appendKvBool(out, "warm", true, &first);
        appendKvU64(out, "steps", steps, &first);
        appendKvU64(out, "loads", loads, &first);
        appendKvU64(out, "stores", stores, &first);
        out += ",\"phase_ns\":{";
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "\"parse\":%" PRIu64 ",\"sema\":%" PRIu64
                      ",\"optimize\":%" PRIu64 ",\"eval\":%" PRIu64 "}",
                      phases.parseNs, phases.semaNs,
                      phases.optimizeNs, phases.evalNs);
        out += buf;
        appendKvU64(out, "queue_ns", queueNs, &first);
        appendKvU64(out, "total_ns", totalNs, &first);
        if (!traceDigest.empty())
            appendKv(out, "trace_digest", traceDigest, &first);
        if (hasOutput)
            appendKv(out, "output", output, &first);
    }
    out.push_back('}');
    return out;
}

bool
parseResponse(const std::string &line, Response *out,
              std::string *err)
{
    Json j;
    if (!parseJson(line, &j, err))
        return false;
    if (!j.isObject()) {
        if (err)
            *err = "response is not a JSON object";
        return false;
    }
    *out = Response{};
    if (const Json *v = j.get("id"))
        out->id = v->asString();
    if (const Json *v = j.get("verdict"))
        out->verdict = v->asString();
    if (out->verdict.empty()) {
        if (err)
            *err = "response without verdict";
        return false;
    }
    if (const Json *v = j.get("exit_code"))
        out->exitCode = static_cast<int>(v->number);
    if (const Json *v = j.get("ub"))
        out->ubName = v->asString();
    if (const Json *v = j.get("message"))
        out->message = v->asString();
    if (const Json *v = j.get("output")) {
        out->output = v->asString();
        out->hasOutput = true;
    }
    if (const Json *v = j.get("cached"))
        out->cached = v->asBool();
    if (const Json *v = j.get("warm"))
        out->warm = v->asBool();
    if (const Json *v = j.get("steps"))
        out->steps = v->asU64();
    if (const Json *v = j.get("loads"))
        out->loads = v->asU64();
    if (const Json *v = j.get("stores"))
        out->stores = v->asU64();
    if (const Json *v = j.get("queue_ns"))
        out->queueNs = v->asU64();
    if (const Json *v = j.get("total_ns"))
        out->totalNs = v->asU64();
    if (const Json *v = j.get("trace_digest"))
        out->traceDigest = v->asString();
    if (const Json *v = j.get("stats"))
        out->statsJson = renderJson(*v);
    if (const Json *v = j.get("phase_ns")) {
        if (const Json *f = v->get("parse"))
            out->phases.parseNs = f->asU64();
        if (const Json *f = v->get("sema"))
            out->phases.semaNs = f->asU64();
        if (const Json *f = v->get("optimize"))
            out->phases.optimizeNs = f->asU64();
        if (const Json *f = v->get("eval"))
            out->phases.evalNs = f->asU64();
    }
    return true;
}

} // namespace cherisem::serve
