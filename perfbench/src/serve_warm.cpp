/**
 * @file
 * serve_warm: a serve::Server with 2 workers and a warm prelude that
 * fills a table of ints, driven by one generator thread in a closed
 * loop with 2 requests in flight (callers that wait for replies, like
 * campaign clients and --batch).  Each item goes through
 * serve::parseRequest -> Server::submit -> Response::render.
 *
 * Every cycle of 10 requests has the same composition and order:
 * 8 hot-set repeats (front-cache hit + warm restore), 1 fresh program
 * with a new variant constant (cache miss, full front half, warm
 * build, LRU insert + evict) and 1 trace_digest repeat.  The caches
 * hold 32 entries: the 16 hot keys plus the 16 newest fresh ones, so
 * every fresh insert evicts exactly one older fresh entry in every
 * pass, warm-up included (set-up primes the caches to that state).
 *
 * The reference exit code of every request is computed natively from
 * the prelude and query formulas below.
 */
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <random>
#include <stdexcept>

#include "harness.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace perfbench {

using namespace cherisem;

namespace {

constexpr int kTable = 2048;
constexpr int kQueryLoop = 256;
constexpr int kHotPrograms = 8;
constexpr int kProfiles = 2;
constexpr int kHotKeys = kHotPrograms * kProfiles;
constexpr int kCycles = 24;
constexpr int kCycleLen = 10;
constexpr size_t kCacheEntries = 32;
constexpr unsigned kWorkers = 2;
constexpr int kInFlight = 2;
const char *const kProfileNames[kProfiles] = {"cerberus",
                                              "clang-morello-O0"};

int
tableAt(int i)
{
    return (i * 73 + 19) % 1000;
}

std::string
prelude()
{
    return "int table[" + std::to_string(kTable) +
        "];\n"
        "void __prelude(void) {\n"
        "    for (int i = 0; i < " +
        std::to_string(kTable) +
        "; i++)\n"
        "        table[i] = (i * 73 + 19) % 1000;\n"
        "}\n";
}

/** One query program: fold kQueryLoop table entries into @p a. */
struct Query
{
    int a = 0, p = 0, q = 0;

    std::string
    source() const
    {
        return "int main(void) {\n"
               "    int s = " +
            std::to_string(a) +
            ";\n"
            "    for (int i = 0; i < " +
            std::to_string(kQueryLoop) +
            "; i++)\n"
            "        s = (s + table[(i * " +
            std::to_string(p) + " + " + std::to_string(q) + ") % " +
            std::to_string(kTable) +
            "]) % 65521;\n"
            "    return s % 251;\n"
            "}\n";
    }

    int
    expected() const
    {
        int s = a;
        for (int i = 0; i < kQueryLoop; i++)
            s = (s + tableAt((i * p + q) % kTable)) % 65521;
        return s % 251;
    }
};

/** One request of a pass, generated before the pass clock starts. */
struct Input
{
    std::string line;
    ServeItem::Class cls = ServeItem::Hit;
    int expect = 0;
    size_t sourceBytes = 0;
};

/** What the callback saw for one item. */
struct Slot
{
    serve::Response resp;
    uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0;
    bool parsed = false, accepted = false;
    size_t rendered = 0;
};

class ServeWarm : public Workload
{
  public:
    explicit ServeWarm(uint64_t seed)
    {
        std::mt19937_64 rng(seed);
        std::uniform_int_distribution<int> small(1, 9999);
        std::uniform_int_distribution<int> stride(1, kTable - 1);
        for (int h = 0; h < kHotPrograms; ++h)
            hot_[h] = Query{small(rng), stride(rng), small(rng)};
        fresh_ = Query{0, stride(rng), small(rng)};
        // Fresh constants: seven digits, unique within a process.
        freshBase_ = 1'000'100 + static_cast<int>(rng() % 4'000'000);
        opts_.threads = kWorkers;
        opts_.queueCapacity = 8;
        opts_.cacheCapacity = kCacheEntries;
        opts_.warmCapacity = kCacheEntries;
        opts_.warmPrelude = prelude();
        for (int p = 0; p < kProfiles; ++p)
            if (!driver::findProfile(kProfileNames[p]))
                throw std::runtime_error(std::string("no profile ") +
                                         kProfileNames[p]);
    }

    size_t items() const override { return kCycles * kCycleLen; }
    unsigned inFlight() const override { return kInFlight; }

    void
    setUp() override
    {
        server_ = std::make_unique<serve::Server>(opts_);
        // Prime both caches to their steady state: 16 older fresh
        // entries, then the hot keys in the order a pass first uses
        // them, so the LRU victim is always the oldest fresh entry.
        for (int j = 0; j < static_cast<int>(kCacheEntries) - kHotKeys;
             ++j) {
            Query f = fresh_;
            f.a = freshBase_ - 1 - j;
            prime(f, j % kProfiles);
        }
        for (int h = 0; h < kHotKeys; ++h)
            prime(hot_[h % kHotPrograms], h / kHotPrograms);
    }

    void
    runPass(uint64_t pass, bool traced, PassRecord *rec) override
    {
        // Benchmark-side input generation, before the pass clock.
        const size_t n = items();
        std::vector<Input> in(n);
        for (int c = 0; c < kCycles; ++c) {
            for (int s = 0; s < kCycleLen; ++s) {
                size_t i = static_cast<size_t>(c * kCycleLen + s);
                serve::Request req;
                req.id = std::to_string(i);
                req.wantOutput = false;
                Query query;
                if (s == 4) {
                    in[i].cls = ServeItem::Miss;
                    query = fresh_;
                    query.a = freshBase_ +
                        static_cast<int>(pass) * kCycles + c;
                    req.profile = kProfileNames[c % kProfiles];
                } else {
                    int key = s == 9 ? c % kHotKeys
                                     : (c * 8 + (s < 4 ? s : s - 1)) %
                            kHotKeys;
                    in[i].cls = s == 9 ? ServeItem::Digest : ServeItem::Hit;
                    query = hot_[key % kHotPrograms];
                    req.profile = kProfileNames[key / kHotPrograms];
                    req.traceDigest = s == 9;
                }
                req.source = query.source();
                in[i].expect = query.expected();
                in[i].sourceBytes = req.source.size();
                in[i].line = serve::renderRequest(req);
            }
        }

        std::vector<Slot> slots(n);
        std::mutex mu;
        std::condition_variable cv;
        int inFlight = 0;
        for (size_t i = 0; i < n; ++i) {
            {
                std::unique_lock<std::mutex> lock(mu);
                cv.wait(lock, [&] { return inFlight < kInFlight; });
                ++inFlight;
            }
            Slot &slot = slots[i];
            slot.t0 = nowNs();
            serve::Request req;
            std::string err;
            slot.parsed = serve::parseRequest(in[i].line, &req, &err);
            slot.t1 = nowNs();
            auto done = [&slot, &mu, &cv, &inFlight](serve::Response r) {
                uint64_t t2 = nowNs();
                std::string line = r.render();
                uint64_t t3 = nowNs();
                // Notify under the lock: the pass may return (and
                // destroy cv) as soon as the lock is released.
                std::lock_guard<std::mutex> lock(mu);
                slot.resp = std::move(r);
                slot.t2 = t2;
                slot.t3 = t3;
                slot.rendered = line.size();
                --inFlight;
                cv.notify_all();
            };
            slot.accepted = slot.parsed &&
                server_->submit(std::move(req), std::move(done));
            if (!slot.accepted) {
                std::lock_guard<std::mutex> lock(mu);
                slot.t2 = slot.t3 = nowNs();
                --inFlight;
            }
        }
        {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return inFlight == 0; });
        }
        record(slots, in, traced, rec);
    }

  private:
    void
    prime(const Query &q, int profile)
    {
        serve::Request req;
        req.source = q.source();
        req.profile = kProfileNames[profile];
        req.wantOutput = false;
        serve::Response r = server_->runNow(req);
        if (r.verdict != "exit" || r.exitCode != q.expected())
            throw std::runtime_error("priming request failed: " +
                                     r.render());
    }

    void
    record(const std::vector<Slot> &slots, const std::vector<Input> &in,
           bool traced, PassRecord *rec)
    {
        const size_t n = slots.size();
        rec->itemNs.resize(n);
        rec->serve.resize(n);
        rec->counts.reserve(n * 8);
        const uint64_t preludeBytes = opts_.warmPrelude.size() + 1;
        for (size_t i = 0; i < n; ++i) {
            const Slot &s = slots[i];
            const serve::Response &r = s.resp;
            rec->itemNs[i] = s.t3 - s.t0;
            ServeItem &si = rec->serve[i];
            const ServeItem::Class cls = in[i].cls;
            si.cls = cls;
            si.cached = r.cached;
            si.warm = r.warm;
            si.queueNs = r.queueNs;
            si.execNs = r.totalNs - r.queueNs;
            bool hit = cls != ServeItem::Miss;
            bool digest = cls == ServeItem::Digest;
            bool ok = s.accepted && r.verdict == "exit" &&
                r.exitCode == in[i].expect && r.cached == hit &&
                r.warm == hit && s.rendered > 0 &&
                r.traceDigest.empty() == !digest;
            if (!ok) {
                ++rec->failed;
                if (reported_ < 5) {
                    ++reported_;
                    std::fprintf(stderr,
                                 "MISMATCH serve item %zu: expected exit "
                                 "%d (%s), got %s\n",
                                 i, in[i].expect,
                                 hit ? "cached+warm" : "miss",
                                 r.render().c_str());
                }
            }
            uint64_t digestValue =
                digest && r.traceDigest.size() > 6
                ? std::strtoull(r.traceDigest.c_str() + 6, nullptr, 16)
                : 0;
            const uint64_t counts[] = {
                static_cast<uint64_t>(cls),
                s.accepted,
                // A fresh item's exit code moves with its constant;
                // whether it matched the reference does not.
                r.exitCode == in[i].expect,
                r.cached,
                r.warm,
                r.steps,
                r.loads + r.stores,
                digestValue,
            };
            rec->counts.insert(rec->counts.end(), std::begin(counts),
                               std::end(counts));
            if (!traced)
                continue;
            uint32_t item = static_cast<uint32_t>(i);
            rec->spans.push_back({SpanItem, SpanCount, item, s.t0, s.t3});
            rec->spans.push_back({SpanParseRequest, SpanItem, item, s.t0,
                                  s.t1});
            rec->spans.push_back({SpanSubmit, SpanItem, item, s.t1, s.t2});
            rec->spans.push_back({SpanRender, SpanItem, item, s.t2, s.t3});
            si.parseRequestNs = s.t1 - s.t0;
            si.renderNs = s.t3 - s.t2;
            LayerTotals &l = rec->layer;
            if (!r.cached) {
                l.parseNs += r.phases.parseNs;
                l.analyzeNs += r.phases.semaNs;
                l.optimizeNs += r.phases.optimizeNs;
                l.sourceBytes += preludeBytes + in[i].sourceBytes;
                l.programs += 1;
            }
            l.evalNs += r.phases.evalNs;
            l.steps += r.steps;
            l.accesses += r.loads + r.stores;
        }
    }

    Query hot_[kHotPrograms];
    Query fresh_;
    int freshBase_ = 0;
    serve::ServerOptions opts_;
    std::unique_ptr<serve::Server> server_;
    unsigned reported_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeServeWarm(uint64_t seed)
{
    return std::make_unique<ServeWarm>(seed);
}

} // namespace perfbench
