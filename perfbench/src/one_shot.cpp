#include "one_shot.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "driver/interpreter.h"
#include "driver/suite.h"
#include "frontend/parser.h"
#include "sema/sema.h"

namespace perfbench {

using namespace cherisem;

std::string
readFile(const std::string &path)
{
    std::ifstream f(path);
    if (!f)
        throw std::runtime_error("cannot read " + path);
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

namespace {

/** What one run produced, whichever entry point ran it. */
struct Result
{
    bool frontendError = false;
    std::string frontendMessage;
    corelang::Outcome outcome;
    corelang::OptimizeStats opt;
};

uint64_t
rewrites(const corelang::OptimizeStats &s)
{
    return s.foldedArith + s.elidedWrites + s.loopsRewritten;
}

uint64_t
intrinsicCalls(const corelang::Outcome &o)
{
    uint64_t n = 0;
    for (const auto &[name, calls] : o.intrinsicCalls)
        n += calls;
    return n;
}

bool
outputMatches(const std::string &got, const std::vector<std::string> &want)
{
    std::istringstream in(got);
    std::string line;
    size_t i = 0;
    while (std::getline(in, line)) {
        if (i >= want.size() || line != want[i])
            return false;
        ++i;
    }
    return i == want.size();
}

class OneShot : public Workload
{
  public:
    OneShot(std::vector<OneShotItem> items, OneShotEntry entry)
        : items_(std::move(items)), entry_(entry)
    {
    }

    size_t items() const override { return items_.size(); }

    void
    setUp() override
    {
        // The profile table is built on first use; everything else a
        // one-shot run needs is created per call.
        (void)driver::allProfiles();
    }

    void
    runPass(uint64_t, bool traced, PassRecord *rec) override
    {
        rec->itemNs.resize(items_.size());
        rec->counts.reserve(items_.size() * kCountsPerItem);
        if (traced)
            rec->spans.reserve(items_.size() * 5);
        for (size_t i = 0; i < items_.size(); ++i) {
            const OneShotItem &it = items_[i];
            Result r;
            uint64_t t0 = nowNs();
            if (traced)
                runTraced(it, static_cast<uint32_t>(i), &r, rec);
            else if (entry_ == OneShotEntry::RunSource)
                runSource(it, &r);
            else
                runLayers(it, &r, nullptr, 0, nullptr);
            uint64_t t1 = nowNs();
            rec->itemNs[i] = t1 - t0;
            if (traced)
                rec->spans.push_back({SpanItem, SpanCount,
                                      static_cast<uint32_t>(i), t0, t1});
            record(it, r, rec);
        }
    }

  private:
    static constexpr size_t kCountsPerItem = 20;

    static void
    runSource(const OneShotItem &it, Result *r)
    {
        driver::RunResult rr =
            driver::runSource(it.source, *it.profile, it.filename);
        r->frontendError = rr.frontendError;
        r->frontendMessage = std::move(rr.frontendMessage);
        r->outcome = std::move(rr.outcome);
        r->opt = rr.optStats;
    }

    /** The four layer calls, in runSource's order; with @p rec, one
     *  span per call, parented to item @p item's root. */
    static void
    runLayers(const OneShotItem &it, Result *r, PassRecord *rec,
              uint32_t item, LayerTotals *layer)
    {
        auto span = [&](SpanName name, uint64_t t0, uint64_t t1,
                        uint64_t LayerTotals::*slot) {
            rec->spans.push_back({name, SpanItem, item, t0, t1});
            layer->*slot += t1 - t0;
        };
        const driver::Profile &p = *it.profile;
        try {
            uint64_t t0 = nowNs();
            frontend::TranslationUnit unit =
                frontend::parse(it.source, it.filename);
            uint64_t t1 = nowNs();
            if (rec)
                span(SpanParse, t0, t1, &LayerTotals::parseNs);
            ctype::MachineLayout machine{p.memConfig.arch->capSize(),
                                         p.memConfig.arch->addrBits() / 8};
            sema::Program prog = sema::analyze(std::move(unit), machine);
            uint64_t t2 = nowNs();
            if (rec)
                span(SpanAnalyze, t1, t2, &LayerTotals::analyzeNs);
            r->opt = corelang::optimize(prog, p.optims);
            uint64_t t3 = nowNs();
            if (rec)
                span(SpanOptimize, t2, t3, &LayerTotals::optimizeNs);
            r->outcome = corelang::evaluate(prog, p.evalOptions());
            uint64_t t4 = nowNs();
            if (rec)
                span(SpanEvaluate, t3, t4, &LayerTotals::evalNs);
        } catch (const frontend::FrontendError &e) {
            r->frontendError = true;
            r->frontendMessage = e.str();
        } catch (const sema::SemaError &e) {
            r->frontendError = true;
            r->frontendMessage = e.str();
        }
    }

    static void
    runTraced(const OneShotItem &it, uint32_t item, Result *r,
              PassRecord *rec)
    {
        runLayers(it, r, rec, item, &rec->layer);
        LayerTotals &l = rec->layer;
        const corelang::Outcome &o = r->outcome;
        const mem::MemStats &m = o.memStats;
        l.sourceBytes += it.source.size();
        l.programs += 1;
        l.rewrites += rewrites(r->opt);
        l.steps += o.steps;
        l.accesses += m.loads + m.stores;
        l.tagInvalidations += m.ghostTagInvalidations + m.hardTagInvalidations;
        l.pagesAllocated += m.store.pagesAllocated;
        l.mallocs += m.heap.mallocCalls;
        l.reuses += m.heap.reuses;
        l.slabsCarved += m.heap.slabsCarved;
        l.sweeps += m.revoke.sweeps;
        l.slotsVisited += m.revoke.slotsVisited;
        l.tagsRevoked += m.revoke.tagsRevoked;
        l.sweepNs += m.revoke.sweepNs;
        l.intrinsicCalls += intrinsicCalls(o);
    }

    /** Check @p r against the item's reference and append its exact
     *  counts. */
    void
    record(const OneShotItem &it, const Result &r, PassRecord *rec)
    {
        const corelang::Outcome &o = r.outcome;
        bool ok = !r.frontendError &&
            driver::outcomeMatches(o, it.expect) &&
            (!it.checkOutput || outputMatches(o.output, it.output));
        if (!ok) {
            ++rec->failed;
            if (reported_ < 5) {
                ++reported_;
                std::fprintf(stderr, "MISMATCH %s [%s]: expected '%s', "
                             "got '%s'%s\n",
                             it.filename.c_str(), it.profile->name.c_str(),
                             it.expect.c_str(),
                             r.frontendError
                                 ? ("frontend-error " + r.frontendMessage)
                                       .c_str()
                                 : o.summary().c_str(),
                             r.frontendError || !it.checkOutput
                                 ? ""
                                 : " (or output differs)");
            }
        }
        const mem::MemStats &m = o.memStats;
        const uint64_t counts[kCountsPerItem] = {
            r.frontendError,
            static_cast<uint64_t>(o.kind),
            static_cast<uint64_t>(static_cast<int64_t>(o.exitCode)),
            static_cast<uint64_t>(o.failure.ub),
            o.output.size(),
            o.steps,
            m.loads,
            m.stores,
            m.allocations,
            m.ghostTagInvalidations,
            m.hardTagInvalidations,
            m.store.pagesAllocated,
            m.heap.mallocCalls,
            m.heap.reuses,
            m.heap.slabsCarved,
            m.revoke.sweeps,
            m.revoke.slotsVisited,
            m.revoke.tagsRevoked,
            rewrites(r.opt),
            intrinsicCalls(o),
        };
        rec->counts.insert(rec->counts.end(), counts,
                           counts + kCountsPerItem);
    }

    std::vector<OneShotItem> items_;
    OneShotEntry entry_;
    unsigned reported_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeOneShot(std::vector<OneShotItem> items, OneShotEntry entry)
{
    return std::make_unique<OneShot>(std::move(items), entry);
}

} // namespace perfbench
