#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

const char *
spanName(unsigned name)
{
    static const char *const kNames[SpanCount] = {
        "item",     "parse",         "analyze", "optimize",
        "evaluate", "parse_request", "submit",  "render"};
    return name < SpanCount ? kNames[name] : "?";
}

std::vector<double>
itemFastestNs(const std::vector<PassRecord> &passes)
{
    std::vector<double> out;
    if (passes.empty())
        return out;
    out.assign(passes.front().itemNs.size(), 0.0);
    for (size_t i = 0; i < out.size(); ++i) {
        uint64_t best = UINT64_MAX;
        for (const PassRecord &p : passes)
            best = std::min(best, p.itemNs[i]);
        out[i] = static_cast<double>(best);
    }
    return out;
}

namespace {

/** The smallest value of @p f over @p passes. */
template <typename F>
double
fastest(const std::vector<PassRecord> &passes, F f)
{
    double best = 0;
    for (size_t i = 0; i < passes.size(); ++i) {
        double v = static_cast<double>(f(passes[i]));
        best = i == 0 ? v : std::min(best, v);
    }
    return best;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** The fastest over @p passes of the median across a pass's items
 *  (those @p keep selects) of @p f. */
template <typename F, typename K>
double
passMedian(const std::vector<PassRecord> &passes, F f, K keep)
{
    return fastest(passes, [&](const PassRecord &p) {
        std::vector<double> v;
        for (size_t i = 0; i < p.itemNs.size(); ++i)
            if (keep(p, i))
                v.push_back(static_cast<double>(f(p, i)));
        return quantile(std::move(v), 0.50);
    });
}

/** Summed item latency of a pass. */
uint64_t
itemSumNs(const PassRecord &p)
{
    uint64_t s = 0;
    for (uint64_t ns : p.itemNs)
        s += ns;
    return s;
}

} // namespace

void
summariseSpans(PassRecord *rec)
{
    // A span's self time is its duration minus its children's.
    rec->selfNs.assign(SpanCount, 0);
    for (const Span &s : rec->spans) {
        uint64_t d = s.end - s.start;
        rec->selfNs[s.name] += d;
        if (s.parent < SpanCount)
            rec->selfNs[s.parent] -= d;
    }
    rec->spanCount = rec->spans.size();
}

std::vector<Metric>
layerMetrics(const std::vector<PassRecord> &traced,
             const std::vector<PassRecord> &untraced)
{
    std::vector<Metric> m;
    if (traced.empty())
        return m;
    auto add = [&](const char *name, double v, const char *unit) {
        m.push_back({name, v, unit});
    };
    const PassRecord &first = traced.front();
    // Counts are identical in every pass (the exact-count check holds
    // the run to that), so the first traced pass stands for all.
    const LayerTotals &c = first.layer;
    auto fd = [&](uint64_t LayerTotals::*field) {
        return fastest(traced,
                       [&](const PassRecord &p) { return p.layer.*field; });
    };
    double parseNs = fd(&LayerTotals::parseNs);
    double analyzeNs = fd(&LayerTotals::analyzeNs);
    double optimizeNs = fd(&LayerTotals::optimizeNs);
    double evalNs = fd(&LayerTotals::evalNs);
    double itemsNs = fastest(traced, itemSumNs);

    add("frontend.parse_ns_per_byte", ratio(parseNs, c.sourceBytes),
        "ns/B");
    add("frontend.share", ratio(parseNs, itemsNs), "1");
    add("sema.analyze_ns_per_byte", ratio(analyzeNs, c.sourceBytes),
        "ns/B");
    add("optimize.ns_per_program", ratio(optimizeNs, c.programs), "ns");
    add("optimize.rewrites", c.rewrites, "count");
    add("eval.ns_per_step", ratio(evalNs, c.steps), "ns");
    add("eval.steps", c.steps, "count");
    add("eval.share", ratio(evalNs, itemsNs), "1");
    add("mem.accesses", c.accesses, "count");
    add("mem.eval_ns_per_access", ratio(evalNs, c.accesses), "ns");
    add("mem.tag_invalidations", c.tagInvalidations, "count");
    add("store.pages_allocated", c.pagesAllocated, "count");
    add("alloc.mallocs", c.mallocs, "count");
    add("alloc.reuse_ratio", ratio(c.reuses, c.mallocs), "1");
    add("alloc.slabs_carved", c.slabsCarved, "count");
    add("revoke.sweeps", c.sweeps, "count");
    add("revoke.slots_visited", c.slotsVisited, "count");
    add("revoke.revoked_per_slot", ratio(c.tagsRevoked, c.slotsVisited),
        "1");
    add("revoke.sweep_ns", fd(&LayerTotals::sweepNs), "ns");
    add("intrinsics.calls", c.intrinsicCalls, "count");

    // Serving layer: items interfere, so per-pass medians across items,
    // fastest pass.
    bool serve = !first.serve.empty();
    auto all = [](const PassRecord &, size_t) { return true; };
    auto ofClass = [](ServeItem::Class cls) {
        return [cls](const PassRecord &p, size_t i) {
            return p.serve[i].cls == cls;
        };
    };
    auto latency = [](const PassRecord &p, size_t i) {
        return p.itemNs[i];
    };
    double hits = 0, warm = 0;
    for (const ServeItem &s : first.serve) {
        hits += s.cached;
        warm += s.warm;
    }
    double n = static_cast<double>(first.serve.size());
    add("serve.queue_wait_us_p50",
        serve ? passMedian(traced,
                           [](const PassRecord &p, size_t i) {
                               return p.serve[i].queueNs;
                           },
                           all) / 1e3
              : 0.0,
        "us");
    add("serve.exec_us_p50",
        serve ? passMedian(traced,
                           [](const PassRecord &p, size_t i) {
                               return p.serve[i].execNs;
                           },
                           all) / 1e3
              : 0.0,
        "us");
    add("serve.front_hit_rate", ratio(hits, n), "1");
    add("serve.warm_hit_rate", ratio(warm, n), "1");
    add("serve.hit_latency_p50_us",
        serve ? passMedian(traced, latency, ofClass(ServeItem::Hit)) / 1e3
              : 0.0,
        "us");
    add("serve.miss_latency_p50_us",
        serve ? passMedian(traced, latency, ofClass(ServeItem::Miss)) / 1e3
              : 0.0,
        "us");
    add("serve.digest_latency_p50_us",
        serve ? passMedian(traced, latency, ofClass(ServeItem::Digest)) /
                1e3
              : 0.0,
        "us");
    add("protocol.parse_request_ns",
        serve ? passMedian(traced,
                           [](const PassRecord &p, size_t i) {
                               return p.serve[i].parseRequestNs;
                           },
                           all)
              : 0.0,
        "ns");
    add("protocol.render_response_ns",
        serve ? passMedian(traced,
                           [](const PassRecord &p, size_t i) {
                               return p.serve[i].renderNs;
                           },
                           all)
              : 0.0,
        "ns");

    // Span self times, summed over a pass's items; fastest pass.
    for (unsigned s = 0; s < SpanCount; ++s) {
        double self = fastest(traced, [s](const PassRecord &p) {
            return p.selfNs[s];
        });
        std::string name = std::string("self.") + spanName(s) + "_ms";
        m.push_back({name, self / 1e6, "ms"});
    }
    double plainNs = fastest(untraced, itemSumNs);
    add("trace.overhead", ratio(itemsNs - plainNs, plainNs), "1");
    add("trace.spans", static_cast<double>(first.spanCount), "count");
    add("items_per_pass", static_cast<double>(first.itemNs.size()),
        "count");
    return m;
}

bool
writeSpans(const std::string &path, const std::vector<PassRecord> &traced)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "[\n");
    bool firstLine = true;
    for (size_t p = 0; p < traced.size(); ++p) {
        for (const Span &s : traced[p].spans) {
            std::fprintf(f,
                         "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%zu,"
                         "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"item\":%u,\"parent\":\"%s\"}}",
                         firstLine ? "" : ",\n", spanName(s.name), p,
                         s.item, static_cast<double>(s.start) / 1e3,
                         static_cast<double>(s.end - s.start) / 1e3,
                         s.item,
                         s.parent < SpanCount ? spanName(s.parent) : "");
            firstLine = false;
        }
    }
    std::fprintf(f, "\n]\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
