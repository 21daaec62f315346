/**
 * @file
 * The pass-replay harness shared by every workload.
 *
 * A workload is a fixed list of items replayed as identical passes:
 * every pass does exactly the same work, so any periodic work
 * (revocation sweeps, cache evictions, warm builds) recurs inside
 * every pass and a fast pass has nothing skipped.  Each timing is the
 * fastest of its observations over the passes: host interference only
 * ever slows a pass, and the fastest observation is what stays steady
 * from run to run where whole-run wall time, or even the fast decile,
 * does not (measurements in perfbench/README.md).
 */
#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

uint64_t nowNs();

/** The @p q quantile of @p v, interpolated linearly between order
 *  statistics; @p v is taken by value because it is sorted. */
double quantile(std::vector<double> v, double q);

/** Span names, in output order. */
enum SpanName : unsigned
{
    SpanItem,         ///< one item, root of the others
    SpanParse,        ///< frontend::parse
    SpanAnalyze,      ///< sema::analyze
    SpanOptimize,     ///< corelang::optimize
    SpanEvaluate,     ///< corelang::evaluate
    SpanParseRequest, ///< serve::parseRequest
    SpanSubmit,       ///< Server::submit -> completion callback
    SpanRender,       ///< Response::render
    SpanCount
};

const char *spanName(unsigned name);

/** One span: every span of an item carries that item's id; a root
 *  has parent SpanCount, the others have the item root as parent. */
struct Span
{
    unsigned name = SpanItem;
    unsigned parent = SpanCount;
    uint32_t item = 0;
    uint64_t start = 0;
    uint64_t end = 0;
};

/** Per-pass sums of what the layers did, from the library's own
 *  counters and (times) from the benchmark's spans or the library's
 *  phase timers. */
struct LayerTotals
{
    uint64_t parseNs = 0, analyzeNs = 0, optimizeNs = 0, evalNs = 0;
    uint64_t sourceBytes = 0;  ///< bytes through frontend::parse
    uint64_t programs = 0;     ///< programs through corelang::optimize
    uint64_t rewrites = 0;     ///< OptimizeStats, all passes
    uint64_t steps = 0;
    uint64_t accesses = 0;     ///< loads + stores
    uint64_t tagInvalidations = 0;
    uint64_t pagesAllocated = 0;
    uint64_t mallocs = 0, reuses = 0, slabsCarved = 0;
    uint64_t sweeps = 0, slotsVisited = 0, tagsRevoked = 0, sweepNs = 0;
    uint64_t intrinsicCalls = 0;
};

/** Serving-layer observations of one item (serve_warm only). */
struct ServeItem
{
    enum Class : unsigned { Hit, Miss, Digest };
    Class cls = Hit;
    bool cached = false;
    bool warm = false;
    uint64_t queueNs = 0;
    uint64_t execNs = 0;
    uint64_t parseRequestNs = 0; ///< traced passes only
    uint64_t renderNs = 0;       ///< traced passes only
};

/** What one pass measured. */
struct PassRecord
{
    /** Per-item latency, in item order. */
    std::vector<uint64_t> itemNs;
    /** Exact-count fingerprint: verdicts and every deterministic
     *  counter the library returned, in item order.  Identical for
     *  every pass of a run and for every run with the same seed. */
    std::vector<uint64_t> counts;
    uint64_t failed = 0;
    /** Traced passes only.  The spans themselves are kept for the
     *  first few traced passes; selfNs (per span name, summed over
     *  the items) and spanCount for all of them. */
    std::vector<Span> spans;
    std::vector<uint64_t> selfNs;
    uint64_t spanCount = 0;
    LayerTotals layer;
    std::vector<ServeItem> serve;
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** One workload: built from the seed, replayed pass by pass. */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual size_t items() const = 0;
    /** Requests the closed loop keeps in flight. */
    virtual unsigned inFlight() const { return 1; }
    /** Build the program state a run needs (profiles, servers,
     *  caches). */
    virtual void setUp() = 0;
    /** Run one pass.  @p pass numbers passes from 0 across the whole
     *  process (the warm-up pass included).  A traced pass records
     *  spans around each public call and fills rec->layer. */
    virtual void runPass(uint64_t pass, bool traced, PassRecord *rec) = 0;
};

std::unique_ptr<Workload> makeOracleCorpus(const std::string &root,
                                           uint64_t seed);
std::unique_ptr<Workload> makeEvalKernels(const std::string &root,
                                          uint64_t seed);
std::unique_ptr<Workload> makeServeWarm(uint64_t seed);

/** Each item's fastest latency (ns) over @p passes.  Every pass
 *  replays the same items in the same order, so item i is the same
 *  observation in every pass. */
std::vector<double> itemFastestNs(const std::vector<PassRecord> &passes);

/** Every per-layer metric, from the traced passes of a run and the
 *  untraced passes interleaved with them.  A layer a workload does
 *  not reach reads 0. */
std::vector<Metric> layerMetrics(const std::vector<PassRecord> &traced,
                                 const std::vector<PassRecord> &untraced);

/** Fill rec->selfNs and rec->spanCount from rec->spans. */
void summariseSpans(PassRecord *rec);

/** Write the spans of @p traced as a Chrome trace-event JSON array to @p path. */
bool writeSpans(const std::string &path,
                const std::vector<PassRecord> &traced);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
