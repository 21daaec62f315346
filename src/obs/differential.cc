#include "obs/differential.h"

#include "obs/sinks.h"

namespace cherisem::obs {

namespace {

/** One traced run: attach a fresh ring, run, snapshot. */
std::vector<TraceEvent>
tracedRun(const std::string &source, driver::Profile profile,
          RingBufferSink &ring, driver::RunResult *out)
{
    profile.memConfig.traceSink = &ring;
    *out = driver::runSource(source, profile);
    return ring.snapshot();
}

} // namespace

DifferentialResult
diffStoreBackends(const std::string &source,
                  const driver::Profile &profile)
{
    DifferentialResult res;

    driver::Profile map = profile;
    map.memConfig.storeBackend = mem::StoreBackend::Map;
    driver::Profile paged = profile;
    paged.memConfig.storeBackend = mem::StoreBackend::Paged;

    RingBufferSink lring(kDiffRingCapacity), rring(kDiffRingCapacity);
    std::vector<TraceEvent> l =
        tracedRun(source, map, lring, &res.left);
    std::vector<TraceEvent> r =
        tracedRun(source, paged, rring, &res.right);

    res.leftEvents = lring.emitted();
    res.rightEvents = rring.emitted();
    res.truncated = lring.dropped() > 0 || rring.dropped() > 0;

    // The store backend lives *below* the semantics: every witness,
    // including concrete addresses, must match exactly.
    DiffOptions opts;
    res.diff = diffEventStreams(l, r, opts);
    return res;
}

DifferentialResult
diffProfiles(const std::string &source, const driver::Profile &a,
             const driver::Profile &b, const DiffOptions &opts)
{
    DifferentialResult res;

    RingBufferSink lring(kDiffRingCapacity), rring(kDiffRingCapacity);
    std::vector<TraceEvent> l = tracedRun(source, a, lring, &res.left);
    std::vector<TraceEvent> r = tracedRun(source, b, rring, &res.right);

    res.leftEvents = lring.emitted();
    res.rightEvents = rring.emitted();
    res.truncated = lring.dropped() > 0 || rring.dropped() > 0;
    res.diff = diffEventStreams(l, r, opts);
    return res;
}

std::string
DifferentialResult::summary() const
{
    if (truncated)
        return "truncated (ring buffer overflow; raise the capacity)";
    std::string s = diff.summary();
    s += " [" + left.summary() + " | " + right.summary() + "]";
    return s;
}

} // namespace cherisem::obs
