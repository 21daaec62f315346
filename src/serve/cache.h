/**
 * @file
 * The content-hash front cache: parse -> sema -> optimize, keyed by
 * (source bytes, profile name).
 *
 * A CompiledProgram is immutable after construction — sema::Program
 * is plain annotated-AST data — so one shared_ptr can be evaluated
 * by any number of workers concurrently; each evaluation builds its
 * own Machine and MemoryModel.  The profile name is part of the key because the
 * optimisation passes rewrite the AST per profile and the machine
 * layout (capability size) feeds sema.
 *
 * Eviction is LRU under a single mutex: the critical sections are a
 * map lookup and a list splice, orders of magnitude below one
 * evaluation, so a sharded design would be complexity without a
 * measurable win at realistic worker counts (revisit past ~64
 * workers).
 */
#ifndef CHERISEM_SERVE_CACHE_H
#define CHERISEM_SERVE_CACHE_H

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "corelang/optimize.h"
#include "obs/metrics.h"
#include "sema/sema.h"

namespace cherisem::serve {

/** FNV-1a 64-bit over @p data, continuing from @p h. */
inline uint64_t
fnv1a(const void *data, size_t n, uint64_t h = 0xcbf29ce484222325ull)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/** The immutable front half of one (source, profile) pair. */
struct CompiledProgram
{
    sema::Program prog;
    corelang::OptimizeStats optStats;
    /** What the front half cost when it was compiled (evalNs 0). */
    obs::PhaseTimings frontPhases;
};

using CompiledPtr = std::shared_ptr<const CompiledProgram>;

class FrontCache
{
  public:
    /** @p capacity 0 disables caching (every lookup misses). */
    explicit FrontCache(size_t capacity) : capacity_(capacity) {}

    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t evictions = 0;
        size_t size = 0;
        size_t capacity = 0;

        double
        hitRate() const
        {
            uint64_t total = hits + misses;
            return total ? static_cast<double>(hits) / total : 0.0;
        }
    };

    /** The cache key: source content hash x profile identity. */
    static uint64_t
    key(const std::string &source, const std::string &profileName)
    {
        uint64_t h = fnv1a(source.data(), source.size());
        h = fnv1a("\0", 1, h); // unambiguous separator
        return fnv1a(profileName.data(), profileName.size(), h);
    }

    /** nullptr on miss; refreshes LRU position on hit. */
    CompiledPtr lookup(uint64_t key);

    /** Insert (no-op if the key raced in already — first wins, the
     *  values are identical by construction). */
    void insert(uint64_t key, CompiledPtr prog);

    Stats stats() const;
    void clear();

  private:
    mutable std::mutex mu_;
    size_t capacity_;
    /** Most-recently-used first. */
    std::list<uint64_t> lru_;
    struct Entry
    {
        CompiledPtr prog;
        std::list<uint64_t>::iterator pos;
    };
    std::unordered_map<uint64_t, Entry> map_;
    uint64_t hits_ = 0, misses_ = 0, evictions_ = 0;
};

} // namespace cherisem::serve

#endif // CHERISEM_SERVE_CACHE_H
