/**
 * @file
 * Warm prelude serving: the COW-snapshot fork point behind
 * `cherisem_serve --warm FILE`.
 *
 * A warm server prepends one prelude source to every request and
 * memoises, per combined compiled program, the machine state right
 * after global initialization and `__prelude()` returned — a
 * Machine::Snapshot whose store pages are refcounted COW pages, so
 * capturing and restoring cost O(pages touched), not O(footprint).
 * The first request for a program pays the prelude once ("warm
 * build"); every repeat forks the snapshot into a fresh machine and
 * runs only main() ("warm hit").  Snapshots reference AST nodes of
 * their own program, which is why the cache is keyed by the combined
 * (prelude + source, profile) pair and never shared across programs.
 *
 * Digesting requests stay bit-identical to cold runs: the build run
 * records its witness events (global init + prelude), and a warm hit
 * replays them into the request's private ring before main()'s own
 * events arrive — per-sink sequence numbering restarts at zero, so
 * the replayed stream is byte-for-byte the cold stream's prefix.
 *
 * Eviction is LRU under one mutex, same shape and rationale as
 * FrontCache (cache.h).
 */
#ifndef CHERISEM_SERVE_WARM_H
#define CHERISEM_SERVE_WARM_H

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "corelang/machine.h"
#include "obs/trace_event.h"

namespace cherisem::serve {

/** One compiled program's post-prelude fork point. */
struct WarmEntry
{
    /** The prelude itself terminated the run (UB, exit(), assert
     *  failure): every request for this program gets that outcome
     *  without executing anything.  Wall-clock/cancel exhaustion is
     *  never cached — it is not a property of the program. */
    bool terminal = false;
    corelang::Outcome preludeOutcome;
    /** Quiescent machine state right after __prelude() returned
     *  (null when terminal). */
    corelang::Machine::SnapshotPtr snap;
    /** The build run's witness events (global init + prelude),
     *  replayed into each digesting request's ring. */
    std::vector<obs::TraceEvent> preludeEvents;
    /** Events the build ring overwrote; a non-zero value makes the
     *  recorded stream a suffix, so digesting requests fall back to
     *  a cold run. */
    uint64_t preludeDropped = 0;
};

using WarmPtr = std::shared_ptr<const WarmEntry>;

/** LRU cache of WarmEntries keyed by FrontCache::key(prelude +
 *  source, profile).  Thread-safe; first insert wins (entries for
 *  one key are identical by determinism). */
class WarmCache
{
  public:
    /** @p capacity 0 disables warm state (every lookup misses and
     *  inserts are dropped). */
    explicit WarmCache(size_t capacity) : capacity_(capacity) {}

    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t evictions = 0;
        size_t size = 0;
        size_t capacity = 0;
    };

    /** nullptr on miss; refreshes LRU position on hit. */
    WarmPtr lookup(uint64_t key);
    void insert(uint64_t key, WarmPtr entry);

    Stats stats() const;
    void clear();

  private:
    mutable std::mutex mu_;
    size_t capacity_;
    /** Most-recently-used first. */
    std::list<uint64_t> lru_;
    struct Entry
    {
        WarmPtr warm;
        std::list<uint64_t>::iterator pos;
    };
    std::unordered_map<uint64_t, Entry> map_;
    uint64_t hits_ = 0, misses_ = 0, evictions_ = 0;
};

} // namespace cherisem::serve

#endif // CHERISEM_SERVE_WARM_H
