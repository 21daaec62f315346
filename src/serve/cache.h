/**
 * @file
 * The serve layer's two caches, both keyed by (source bytes, profile
 * name):
 *
 *  - FrontCache: the compiled front half (driver::compile()).  The
 *    profile name is part of the key because the optimisation passes
 *    rewrite the AST per profile and the machine layout (capability
 *    size) feeds sema.
 *  - WarmCache: the post-prelude fork point (corelang::WarmEntry) of
 *    each combined prelude + source program on a warm server, with
 *    its witness-digest prefix once a digest request needed it
 *    (WarmServeEntry).
 *
 * Both values are shared_ptrs, so one entry can be used by any number
 * of workers at once; each evaluation builds its own Machine and
 * MemoryModel.  The compiled program and the fork point are
 * immutable; the digest prefix is filled in once, under the entry's
 * mutex.
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
#include <optional>
#include <string>
#include <unordered_map>

#include "corelang/machine.h"
#include "driver/interpreter.h"
#include "support/hash.h"

namespace cherisem::serve {

using driver::CompiledPtr;

/** Thread-safe LRU map from a content key to a shared_ptr @p V.
 *  First insert wins: values for one key are identical by
 *  determinism, so existing pointers stay canonical. */
template <typename V>
class LruCache
{
  public:
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

    /** @p capacity 0 disables caching (every lookup misses and
     *  inserts are dropped). */
    explicit LruCache(size_t capacity) : capacity_(capacity) {}

    /** The cache key: source content hash x profile identity. */
    static uint64_t
    key(const std::string &source, const std::string &profileName)
    {
        uint64_t h = fnv1a(source.data(), source.size());
        h = fnv1a("\0", 1, h); // unambiguous separator
        return fnv1a(profileName.data(), profileName.size(), h);
    }

    /** nullptr on miss; refreshes LRU position on hit. */
    V
    lookup(uint64_t key)
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = map_.find(key);
        if (it == map_.end()) {
            ++misses_;
            return nullptr;
        }
        ++hits_;
        lru_.splice(lru_.begin(), lru_, it->second.pos);
        return it->second.value;
    }

    void
    insert(uint64_t key, V value)
    {
        if (capacity_ == 0)
            return;
        std::lock_guard<std::mutex> lock(mu_);
        if (map_.count(key))
            return;
        while (map_.size() >= capacity_) {
            map_.erase(lru_.back());
            lru_.pop_back();
            ++evictions_;
        }
        lru_.push_front(key);
        map_.emplace(key, Entry{std::move(value), lru_.begin()});
    }

    Stats
    stats() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return Stats{hits_, misses_, evictions_, map_.size(),
                     capacity_};
    }

    /** Drop every entry; the counters keep counting. */
    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mu_);
        map_.clear();
        lru_.clear();
    }

  private:
    mutable std::mutex mu_;
    size_t capacity_;
    /** Most-recently-used first. */
    std::list<uint64_t> lru_;
    struct Entry
    {
        V value;
        std::list<uint64_t>::iterator pos;
    };
    std::unordered_map<uint64_t, Entry> map_;
    uint64_t hits_ = 0, misses_ = 0, evictions_ = 0;
};

/** Where a cold run's witness stream stands at the fork point. */
struct DigestPrefix
{
    /** Events emitted by global init and __prelude(). */
    uint64_t events = 0;
    /** obs::DigestSink state after folding them. */
    uint64_t state = 0;
};

/** A warm server's entry: an unrecorded fork point and, once
 *  computed, its digest prefix (see runCompiledWarm). */
struct WarmServeEntry
{
    corelang::WarmPtr warm;
    /** Guards prefix: workers share entries. */
    std::mutex mu;
    std::optional<DigestPrefix> prefix;
};

using FrontCache = LruCache<CompiledPtr>;
using WarmCache = LruCache<std::shared_ptr<WarmServeEntry>>;

} // namespace cherisem::serve

#endif // CHERISEM_SERVE_CACHE_H
