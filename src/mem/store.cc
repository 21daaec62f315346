/**
 * @file
 * The two AbstractStore backends: the reference MapStore (the paper's
 * literal B and C maps) and the PagedStore the profiles run on.
 */
#include "mem/store.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

namespace cherisem::mem {

namespace {

/** The section 3.5 transition on one recorded slot; true when the
 *  slot actually changed (for the invalidation counters). */
bool
applyInvalidation(CapMeta &m, bool ghost)
{
    if (!m.tag && !m.ghost.tagUnspec)
        return false;
    if (ghost) {
        // Abstract semantics: a representation write over a set tag
        // makes the tag *unspecified*, so optimisations that elide
        // the write stay sound.
        m.ghost.tagUnspec = true;
    } else {
        // Hardware view: the tag is deterministically cleared.
        m.tag = false;
        m.ghost = cap::GhostState{};
    }
    return true;
}

/** Bits [lo, hi) of one 64-bit word, 0 <= lo < hi <= 64. */
uint64_t
wordMask(unsigned lo, unsigned hi)
{
    uint64_t m = ~uint64_t(0) << lo;
    if (hi < 64)
        m &= (uint64_t(1) << hi) - 1;
    return m;
}

bool
bitTest(const uint64_t *ws, unsigned i)
{
    return (ws[i / 64] >> (i % 64)) & 1;
}

void
bitSet(uint64_t *ws, unsigned i)
{
    ws[i / 64] |= uint64_t(1) << (i % 64);
}

void
bitClear(uint64_t *ws, unsigned i)
{
    ws[i / 64] &= ~(uint64_t(1) << (i % 64));
}

void
maskSet(uint64_t *ws, unsigned lo, unsigned hi)
{
    while (lo < hi) {
        unsigned b = lo % 64;
        unsigned take = std::min(hi - lo, 64 - b);
        ws[lo / 64] |= wordMask(b, b + take);
        lo += take;
    }
}

void
maskClear(uint64_t *ws, unsigned lo, unsigned hi)
{
    while (lo < hi) {
        unsigned b = lo % 64;
        unsigned take = std::min(hi - lo, 64 - b);
        ws[lo / 64] &= ~wordMask(b, b + take);
        lo += take;
    }
}

/** All bits of [lo, hi) set? */
bool
maskAll(const uint64_t *ws, unsigned lo, unsigned hi)
{
    while (lo < hi) {
        unsigned b = lo % 64;
        unsigned take = std::min(hi - lo, 64 - b);
        uint64_t m = wordMask(b, b + take);
        if ((ws[lo / 64] & m) != m)
            return false;
        lo += take;
    }
    return true;
}

/** No bit of [lo, hi) set? */
bool
maskNone(const uint64_t *ws, unsigned lo, unsigned hi)
{
    while (lo < hi) {
        unsigned b = lo % 64;
        unsigned take = std::min(hi - lo, 64 - b);
        if (ws[lo / 64] & wordMask(b, b + take))
            return false;
        lo += take;
    }
    return true;
}

} // namespace

// ---------------------------------------------------------------------
// MapStore.
// ---------------------------------------------------------------------

bool
MapStore::readScalarClean(uint64_t addr, unsigned n, uint8_t *out) const
{
    auto it = bytes_.lower_bound(addr);
    for (unsigned i = 0; i < n; ++i, ++it) {
        if (it == bytes_.end() || it->first != addr + i)
            return false;
        const AbsByte &b = it->second;
        if (!b.value || !b.prov.isEmpty() || b.index)
            return false;
        out[i] = *b.value;
    }
    ++stats_.rangeReads;
    stats_.bytesRead += n;
    return true;
}

void
MapStore::readBytes(uint64_t addr, uint64_t n, AbsByte *out) const
{
    ++stats_.rangeReads;
    stats_.bytesRead += n;
    uint64_t end = rangeEnd(addr, n);
    for (uint64_t i = 0; i < n; ++i)
        out[i] = AbsByte{};
    for (auto it = bytes_.lower_bound(addr);
         it != bytes_.end() && it->first < end; ++it) {
        out[it->first - addr] = it->second;
    }
}

void
MapStore::writeBytes(uint64_t addr, const AbsByte *src, uint64_t n)
{
    ++stats_.rangeWrites;
    stats_.bytesWritten += n;
    for (uint64_t i = 0; i < n; ++i)
        bytes_[addr + i] = src[i];
}

void
MapStore::fillRange(uint64_t addr, uint64_t n, const AbsByte &b)
{
    ++stats_.rangeFills;
    stats_.bytesWritten += n;
    for (uint64_t i = 0; i < n; ++i)
        bytes_[addr + i] = b;
}

void
MapStore::clearRange(uint64_t addr, uint64_t n)
{
    uint64_t end = rangeEnd(addr, n);
    bytes_.erase(bytes_.lower_bound(addr), bytes_.lower_bound(end));
}

void
MapStore::copyRange(uint64_t dst, uint64_t src, uint64_t n)
{
    ++stats_.rangeCopies;
    stats_.bytesCopied += n;
    // Stage through a temporary: overlap-safe in either direction.
    std::vector<AbsByte> tmp(n);
    uint64_t end = rangeEnd(src, n);
    for (auto it = bytes_.lower_bound(src);
         it != bytes_.end() && it->first < end; ++it) {
        tmp[it->first - src] = it->second;
    }
    for (uint64_t i = 0; i < n; ++i)
        bytes_[dst + i] = tmp[i];
}

std::optional<CapMeta>
MapStore::peekCapMeta(uint64_t slot) const
{
    assert(slot % capSize_ == 0);
    auto it = capMeta_.find(slot);
    if (it == capMeta_.end())
        return std::nullopt;
    return it->second;
}

void
MapStore::setCapMeta(uint64_t slot, const CapMeta &m)
{
    assert(slot % capSize_ == 0);
    ++stats_.capMetaWrites;
    capMeta_[slot] = m;
}

void
MapStore::eraseCapMeta(uint64_t slot)
{
    assert(slot % capSize_ == 0);
    ++stats_.capMetaWrites;
    capMeta_.erase(slot);
}

uint64_t
MapStore::invalidateCapRange(uint64_t addr, uint64_t n, bool ghost)
{
    uint64_t first = addr / capSize_ * capSize_;
    uint64_t end = rangeEnd(addr, n);
    uint64_t count = 0;
    for (auto it = capMeta_.lower_bound(first);
         it != capMeta_.end() && it->first < end; ++it) {
        if (applyInvalidation(it->second, ghost))
            ++count;
    }
    return count;
}

void
MapStore::forEachCapInRange(
    uint64_t addr, uint64_t n,
    const std::function<void(uint64_t, CapMeta &)> &visit)
{
    uint64_t first = addr / capSize_ * capSize_;
    uint64_t end = rangeEnd(addr, n);
    for (auto it = capMeta_.lower_bound(first);
         it != capMeta_.end() && it->first < end; ++it) {
        visit(it->first, it->second);
    }
}

/** Deep copies of the literal B and C maps: the O(n) oracle the
 *  equivalence soak diffs the COW backend against. */
struct MapStore::Snapshot final : StoreSnapshot
{
    std::map<uint64_t, AbsByte> bytes;
    std::map<uint64_t, CapMeta> capMeta;
};

StoreSnapshotPtr
MapStore::snapshot() const
{
    auto snap = std::make_shared<Snapshot>();
    snap->bytes = bytes_;
    snap->capMeta = capMeta_;
    snap->stats = stats_;
    return snap;
}

void
MapStore::restore(const StoreSnapshotPtr &snap)
{
    auto *s = dynamic_cast<const Snapshot *>(snap.get());
    assert(s && "MapStore snapshot restored into a MapStore");
    bytes_ = s->bytes;
    capMeta_ = s->capMeta;
    stats_ = s->stats;
}

// ---------------------------------------------------------------------
// PagedStore.
// ---------------------------------------------------------------------

PagedStore::PagedStore(unsigned cap_size)
    : AbstractStore(cap_size),
      slotsPerPage_(static_cast<unsigned>(kPageBytes) / cap_size),
      capShift_(static_cast<unsigned>(std::countr_zero(cap_size)))
{
    // The tag granule must be a power of two tiling a page exactly so
    // a slot never straddles two pages (and slot arithmetic can be
    // mask-and-shift, not division).
    assert(std::has_single_bit(cap_size));
    assert(kPageBytes % cap_size == 0);
    assert(cap_size >= kMinCapSize && cap_size <= 16);
}

void
PagedStore::splitGranule(Page &p, unsigned g)
{
    if (!isWhole(p, g))
        return;
    unsigned base = g << capShift_;
    for (unsigned i = 0; i < capSize_; ++i) {
        p.heavyBytes[static_cast<uint16_t>(base + i)] =
            HeavyInfo{p.granuleProv[g], i};
    }
    bitClear(p.whole, g);
}

void
PagedStore::clearHeavySpan(Page &p, unsigned lo, unsigned hi)
{
    if (maskNone(p.heavy, lo, hi))
        return;
    // Granule records: split the (at most two) the span covers only
    // partly, then drop every record it touches.
    unsigned mask = capSize_ - 1;
    if (lo & mask)
        splitGranule(p, lo >> capShift_);
    if (hi & mask)
        splitGranule(p, hi >> capShift_);
    maskClear(p.whole, lo >> capShift_, (hi + mask) >> capShift_);
    auto it = p.heavyBytes.lower_bound(static_cast<uint16_t>(lo));
    while (it != p.heavyBytes.end() && it->first < hi)
        it = p.heavyBytes.erase(it);
    maskClear(p.heavy, lo, hi);
}

bool
PagedStore::invalidateSlotMeta(CapMeta &m, bool ghost)
{
    return applyInvalidation(m, ghost);
}

PagedStore::Page *
PagedStore::findPage(uint64_t index) const
{
    if (index == cachedIndex_)
        return cachedPage_;
    auto it = pages_.find(index);
    if (it == pages_.end())
        return nullptr;
    cachedIndex_ = index;
    cachedPage_ = it->second.get();
    cachedWritable_ = !maybeShared_ || it->second.use_count() == 1;
    return cachedPage_;
}

PagedStore::Page &
PagedStore::ensureUnique(uint64_t index, std::shared_ptr<Page> &entry)
{
    if (maybeShared_ && entry.use_count() > 1) {
        // Copy-before-write: the page is aliased by at least one
        // snapshot.  The old page stays alive (and immutable) behind
        // the snapshot's reference.
        entry = std::make_shared<Page>(*entry);
        ++cowClones_;
    }
    cachedIndex_ = index;
    cachedPage_ = entry.get();
    cachedWritable_ = true;
    return *entry;
}

PagedStore::Page &
PagedStore::touchPage(uint64_t index)
{
    if (index == cachedIndex_ && cachedWritable_)
        return *cachedPage_;
    auto it = pages_.find(index);
    if (it == pages_.end()) {
        it = pages_.emplace(index,
                            std::make_shared<Page>(slotsPerPage_))
                 .first;
        ++stats_.pagesAllocated;
    }
    return ensureUnique(index, it->second);
}

void
PagedStore::assembleBytes(const Page *p, unsigned off, unsigned n,
                          AbsByte *out) const
{
    for (unsigned j = 0; j < n; ++j) {
        unsigned o = off + j;
        AbsByte b;
        if (bitTest(p->present, o))
            b.value = p->value[o];
        if (bitTest(p->heavy, o)) {
            unsigned g = o >> capShift_;
            if (isWhole(*p, g)) {
                b.prov = p->granuleProv[g];
                b.index = o & (capSize_ - 1);
            } else {
                auto it = p->heavyBytes.find(static_cast<uint16_t>(o));
                assert(it != p->heavyBytes.end());
                b.prov = it->second.prov;
                b.index = it->second.index;
            }
        }
        out[j] = b;
    }
}

void
PagedStore::depositBytes(Page &p, unsigned off, unsigned n,
                         const AbsByte *src)
{
    for (unsigned j = 0; j < n; ++j) {
        unsigned o = off + j;
        if (src[j].value) {
            bitSet(p.present, o);
            p.value[o] = *src[j].value;
        } else {
            bitClear(p.present, o);
        }
    }
    unsigned mask = capSize_ - 1;
    for (unsigned j = 0; j < n;) {
        unsigned o = off + j;
        if (!(o & mask) && n - j >= capSize_) {
            // A granule-aligned run in the shape of one capability
            // becomes a granule record.
            const AbsByte *g = src + j;
            bool shaped = true;
            for (unsigned i = 0; i < capSize_ && shaped; ++i)
                shaped = g[i].index == i && g[i].prov == g[0].prov;
            if (shaped) {
                setGranuleRecord(p, o, g[0].prov);
                j += capSize_;
                continue;
            }
        }
        const AbsByte &b = src[j];
        if (!b.prov.isEmpty() || b.index) {
            if (isWhole(p, o >> capShift_))
                clearHeavySpan(p, o, o + 1); // split the record around o
            bitSet(p.heavy, o);
            p.heavyBytes[static_cast<uint16_t>(o)] =
                HeavyInfo{b.prov, b.index};
        } else if (bitTest(p.heavy, o)) {
            clearHeavySpan(p, o, o + 1);
        }
        ++j;
    }
}

void
PagedStore::readBytes(uint64_t addr, uint64_t n, AbsByte *out) const
{
    ++stats_.rangeReads;
    stats_.bytesRead += n;
    uint64_t i = 0;
    while (i < n) {
        uint64_t a = addr + i;
        uint64_t off = a % kPageBytes;
        uint64_t chunk = std::min(n - i, kPageBytes - off);
        if (const Page *p = findPage(a / kPageBytes)) {
            assembleBytes(p, static_cast<unsigned>(off),
                          static_cast<unsigned>(chunk), out + i);
        } else {
            std::fill_n(out + i, chunk, AbsByte{});
        }
        i += chunk;
    }
}

void
PagedStore::writeBytes(uint64_t addr, const AbsByte *src, uint64_t n)
{
    ++stats_.rangeWrites;
    stats_.bytesWritten += n;
    uint64_t i = 0;
    while (i < n) {
        uint64_t a = addr + i;
        uint64_t off = a % kPageBytes;
        uint64_t chunk = std::min(n - i, kPageBytes - off);
        Page &p = touchPage(a / kPageBytes);
        depositBytes(p, static_cast<unsigned>(off),
                     static_cast<unsigned>(chunk), src + i);
        i += chunk;
    }
}

void
PagedStore::fillRange(uint64_t addr, uint64_t n, const AbsByte &b)
{
    ++stats_.rangeFills;
    stats_.bytesWritten += n;
    bool heavy = !b.prov.isEmpty() || b.index.has_value();
    uint64_t i = 0;
    while (i < n) {
        uint64_t a = addr + i;
        uint64_t off = a % kPageBytes;
        uint64_t chunk = std::min(n - i, kPageBytes - off);
        unsigned lo = static_cast<unsigned>(off);
        unsigned hi = static_cast<unsigned>(off + chunk);
        Page &p = touchPage(a / kPageBytes);
        if (b.value) {
            maskSet(p.present, lo, hi);
            std::memset(p.value + lo, *b.value, chunk);
        } else {
            maskClear(p.present, lo, hi);
        }
        clearHeavySpan(p, lo, hi);
        if (heavy) {
            maskSet(p.heavy, lo, hi);
            for (unsigned o = lo; o < hi; ++o)
                p.heavyBytes[static_cast<uint16_t>(o)] =
                    HeavyInfo{b.prov, b.index};
        }
        i += chunk;
    }
}

void
PagedStore::clearRange(uint64_t addr, uint64_t n)
{
    uint64_t i = 0;
    while (i < n) {
        uint64_t a = addr + i;
        uint64_t off = a % kPageBytes;
        uint64_t chunk = std::min(n - i, kPageBytes - off);
        // Absent pages are already uninitialised: skip without
        // materialising them.  Likewise skip (and leave shared) a
        // page whose range is already clear.
        auto it = pages_.find(a / kPageBytes);
        if (it != pages_.end()) {
            unsigned lo = static_cast<unsigned>(off);
            unsigned hi = static_cast<unsigned>(off + chunk);
            if (!maybeShared_ || it->second.use_count() == 1) {
                Page &p = ensureUnique(it->first, it->second);
                maskClear(p.present, lo, hi);
                clearHeavySpan(p, lo, hi);
            } else {
                // Shared page: only clone if the range is not
                // already clear (leave an untouched page shared).
                const Page *ro = it->second.get();
                if (!maskNone(ro->present, lo, hi) ||
                    !maskNone(ro->heavy, lo, hi)) {
                    Page &p = ensureUnique(it->first, it->second);
                    maskClear(p.present, lo, hi);
                    clearHeavySpan(p, lo, hi);
                }
            }
        }
        i += chunk;
    }
}

void
PagedStore::copyRange(uint64_t dst, uint64_t src, uint64_t n)
{
    ++stats_.rangeCopies;
    stats_.bytesCopied += n;
    bool overlap = src < dst ? dst - src < n : src - dst < n;
    if (overlap && dst != src) {
        // Stage through a temporary, as the reference backend does.
        std::vector<AbsByte> tmp(n);
        // Not via readBytes/writeBytes: keep the range-op counters
        // identical across backends for the equivalence test.
        uint64_t i = 0;
        while (i < n) {
            uint64_t a = src + i;
            uint64_t off = a % kPageBytes;
            uint64_t chunk = std::min(n - i, kPageBytes - off);
            if (const Page *p = findPage(a / kPageBytes))
                assembleBytes(p, static_cast<unsigned>(off),
                              static_cast<unsigned>(chunk),
                              tmp.data() + i);
            i += chunk;
        }
        i = 0;
        while (i < n) {
            uint64_t a = dst + i;
            uint64_t off = a % kPageBytes;
            uint64_t chunk = std::min(n - i, kPageBytes - off);
            Page &p = touchPage(a / kPageBytes);
            depositBytes(p, static_cast<unsigned>(off),
                         static_cast<unsigned>(chunk), tmp.data() + i);
            i += chunk;
        }
        return;
    }
    if (dst == src)
        return;
    // Disjoint ranges: page-chunked direct copy, no staging.
    uint64_t i = 0;
    while (i < n) {
        uint64_t sa = src + i;
        uint64_t da = dst + i;
        uint64_t soff = sa % kPageBytes;
        uint64_t doff = da % kPageBytes;
        uint64_t chunk = std::min({n - i, kPageBytes - soff,
                                   kPageBytes - doff});
        unsigned slo = static_cast<unsigned>(soff);
        unsigned shi = static_cast<unsigned>(soff + chunk);
        unsigned dlo = static_cast<unsigned>(doff);
        unsigned dhi = static_cast<unsigned>(doff + chunk);
        const Page *sp = findPage(sa / kPageBytes);
        Page &dp = touchPage(da / kPageBytes);
        if (!sp) {
            // Source page absent: every byte reads as AbsByte{}.
            maskClear(dp.present, dlo, dhi);
            clearHeavySpan(dp, dlo, dhi);
        } else if (maskNone(sp->heavy, slo, shi)) {
            // No heavy bytes in the source chunk: bulk-copy the
            // value plane and mirror the presence bits.
            std::memcpy(dp.value + dlo, sp->value + slo, chunk);
            if (maskAll(sp->present, slo, shi)) {
                maskSet(dp.present, dlo, dhi);
            } else if (maskNone(sp->present, slo, shi)) {
                maskClear(dp.present, dlo, dhi);
            } else {
                for (unsigned j = 0; j < chunk; ++j) {
                    if (bitTest(sp->present, slo + j))
                        bitSet(dp.present, dlo + j);
                    else
                        bitClear(dp.present, dlo + j);
                }
            }
            clearHeavySpan(dp, dlo, dhi);
        } else {
            // Heavy bytes present: move granule records whole where
            // source and destination are both granule-aligned, and
            // assemble/deposit every other byte one by one.
            unsigned mask = capSize_ - 1;
            for (unsigned j = 0; j < chunk;) {
                unsigned so = slo + j, d = dlo + j;
                if (!(so & mask) && !(d & mask) && chunk - j >= capSize_ &&
                    isWhole(*sp, so >> capShift_)) {
                    std::memcpy(dp.value + d, sp->value + so, capSize_);
                    // A granule sits in one mask word.
                    uint64_t bits = (sp->present[so / 64] >> (so % 64)) &
                        spanMask(0, capSize_);
                    dp.present[d / 64] =
                        (dp.present[d / 64] & ~spanMask(d % 64, capSize_)) |
                        bits << (d % 64);
                    setGranuleRecord(dp, d,
                                     sp->granuleProv[so >> capShift_]);
                    j += capSize_;
                    continue;
                }
                AbsByte b;
                assembleBytes(sp, so, 1, &b);
                depositBytes(dp, d, 1, &b);
                ++j;
            }
        }
        i += chunk;
    }
}

std::optional<CapMeta>
PagedStore::peekCapMeta(uint64_t slot) const
{
    assert(slot % capSize_ == 0);
    const Page *p = findPage(slot / kPageBytes);
    if (!p)
        return std::nullopt;
    unsigned s = static_cast<unsigned>((slot % kPageBytes) / capSize_);
    if (!p->metaPresent[s])
        return std::nullopt;
    return p->meta[s];
}

void
PagedStore::setCapMeta(uint64_t slot, const CapMeta &m)
{
    assert(slot % capSize_ == 0);
    ++stats_.capMetaWrites;
    Page &p = touchPage(slot / kPageBytes);
    unsigned s = static_cast<unsigned>((slot % kPageBytes) / capSize_);
    p.meta[s] = m;
    p.metaPresent[s] = 1;
}

void
PagedStore::eraseCapMeta(uint64_t slot)
{
    assert(slot % capSize_ == 0);
    ++stats_.capMetaWrites;
    // Read through the page cache first: the hot caller
    // (copyBytesAndMeta) sweeps every slot of a range, and the common
    // slot has no metadata — that case must stay a cached read, not a
    // hash lookup.  Only clone a shared page when there is metadata
    // to erase.
    if (const Page *p = findPage(slot / kPageBytes)) {
        unsigned s =
            static_cast<unsigned>((slot % kPageBytes) / capSize_);
        if (p->metaPresent[s]) {
            Page &wp = touchPage(slot / kPageBytes);
            wp.metaPresent[s] = 0;
            wp.meta[s] = CapMeta{};
        }
    }
}

uint64_t
PagedStore::invalidateCapRange(uint64_t addr, uint64_t n, bool ghost)
{
    uint64_t first = addr / capSize_ * capSize_;
    uint64_t end = rangeEnd(addr, n);
    uint64_t count = 0;
    for (uint64_t slot = first; slot < end;) {
        auto it = pages_.find(slot / kPageBytes);
        if (it == pages_.end()) {
            // Skip to the next page boundary.
            uint64_t next = (slot / kPageBytes + 1) * kPageBytes;
            slot = next > slot ? next : end;
            continue;
        }
        Page *p = it->second.get();
        bool unique = !maybeShared_ || it->second.use_count() == 1;
        uint64_t page_end =
            std::min(end, (slot / kPageBytes + 1) * kPageBytes);
        for (; slot < page_end; slot += capSize_) {
            unsigned s = static_cast<unsigned>((slot % kPageBytes) /
                                               capSize_);
            if (!p->metaPresent[s])
                continue;
            // Clone lazily: only once a slot would actually change
            // (the common page has no live tags to transition).
            if (!p->meta[s].tag && !p->meta[s].ghost.tagUnspec)
                continue;
            if (!unique) {
                p = &ensureUnique(it->first, it->second);
                unique = true;
            }
            applyInvalidation(p->meta[s], ghost);
            ++count;
        }
    }
    return count;
}

void
PagedStore::forEachCapInRange(
    uint64_t addr, uint64_t n,
    const std::function<void(uint64_t, CapMeta &)> &visit)
{
    uint64_t end = rangeEnd(addr, n);
    for (auto &[index, entry] : pages_) {
        uint64_t page_base = index * kPageBytes;
        if (page_base >= end || page_base + kPageBytes <= addr)
            continue;
        // The visitor gets a mutable CapMeta& (the revocation sweep
        // clears tags through it), so a shared page must be cloned
        // before the first slot it visits.  Replacing the mapped
        // shared_ptr does not invalidate the map iteration.
        Page *page = entry.get();
        bool unique = !maybeShared_ || entry.use_count() == 1;
        for (unsigned s = 0; s < slotsPerPage_; ++s) {
            if (!page->metaPresent[s])
                continue;
            uint64_t slot = page_base + uint64_t(s) * capSize_;
            if (slot + capSize_ <= addr || slot >= end)
                continue;
            if (!unique) {
                page = &ensureUnique(index, entry);
                unique = true;
            }
            visit(slot, page->meta[s]);
        }
    }
}

/** A copy of the page *table*: every page's refcount goes up by one,
 *  no page contents are copied.  Pages reachable from a snapshot are
 *  immutable — every mutating primitive clones first. */
struct PagedStore::Snapshot final : StoreSnapshot
{
    std::unordered_map<uint64_t, std::shared_ptr<Page>> pages;
};

StoreSnapshotPtr
PagedStore::snapshot() const
{
    auto snap = std::make_shared<Snapshot>();
    snap->pages = pages_;
    snap->stats = stats_;
    // Every live page is now shared with the snapshot; the next write
    // through the cache must go via touchPage() and clone.
    cachedWritable_ = false;
    maybeShared_ = true;
    return snap;
}

void
PagedStore::restore(const StoreSnapshotPtr &snap)
{
    auto *s = dynamic_cast<const Snapshot *>(snap.get());
    assert(s && "PagedStore snapshot restored into a PagedStore");
    pages_ = s->pages;
    stats_ = s->stats;
    // Pages the diverged run cloned are dropped here; pages it never
    // touched come back shared (refcount >= 2: us + the snapshot).
    cachedIndex_ = ~uint64_t(0);
    cachedPage_ = nullptr;
    cachedWritable_ = false;
    maybeShared_ = true;
}

uint64_t
PagedStore::sharedPages() const
{
    uint64_t n = 0;
    for (const auto &[index, entry] : pages_) {
        (void)index;
        if (entry.use_count() > 1)
            ++n;
    }
    return n;
}

// ---------------------------------------------------------------------
// Factory.
// ---------------------------------------------------------------------

std::unique_ptr<AbstractStore>
makeStore(StoreBackend backend, unsigned cap_size)
{
    switch (backend) {
      case StoreBackend::Map:
        return std::make_unique<MapStore>(cap_size);
      case StoreBackend::Paged:
        return std::make_unique<PagedStore>(cap_size);
    }
    return std::make_unique<PagedStore>(cap_size);
}

const char *
storeBackendName(StoreBackend backend)
{
    return backend == StoreBackend::Map ? "map" : "paged";
}

} // namespace cherisem::mem
