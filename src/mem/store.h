/**
 * @file
 * The abstract store layer under the memory object model.
 *
 * The paper keeps the memory component of the state as two maps
 * (section 4.3):
 *
 *     M = B x C        B : Addr -> AbsByte
 *                      C : Addr -> bool x ghost_state
 *
 * AbstractStore is exactly that object, exposed as a narrow,
 * range-based interface so the rest of the semantics never touches a
 * concrete container.  Two backends implement it:
 *
 *  - MapStore: the literal `std::map` transcription of B and C.  Kept
 *    as the reference backend / differential oracle: slow (one
 *    red-black-tree lookup per byte) but obviously faithful.
 *  - PagedStore: sparse 4 KiB pages (a raw value plane, presence and
 *    heavy bitmasks, per-granule capability records and CapMeta
 *    slots) keyed by page index, with a one-entry last-page cache.
 *    This is what every implementation profile runs by default.
 *
 * Invariants every backend must uphold (and the store-equivalence
 * test checks):
 *
 *  - A byte never written reads back as the uninitialised AbsByte{}
 *    (empty provenance, no value, no pointer index).
 *  - Capability metadata lives only at capSize()-aligned slots, and
 *    "no metadata recorded" is observably distinct from "metadata
 *    recorded with a clear tag": the ghost-state rule of section 3.5
 *    (a byte-wise capability copy has an *unspecified* tag) keys off
 *    that distinction.
 *  - invalidateCapRange applies the section 3.5 transition to every
 *    slot overlapping the range: ghost mode marks set tags
 *    unspecified; hardware mode clears them deterministically.
 *  - copyRange is overlap-safe in both directions (memmove
 *    semantics) for the abstract bytes.
 */
#ifndef CHERISEM_MEM_STORE_H
#define CHERISEM_MEM_STORE_H

#include <cassert>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mem/mem_value.h"

namespace cherisem::mem {

/** Which concrete backend a MemoryModel runs on. */
enum class StoreBackend { Map, Paged };

/** Store-level counters (nested into MemStats). */
struct StoreStats
{
    /** PagedStore 4 KiB pages materialised (0 for MapStore). */
    uint64_t pagesAllocated = 0;
    /** Range-primitive invocations. */
    uint64_t rangeReads = 0;
    uint64_t rangeWrites = 0;
    uint64_t rangeCopies = 0;
    uint64_t rangeFills = 0;
    /** Per-op byte totals for the range primitives above. */
    uint64_t bytesRead = 0;
    uint64_t bytesWritten = 0;
    uint64_t bytesCopied = 0;
    /** Capability-metadata primitive invocations. */
    uint64_t capMetaReads = 0;
    uint64_t capMetaWrites = 0;
};

/**
 * Opaque snapshot of one store's full (B, C) contents.
 *
 * Backends subclass this with their own representation (MapStore
 * copies the maps outright — the O(n) oracle; PagedStore copies the
 * page *table*, sharing the refcounted pages themselves — O(pages)).
 * A snapshot is immutable once taken and can be restored any number
 * of times, into the store that took it or into another store of the
 * same backend and capSize().
 */
struct StoreSnapshot
{
    virtual ~StoreSnapshot() = default;
    /** Counter state at snapshot time; restore() rewinds stats too so
     *  a restored run is bit-identical to never having diverged. */
    StoreStats stats;
};

using StoreSnapshotPtr = std::shared_ptr<const StoreSnapshot>;

/**
 * The store interface: the `M = B x C` component of the memory state
 * behind range-based primitives.
 *
 * Addresses are plain 64-bit; @p slot arguments must be
 * capSize()-aligned (callers round, backends assert).
 */
class AbstractStore
{
  public:
    explicit AbstractStore(unsigned cap_size) : capSize_(cap_size) {}
    virtual ~AbstractStore() = default;

    virtual const char *name() const = 0;

    /// @name Byte-map (B) primitives.
    /// @{
    /** Read @p n abstract bytes into @p out; never-written addresses
     *  produce the uninitialised AbsByte{}. */
    virtual void readBytes(uint64_t addr, uint64_t n,
                           AbsByte *out) const = 0;
    /** Write @p n abstract bytes from @p src. */
    virtual void writeBytes(uint64_t addr, const AbsByte *src,
                            uint64_t n) = 0;
    /** Write the same abstract byte over [addr, addr+n) (memset). */
    virtual void fillRange(uint64_t addr, uint64_t n,
                           const AbsByte &b) = 0;
    /** Return [addr, addr+n) to the uninitialised state. */
    virtual void clearRange(uint64_t addr, uint64_t n) = 0;
    /** Copy @p n abstract bytes src -> dst; overlap-safe (memmove
     *  semantics).  Bytes only — capability metadata policy stays
     *  with the memory model. */
    virtual void copyRange(uint64_t dst, uint64_t src, uint64_t n) = 0;
    /// @}

    /// @name Capability-metadata (C) primitives.
    /// @{
    /** Metadata at the aligned @p slot; nullopt when none was ever
     *  recorded (distinct from a recorded clear tag, section 3.5).
     *  Counted in StoreStats::capMetaReads. */
    std::optional<CapMeta>
    capMetaAt(uint64_t slot) const
    {
        ++stats_.capMetaReads;
        return peekCapMeta(slot);
    }
    /** capMetaAt() uncounted: for observers (trace payloads,
     *  introspection) that must leave the counters as they are. */
    virtual std::optional<CapMeta> peekCapMeta(uint64_t slot) const = 0;
    virtual void setCapMeta(uint64_t slot, const CapMeta &m) = 0;
    virtual void eraseCapMeta(uint64_t slot) = 0;
    /**
     * Apply the representation-write transition (section 3.5) to
     * every recorded slot overlapping [addr, addr+n): with @p ghost
     * set, previously set tags become *unspecified* in ghost state;
     * otherwise tags are deterministically cleared (hardware view).
     * Returns the number of slots actually transitioned.
     */
    virtual uint64_t invalidateCapRange(uint64_t addr, uint64_t n,
                                        bool ghost) = 0;
    /**
     * Visit every recorded capability-metadata slot intersecting
     * [addr, addr+n) as (slot, meta&); the visitor may mutate the
     * metadata in place (the CHERIoT revocation sweep clears tags
     * this way).  Pass addr=0, n=~0 to sweep the whole store.
     * Visit order is unspecified.
     */
    virtual void
    forEachCapInRange(uint64_t addr, uint64_t n,
                      const std::function<void(uint64_t, CapMeta &)>
                          &visit) = 0;
    /// @}

    /// @name Scalar fast-path primitives.
    /// The one-virtual-call-per-access interface the memory model's
    /// fast path uses (mem/fast_path.cc).  A byte is *clean* when its
    /// value is present, its provenance is empty, and it carries no
    /// pointer index — i.e. it is exactly AbsByte{empty, v, nullopt},
    /// the representation every plain integer/float store produces.
    /// @{
    /**
     * If every byte of [addr, addr+n) is clean, copy the raw values
     * into @p out and return true; otherwise return false having
     * read nothing.  @p n is at most 16 (one scalar).  Counters are
     * bumped only on success (a false return is always followed by a
     * slow-path read that does its own counting).
     */
    virtual bool readScalarClean(uint64_t addr, unsigned n,
                                 uint8_t *out) const
    {
        (void)addr;
        (void)n;
        (void)out;
        return false;
    }
    /**
     * Write @p n clean bytes from @p src (equivalent to writeBytes of
     * AbsByte{empty, src[i], nullopt}) and apply the representation-
     * write transition to every recorded capability slot overlapping
     * the range (as invalidateCapRange would).  Returns the number of
     * slots transitioned.  Always succeeds.
     */
    virtual uint64_t writeScalarClean(uint64_t addr, const uint8_t *src,
                                      unsigned n, bool ghost)
    {
        AbsByte bs[16];
        for (unsigned i = 0; i < n; ++i)
            bs[i] = AbsByte{Provenance::empty(), src[i], std::nullopt};
        writeBytes(addr, bs, n);
        return invalidateCapRange(addr, n, ghost);
    }
    /// @}

    /// @name Capability-granule primitives.
    /// A stored capability (section 4.3) is capSize() abstract bytes at
    /// an aligned slot, all with the same provenance and byte i
    /// carrying pointer index i.  A granule in exactly that shape, with
    /// every value present, is *whole*; these primitives move one whole
    /// granule at a time.  They bump exactly the counters of the staged
    /// readBytes / writeBytes + setCapMeta path they replace, so
    /// MemStats do not depend on which path served an access.
    /// @{
    /**
     * If the granule at the aligned @p slot is whole, copy its raw
     * values into @p raw (capSize() bytes), set @p prov to the
     * provenance its bytes share and return true.  Otherwise return
     * false with the counters untouched: the caller falls back to a
     * readBytes that does its own counting.  A backend may also
     * decline a whole granule it does not hold as one record
     * (PagedStore after a byte-by-byte copy); the fallback reads the
     * same value.  Capability metadata is not read: that stays
     * capMetaAt().
     */
    virtual bool readCapGranule(uint64_t slot, uint8_t *raw,
                                Provenance &prov) const
    {
        assert(slot % capSize_ == 0);
        AbsByte bs[16];
        readBytes(slot, capSize_, bs);
        for (unsigned i = 0; i < capSize_; ++i) {
            if (!bs[i].value || !(bs[i].prov == bs[0].prov) ||
                bs[i].index != i) {
                // Not whole: rewind the read the caller will redo.
                --stats_.rangeReads;
                stats_.bytesRead -= capSize_;
                return false;
            }
            raw[i] = *bs[i].value;
        }
        prov = bs[0].prov;
        return true;
    }
    /**
     * Store one capability at the aligned @p slot: writeBytes of
     * AbsByte{prov, raw[i], i} for i < capSize(), then setCapMeta(slot,
     * meta).
     */
    virtual void writeCapGranule(uint64_t slot, const uint8_t *raw,
                                 const Provenance &prov,
                                 const CapMeta &meta)
    {
        assert(slot % capSize_ == 0);
        AbsByte bs[16];
        for (unsigned i = 0; i < capSize_; ++i)
            bs[i] = AbsByte{prov, raw[i], i};
        writeBytes(slot, bs, capSize_);
        setCapMeta(slot, meta);
    }
    /// @}

    /// @name Snapshot / restore.
    /// @{
    /** Capture the full (B, C) contents plus counters.  PagedStore is
     *  O(pages) refcount bumps; MapStore is an O(n) deep copy. */
    virtual StoreSnapshotPtr snapshot() const = 0;
    /** Rewind to @p snap: contents and counters become bit-identical
     *  to the snapshot point.  The snapshot must come from the same
     *  backend with the same capSize(). */
    virtual void restore(const StoreSnapshotPtr &snap) = 0;
    /// @}

    /** Convenience: single-byte write. */
    void writeByte(uint64_t addr, const AbsByte &b)
    {
        writeBytes(addr, &b, 1);
    }
    /** Convenience: allocate-and-return range read. */
    std::vector<AbsByte>
    readBytes(uint64_t addr, uint64_t n) const
    {
        std::vector<AbsByte> out(n);
        readBytes(addr, n, out.data());
        return out;
    }

    unsigned capSize() const { return capSize_; }
    const StoreStats &stats() const { return stats_; }

  protected:
    /** Exclusive end of [addr, addr+n), saturating at 2^64-1. */
    static uint64_t
    rangeEnd(uint64_t addr, uint64_t n)
    {
        return n > ~uint64_t(0) - addr ? ~uint64_t(0) : addr + n;
    }

    unsigned capSize_;
    mutable StoreStats stats_;
};

/**
 * Reference backend: the literal B and C maps of the paper.
 */
class MapStore final : public AbstractStore
{
  public:
    using AbstractStore::AbstractStore;
    using AbstractStore::readBytes;

    const char *name() const override { return "map"; }

    bool readScalarClean(uint64_t addr, unsigned n,
                         uint8_t *out) const override;

    void readBytes(uint64_t addr, uint64_t n,
                   AbsByte *out) const override;
    void writeBytes(uint64_t addr, const AbsByte *src,
                    uint64_t n) override;
    void fillRange(uint64_t addr, uint64_t n, const AbsByte &b) override;
    void clearRange(uint64_t addr, uint64_t n) override;
    void copyRange(uint64_t dst, uint64_t src, uint64_t n) override;

    std::optional<CapMeta> peekCapMeta(uint64_t slot) const override;
    void setCapMeta(uint64_t slot, const CapMeta &m) override;
    void eraseCapMeta(uint64_t slot) override;
    uint64_t invalidateCapRange(uint64_t addr, uint64_t n,
                                bool ghost) override;
    void forEachCapInRange(
        uint64_t addr, uint64_t n,
        const std::function<void(uint64_t, CapMeta &)> &visit) override;

    StoreSnapshotPtr snapshot() const override;
    void restore(const StoreSnapshotPtr &snap) override;

  private:
    struct Snapshot; // deep map copies; defined in store.cc

    std::map<uint64_t, AbsByte> bytes_;   // B
    std::map<uint64_t, CapMeta> capMeta_; // C
};

/**
 * Paged backend: sparse 4 KiB pages keyed by page index, fronted by a
 * one-entry last-page cache.
 *
 * Pages store the abstract bytes struct-of-arrays: a raw value plane,
 * a presence bitmask (value recorded), and a *heavy* bitmask marking
 * the bytes that carry provenance or a pointer index.  A clean byte
 * (present and not heavy) is exactly the AbsByte{empty, v, nullopt}
 * every plain integer/float store produces, so the scalar fast path
 * is a word-mask test plus a memcpy against the value plane, and bulk
 * fill/copy of plain data moves raw bytes, not 32-byte structs.
 *
 * The out-of-band part of a heavy byte lives in one of two places.  A
 * granule written as one capability (every byte with the same
 * provenance, byte i with pointer index i) is a *granule record*: one
 * bit in `whole` plus one Provenance per granule, so a pointer store
 * or load moves one record, not capSize() map entries.  Every other
 * heavy byte (byte-wise copies, misaligned capability stores, partly
 * overwritten granules) keeps a residual per-byte map entry.  A write
 * over part of a granule record first splits the record into map
 * entries for the bytes it leaves alone.
 *
 * Pages are refcounted and immutable-when-shared: snapshot() copies
 * the page table (refcount bumps only), and every mutating primitive
 * copies a page before writing iff its refcount is > 1, so forking
 * and restoring whole states costs O(pages touched since the
 * snapshot), never O(footprint).  The discipline is concentrated in
 * touchPage()/ensureUnique(): a `Page &` handed out by either is
 * uniquely owned and safe to mutate; read paths may alias shared
 * pages freely.
 */
class PagedStore final : public AbstractStore
{
  public:
    static constexpr uint64_t kPageBytes = 4096;
    static constexpr unsigned kMaskWords =
        static_cast<unsigned>(kPageBytes / 64);

    explicit PagedStore(unsigned cap_size);
    using AbstractStore::readBytes;

    const char *name() const override { return "paged"; }

    // The scalar fast-path primitives are defined inline: the memory
    // model calls them through a concrete PagedStore* (the class is
    // final, so the calls devirtualise) and per-access call overhead
    // is exactly what they exist to eliminate.  n <= 16 by contract,
    // so a span covers at most two mask words.
    bool
    readScalarClean(uint64_t addr, unsigned n,
                    uint8_t *out) const override
    {
        unsigned off = static_cast<unsigned>(addr % kPageBytes);
        if (off + n > kPageBytes)
            return false; // Page straddle: take the general path.
        uint64_t index = addr / kPageBytes;
        const Page *p =
            index == cachedIndex_ ? cachedPage_ : findPage(index);
        if (!p)
            return false;
        unsigned w = off / 64, b = off % 64;
        if (b + n <= 64) {
            uint64_t m = spanMask(b, n);
            if ((p->present[w] & m) != m || (p->heavy[w] & m))
                return false;
        } else {
            uint64_t m0 = ~uint64_t(0) << b;
            uint64_t m1 = spanMask(0, b + n - 64);
            if ((p->present[w] & m0) != m0 || (p->heavy[w] & m0) ||
                (p->present[w + 1] & m1) != m1 ||
                (p->heavy[w + 1] & m1)) {
                return false;
            }
        }
        std::memcpy(out, p->value + off, n);
        ++stats_.rangeReads;
        stats_.bytesRead += n;
        return true;
    }

    uint64_t
    writeScalarClean(uint64_t addr, const uint8_t *src, unsigned n,
                     bool ghost) override
    {
        unsigned off = static_cast<unsigned>(addr % kPageBytes);
        if (off + n > kPageBytes) {
            // Page straddle: the generic deposit handles chunking and
            // produces the same counters (one range write + one
            // cap-range invalidation).
            return AbstractStore::writeScalarClean(addr, src, n, ghost);
        }
        uint64_t index = addr / kPageBytes;
        // The cache may alias a *shared* page after a snapshot();
        // only write through it when it is known uniquely owned.
        Page &p = index == cachedIndex_ && cachedWritable_
            ? *cachedPage_
            : touchPage(index);
        unsigned w = off / 64, b = off % 64;
        if (b + n <= 64) {
            uint64_t m = spanMask(b, n);
            p.present[w] |= m;
            if (p.heavy[w] & m)
                clearHeavySpan(p, off, off + n);
        } else {
            uint64_t m0 = ~uint64_t(0) << b;
            uint64_t m1 = spanMask(0, b + n - 64);
            p.present[w] |= m0;
            p.present[w + 1] |= m1;
            if ((p.heavy[w] & m0) || (p.heavy[w + 1] & m1))
                clearHeavySpan(p, off, off + n);
        }
        std::memcpy(p.value + off, src, n);
        ++stats_.rangeWrites;
        stats_.bytesWritten += n;
        // Inline the cap-slot invalidation: every granule overlapping
        // the footprint lives on this page (pages are granule-aligned)
        // and almost never carries recorded metadata.
        uint64_t first = addr & ~uint64_t(capSize_ - 1);
        uint64_t end = addr + n;
        uint64_t count = 0;
        for (uint64_t slot = first; slot < end; slot += capSize_) {
            unsigned s = static_cast<unsigned>(
                (slot % kPageBytes) >> capShift_);
            if (p.metaPresent[s] &&
                invalidateSlotMeta(p.meta[s], ghost)) {
                ++count;
            }
        }
        return count;
    }

    // The granule primitives are inline for the same reason.  A slot
    // is capSize()-aligned and capSize() <= 16, so a granule sits in
    // one mask word and one bit of `whole`.
    bool
    readCapGranule(uint64_t slot, uint8_t *raw,
                   Provenance &prov) const override
    {
        assert(slot % capSize_ == 0);
        uint64_t index = slot / kPageBytes;
        const Page *p =
            index == cachedIndex_ ? cachedPage_ : findPage(index);
        if (!p)
            return false;
        unsigned off = static_cast<unsigned>(slot % kPageBytes);
        unsigned g = off >> capShift_;
        uint64_t m = spanMask(off % 64, capSize_);
        if (!isWhole(*p, g) || (p->present[off / 64] & m) != m)
            return false;
        std::memcpy(raw, p->value + off, capSize_);
        prov = p->granuleProv[g];
        ++stats_.rangeReads;
        stats_.bytesRead += capSize_;
        return true;
    }

    void
    writeCapGranule(uint64_t slot, const uint8_t *raw,
                    const Provenance &prov, const CapMeta &meta) override
    {
        assert(slot % capSize_ == 0);
        uint64_t index = slot / kPageBytes;
        Page &p = index == cachedIndex_ && cachedWritable_
            ? *cachedPage_
            : touchPage(index);
        unsigned off = static_cast<unsigned>(slot % kPageBytes);
        unsigned g = off >> capShift_;
        p.present[off / 64] |= spanMask(off % 64, capSize_);
        std::memcpy(p.value + off, raw, capSize_);
        setGranuleRecord(p, off, prov);
        p.meta[g] = meta;
        p.metaPresent[g] = 1;
        ++stats_.rangeWrites;
        stats_.bytesWritten += capSize_;
        ++stats_.capMetaWrites;
    }

    void readBytes(uint64_t addr, uint64_t n,
                   AbsByte *out) const override;
    void writeBytes(uint64_t addr, const AbsByte *src,
                    uint64_t n) override;
    void fillRange(uint64_t addr, uint64_t n, const AbsByte &b) override;
    void clearRange(uint64_t addr, uint64_t n) override;
    void copyRange(uint64_t dst, uint64_t src, uint64_t n) override;

    std::optional<CapMeta> peekCapMeta(uint64_t slot) const override;
    void setCapMeta(uint64_t slot, const CapMeta &m) override;
    void eraseCapMeta(uint64_t slot) override;
    uint64_t invalidateCapRange(uint64_t addr, uint64_t n,
                                bool ghost) override;
    void forEachCapInRange(
        uint64_t addr, uint64_t n,
        const std::function<void(uint64_t, CapMeta &)> &visit) override;

    StoreSnapshotPtr snapshot() const override;
    void restore(const StoreSnapshotPtr &snap) override;

    /** Pages copied because they were shared at write time (COW
     *  clones).  Deliberately *not* part of StoreStats: a restored
     *  run must be counter-identical to one that never diverged, and
     *  clones happen only on the diverged side. */
    uint64_t cowClones() const { return cowClones_; }
    /** Live pages currently shared with at least one snapshot. */
    uint64_t sharedPages() const;

  private:
    /** The smallest supported capability granule (cc64). */
    static constexpr unsigned kMinCapSize = 8;

    /** Out-of-band part of a heavy byte (provenance / pointer index). */
    struct HeavyInfo
    {
        Provenance prov;
        std::optional<uint32_t> index;
    };

    /**
     * One 4 KiB page.  Heavy byte o's out-of-band part is the record
     * of its granule g when bit g of `whole` is set — provenance
     * granuleProv[g], index o % capSize() — and heavyBytes[o]
     * otherwise.  A granule record covers all of its bytes: each has
     * its heavy bit set and no heavyBytes entry.  Presence is tracked
     * per byte either way.
     */
    struct Page
    {
        explicit Page(unsigned slots)
            : meta(slots), metaPresent(slots, 0)
        {
        }
        uint8_t value[kPageBytes];        // raw byte plane (masked)
        uint64_t present[kMaskWords] = {}; // bit per byte: value recorded
        uint64_t heavy[kMaskWords] = {};   // bit per byte: prov or index
        // Bit per granule: whole-granule record.
        uint64_t whole[kPageBytes / kMinCapSize / 64] = {};
        // Record provenance per granule; empty until the page first
        // holds a record.
        std::vector<Provenance> granuleProv;
        std::map<uint16_t, HeavyInfo> heavyBytes; // residual, by offset
        std::vector<CapMeta> meta;        // one per cap slot
        std::vector<uint8_t> metaPresent;
    };

    /** Mask of @p n bits starting at bit @p b (b + n <= 64, n >= 1). */
    static uint64_t
    spanMask(unsigned b, unsigned n)
    {
        return (~uint64_t(0) >> (64 - n)) << b;
    }

    struct Snapshot; // shared page table copy; defined in store.cc

    /** Existing page or nullptr; never allocates or clones.  The
     *  returned page may be shared — mutate only through touchPage()
     *  or ensureUnique(). */
    Page *findPage(uint64_t index) const;
    /** Uniquely-owned page at @p index: materialises (and counts) a
     *  fresh page, or COW-clones a shared one. */
    Page &touchPage(uint64_t index);
    /** COW-clone @p entry if shared; refreshes the cache.  The
     *  returned reference is uniquely owned. */
    Page &ensureUnique(uint64_t index, std::shared_ptr<Page> &entry);
    /** Drop the heavy out-of-band parts of page offsets [lo, hi):
     *  granule records the span covers only partly are split first,
     *  so the bytes outside it keep their provenance and index. */
    void clearHeavySpan(Page &p, unsigned lo, unsigned hi);
    /** Turn the record of granule @p g (if any) into per-byte
     *  heavyBytes entries. */
    void splitGranule(Page &p, unsigned g);
    /** Make the granule at page offset @p off a record with
     *  provenance @p prov (its values and presence are the caller's):
     *  residual per-byte entries are dropped, an existing record is
     *  overwritten. */
    void
    setGranuleRecord(Page &p, unsigned off, const Provenance &prov)
    {
        unsigned g = off >> capShift_;
        unsigned w = off / 64;
        uint64_t m = spanMask(off % 64, capSize_);
        if ((p.heavy[w] & m) && !isWhole(p, g))
            clearHeavySpan(p, off, off + capSize_);
        p.heavy[w] |= m;
        p.whole[g / 64] |= uint64_t(1) << (g % 64);
        granuleProvs(p)[g] = prov;
    }
    /** @p p's record provenances, allocated on first use. */
    std::vector<Provenance> &
    granuleProvs(Page &p)
    {
        if (p.granuleProv.empty())
            p.granuleProv.resize(slotsPerPage_);
        return p.granuleProv;
    }
    static bool
    isWhole(const Page &p, unsigned g)
    {
        return (p.whole[g / 64] >> (g % 64)) & 1;
    }
    /** The section 3.5 representation-write transition on one
     *  recorded slot; true when the slot actually changed. */
    static bool invalidateSlotMeta(CapMeta &m, bool ghost);

    /** Assemble / decompose one in-page range (no counters).
     *  depositBytes stores a granule-aligned run of capSize() bytes in
     *  the shape of one capability as a granule record. */
    void assembleBytes(const Page *p, unsigned off, unsigned n,
                       AbsByte *out) const;
    void depositBytes(Page &p, unsigned off, unsigned n,
                      const AbsByte *src);

    unsigned slotsPerPage_;
    unsigned capShift_; // log2(capSize_); granule sizes are powers of 2
    std::unordered_map<uint64_t, std::shared_ptr<Page>> pages_;
    // One-entry last-page cache.  Page storage is behind shared_ptr
    // and a map entry is only replaced by a COW clone or restore(),
    // both of which refresh the cache, so the cached pointer stays
    // valid across rehashes.  cachedWritable_ records that the cached
    // page was uniquely owned when cached; snapshot() clears it (every
    // page becomes shared), so a stale `true` is impossible.
    mutable uint64_t cachedIndex_ = ~uint64_t(0);
    mutable Page *cachedPage_ = nullptr;
    mutable bool cachedWritable_ = false;
    // Sticky-true once snapshot() has ever run.  While false, no page
    // can be aliased, so every COW check (a use_count() load that
    // touches the shared_ptr control block) short-circuits and the
    // write path is identical to the pre-COW store.  It never returns
    // to false: we don't track snapshot lifetimes, and the cost once
    // snapshots exist is the COW price by design.
    mutable bool maybeShared_ = false;
    uint64_t cowClones_ = 0;
};

/** Factory used by MemoryModel::Config. */
std::unique_ptr<AbstractStore> makeStore(StoreBackend backend,
                                         unsigned cap_size);

/** Backend name for diagnostics / benchmark labels. */
const char *storeBackendName(StoreBackend backend);

} // namespace cherisem::mem

#endif // CHERISEM_MEM_STORE_H
