/**
 * @file
 * The CHERI C memory object model (section 4.3 of the paper).
 *
 * State, mirroring the Coq development:
 *
 *     mem_state  =  A x S x M          M = B x C
 *     A : AllocId -> Allocation        (footprints, liveness, exposure)
 *     S : iota table                   (PNVI-ae-udi symbolic provenance)
 *     B : Addr -> AbsByte              (provenance, byte, pointer index)
 *     C : Addr -> bool x ghost_state   (per-capability-slot tag + 2-bit
 *                                       ghost state)
 *
 * The M component lives behind the AbstractStore interface
 * (mem/store.h): all byte and capability-metadata access in the model
 * goes through its range-based primitives, with the concrete backend
 * (reference MapStore vs the default PagedStore) selected by
 * Config::storeBackend.
 *
 * All operations run in the Result-based error monad; undefined
 * behaviour is reported as a Failure rather than executed.
 *
 * The Config block captures the axes on which the concrete CHERI C
 * implementations compared in section 5 differ from the abstract
 * reference semantics: whether ghost state exists (vs deterministic
 * hardware tag clearing), whether PNVI provenance/liveness is checked
 * (hardware without revocation does not trap temporal violations), and
 * the allocator's address layout (which determines the Appendix A
 * non-representability behaviour).
 */
#ifndef CHERISEM_MEM_MEMORY_MODEL_H
#define CHERISEM_MEM_MEMORY_MODEL_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cap/capability.h"
#include "ctype/layout.h"
#include "mem/heap_alloc.h"
#include "mem/mem_value.h"
#include "mem/provenance.h"
#include "mem/store.h"
#include "mem/ub.h"
#include "obs/tracer.h"
#include "revoke/revocation.h"

namespace cherisem::mem {

/** Kinds of allocation, for diagnostics and free() checking. */
enum class AllocKind { Object, Region, Code };

/** One entry of the A table. */
struct Allocation
{
    uint64_t base = 0;
    uint64_t size = 0;
    unsigned align = 1;
    AllocKind kind = AllocKind::Object;
    /** Variable name / "malloc" — diagnostic prefix. */
    std::string prefix;
    bool alive = true;
    /** PNVI-ae: address has been exposed by a pointer-to-int cast. */
    bool exposed = false;
    /** Object created at a const-qualified type (section 3.9). */
    bool readOnly = false;

    bool
    containsFootprint(uint64_t a, uint64_t n) const
    {
        return base <= a && a + n <= base + size;
    }
    /** Within [base, base+size] including the one-past address. */
    bool
    containsForArith(uint64_t a) const
    {
        return base <= a && a <= base + size;
    }
};

/** Relational operators on pointers. */
enum class RelOp { Lt, Gt, Le, Ge };

/** Memory-model counters: reported by `cherisem_run --stats` and
 *  `--stats-json`, the serve responses and perfbench. */
struct MemStats
{
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t allocations = 0;
    uint64_t kills = 0;
    uint64_t ghostTagInvalidations = 0;
    uint64_t hardTagInvalidations = 0;
    uint64_t iotasCreated = 0;
    /** Heap-allocator counters (placements, freelist/slab reuse,
     *  slabs carved, exhaustions), mirrored from the active
     *  HeapAllocator policy. */
    HeapStats heap;
    /** Store-layer counters (page allocations, range ops, byte
     *  totals), mirrored from the active AbstractStore backend. */
    StoreStats store;
    /** Revocation-engine counters (sweeps, slots visited, tags
     *  revoked, quarantine occupancy), mirrored from the engine. */
    revoke::RevokeStats revoke;
};

/**
 * A fork of the whole (A, S, (B, C)) machine state at one instant:
 * the allocations map, iota table, store contents (COW page table for
 * PagedStore), revocation-engine state (quarantine queue + shadow
 * bitmap), allocator cursors and free list, the function-address map,
 * and every deterministic counter.  Immutable once taken; restorable
 * any number of times, into the model that took it or into another
 * model with the same Config (modulo traceSink).  Cost: O(pages
 * touched since the snapshot) on the Paged backend.
 */
struct MemorySnapshot
{
    StoreSnapshotPtr store;
    std::vector<Allocation> allocations; // A, by id - 1
    IotaTable iotas;
    /** Engaged iff the source model had a revocation engine. */
    std::optional<revoke::RevocationEngine::Snapshot> revoke;
    uint64_t globalPtr = 0;
    uint64_t stackPtr = 0;
    uint64_t codePtr = 0;
    /** The heap placement policy's whole state (cursor, free lists /
     *  slab freelists, live-slot registry, counters). */
    HeapSnapshot heap;
    std::map<uint64_t, uint32_t> functionsByAddr;
    MemStats stats;
};

using MemorySnapshotPtr = std::shared_ptr<const MemorySnapshot>;

/**
 * The memory object model.  One instance per abstract-machine run.
 */
class MemoryModel
{
  public:
    struct Config
    {
        const cap::CapArch *arch = &cap::morello();
        /** Abstract ghost state (reference semantics) vs deterministic
         *  hardware tag clearing. */
        bool ghostState = true;
        /** PNVI provenance + liveness checks (the reference abstract
         *  machine); hardware profiles run with this off and rely on
         *  capability checks only (section 3.11). */
        bool checkProvenance = true;
        /** Flag reads of uninitialized memory (paper load rule 2g). */
        bool readUninitIsUb = true;
        /** Enforce the strict ISO one-past rule for pointer
         *  arithmetic (section 3.2 option (a)). */
        bool strictPtrArith = true;
        /** Check natural alignment on scalar access. */
        bool checkAlignment = true;
        /** Narrow capabilities to sub-object bounds on member access
         *  (the stricter opt-in mode of section 3.8; off by default,
         *  matching CHERI C). */
        bool subobjectBounds = false;
        /** CHERIoT-style temporal safety (sections 3.10, 5.4, 7):
         *  stored capabilities pointing into freed regions have
         *  their tags cleared by the revocation engine.  The policy
         *  picks *when*: Eager sweeps on every free; Quarantine
         *  batches frees (reuse of the footprint forbidden until
         *  swept) and sweeps when the quarantine fills; Manual
         *  sweeps only on flushQuarantine().  Off (the default)
         *  disables the engine. */
        revoke::RevokeConfig revoke;
        /** Concrete backend for the M = B x C store.  Paged is the
         *  default everywhere; Map is the reference oracle used by
         *  the store-equivalence and differential tests. */
        StoreBackend storeBackend = StoreBackend::Paged;
        /** Execution-witness sink (src/obs/).  Null (the default)
         *  disables tracing; the model, the evaluator, and the
         *  driver all emit their semantic events here. */
        obs::TraceSink *traceSink = nullptr;
        /** Heap placement policy (DESIGN.md, "Heap allocator
         *  model"): the original first-fit free list, or the
         *  snmalloc-style sizeclass slab allocator.  UB-free
         *  programs behave identically under both; which reuse /
         *  adjacency violations are observable differs (the fuzzer's
         *  allocator axis). */
        HeapAllocatorKind heapAllocator = HeapAllocatorKind::FirstFit;

        // Address-space layout (drives the Appendix A differences).
        uint64_t globalBase = 0x0000000000010000ull;
        uint64_t heapBase = 0x0000000001000000ull;
        uint64_t stackBase = 0x00000000ffffe700ull; // grows down
        uint64_t codeBase = 0x0000000000001000ull;
        /** Exclusive end of the heap arena; 0 derives it from the
         *  layout (stackBase minus a 16 MiB stack reserve, clamped
         *  to the address space).  A placement that would cross the
         *  limit makes malloc return NULL instead of carving a
         *  footprint whose encoded bounds overlap a neighbour. */
        uint64_t heapLimit = 0;
    };

    explicit MemoryModel(Config config);

    const Config &config() const { return config_; }
    const cap::CapArch &arch() const { return *config_.arch; }
    const ctype::LayoutEngine &layout() const { return layout_; }
    void setTagTable(const ctype::TagTable *tags);
    const MemStats &stats() const
    {
        stats_.heap = heap_->stats();
        stats_.store = store_->stats();
        stats_.revoke =
            revoker_ ? revoker_->stats() : revoke::RevokeStats{};
        return stats_;
    }
    /** The active heap placement policy (introspection / tests). */
    const HeapAllocator &heapAllocator() const { return *heap_; }
    /** The active store backend (introspection / benchmarks). */
    const AbstractStore &store() const { return *store_; }
    /** The execution-witness handle (disabled when Config::traceSink
     *  is null); the evaluator shares it for its own events. */
    const obs::Tracer &tracer() const { return tracer_; }
    /** The temporal-safety engine; null when Config::revoke is Off. */
    const revoke::RevocationEngine *revoker() const
    {
        return revoker_.get();
    }
    /** Force an epoch sweep of the quarantine (the Manual policy's
     *  trigger; also usable under Quarantine).  Returns the number of
     *  tags cleared; no-op (0) when revocation is off or the
     *  quarantine is empty. */
    uint64_t flushQuarantine()
    {
        return revoker_ ? revoker_->flush() : 0;
    }

    /// @name Snapshot / restore (state forking).
    /// @{
    /** Fork the whole (A, S, (B, C)) state, including revocation
     *  state and counters.  O(pages) refcount bumps on the Paged
     *  backend. */
    MemorySnapshotPtr snapshot() const;
    /** Rewind to @p snap.  Afterwards the model is bit-identical —
     *  contents, capability metadata, quarantine, and every
     *  deterministic counter — to the moment the snapshot was taken,
     *  as if the run in between never happened. */
    void restore(const MemorySnapshotPtr &snap);
    /// @}

    /// @name Allocation (create/kill), Cerberus interface.
    /// @{
    /** Create an object allocation (variable); returns a pointer with
     *  fresh provenance and a capability spanning exactly (or, for
     *  large objects, the representable rounding of) its footprint. */
    MemResult<PointerValue> allocateObject(const std::string &prefix,
                                           const ctype::TypeRef &ty,
                                           bool read_only,
                                           bool is_static);
    /** Create a region allocation (malloc). */
    MemResult<PointerValue> allocateRegion(const std::string &prefix,
                                           uint64_t size,
                                           unsigned align);
    /** End an allocation's lifetime. @p dyn distinguishes free() from
     *  scope exit, with the corresponding extra checks. */
    MemResult<Unit> kill(const SourceLoc &loc, bool dyn,
                         const PointerValue &p);
    MemResult<PointerValue> reallocRegion(const SourceLoc &loc,
                                          const PointerValue &p,
                                          uint64_t new_size);
    /// @}

    /// @name Typed access.
    /// @{
    MemResult<MemValue> load(const SourceLoc &loc, const ctype::TypeRef &ty,
                             const PointerValue &p);
    /** @p initializing bypasses the read-only-object check (the
     *  defining store of a const object / string literal). */
    MemResult<Unit> store(const SourceLoc &loc, const ctype::TypeRef &ty,
                          const PointerValue &p, const MemValue &v,
                          bool initializing = false);
    /// @}

    /// @name Pointer operations.
    /// @{
    /** p + idx*sizeof(elem), with the strict ISO footprint check
     *  (section 3.2) and hardware representability behaviour. */
    MemResult<PointerValue> arrayShift(const SourceLoc &loc,
                                       const PointerValue &p,
                                       const ctype::TypeRef &elem,
                                       __int128 idx);
    /** &(p->member): offset within a struct/union; @p index is the
     *  member's position in the definition. */
    PointerValue memberShift(const PointerValue &p, ctype::TagId tag,
                             uint32_t index) const;
    /** Pointer equality: addresses only (section 3.6). */
    MemResult<bool> ptrEq(const PointerValue &a, const PointerValue &b);
    /** Relational comparison; requires same provenance. */
    MemResult<bool> ptrRelational(const SourceLoc &loc, RelOp op,
                                  const PointerValue &a,
                                  const PointerValue &b);
    /** Pointer subtraction; requires same provenance. */
    MemResult<IntegerValue> ptrDiff(const SourceLoc &loc,
                                    const ctype::TypeRef &elem,
                                    const PointerValue &a,
                                    const PointerValue &b);
    /** Can @p p be dereferenced (for the tests' probe helper)? */
    bool validForDeref(const PointerValue &p, uint64_t size) const;
    /// @}

    /// @name Pointer/integer conversions (sections 2.3, 3.3).
    /// @{
    /** Cast pointer to integer: exposes the allocation (PNVI-ae); to
     *  (u)intptr_t the whole capability is preserved. */
    MemResult<IntegerValue> intFromPtr(const SourceLoc &loc,
                                       ctype::IntKind dst,
                                       const PointerValue &p);
    /** Cast integer to pointer: (u)intptr_t is a capability no-op;
     *  pure integers attach provenance per PNVI-ae-udi and produce an
     *  untagged (null-derived) capability. */
    MemResult<PointerValue> ptrFromInt(const SourceLoc &loc,
                                       const IntegerValue &iv);
    /// @}

    /// @name Bulk operations (capability-preserving, section 3.5).
    /// @{
    MemResult<Unit> memcpyOp(const SourceLoc &loc, const PointerValue &dst,
                             const PointerValue &src, uint64_t n);
    /** memmove: like memcpyOp but overlap is permitted (both the
     *  abstract bytes and the capability metadata are staged through
     *  temporaries). */
    MemResult<Unit> memmoveOp(const SourceLoc &loc, const PointerValue &dst,
                              const PointerValue &src, uint64_t n);
    MemResult<IntegerValue> memcmpOp(const SourceLoc &loc,
                                     const PointerValue &a,
                                     const PointerValue &b, uint64_t n);
    MemResult<Unit> memsetOp(const SourceLoc &loc, const PointerValue &dst,
                             uint8_t byte, uint64_t n,
                             bool initializing = false);
    /// @}

    /// @name Function pointers.
    /// @{
    /** Register function @p id; returns its sentry capability
     *  pointer. */
    PointerValue makeFunctionPointer(uint32_t func_id,
                                     const std::string &name);
    /** Which function lives at @p addr (for indirect calls)? */
    std::optional<uint32_t> functionAt(uint64_t addr) const;
    /// @}

    /// @name Stack discipline (used by the evaluator's frames).
    /// @{
    uint64_t stackSave() const { return stackPtr_; }
    void stackRestore(uint64_t sp) { stackPtr_ = sp; }
    /// @}

    /// @name Introspection (tests, intrinsics, formatting).
    /// @{
    const Allocation *findAllocation(AllocId id) const { return allocAt(id); }
    /** Resolve a (possibly iota) provenance to a concrete allocation
     *  without collapsing it; empty optional when unresolvable. */
    std::optional<AllocId> peekProvenance(const Provenance &p) const;
    /** Raw byte read (no checks) — used by tests and formatting. */
    std::optional<uint8_t> peekByte(uint64_t addr) const;
    /** Raw capability-slot metadata (no checks). */
    CapMeta peekCapMeta(uint64_t addr) const;
    size_t liveAllocationCount() const;
    /// @}

  private:
    /** Result of the access-path checks: the resolved allocation. */
    struct AccessInfo
    {
        AllocId alloc = 0;
        bool haveAlloc = false;
    };

    /** @name Fast-path scalar pipeline (src/mem/fast_path.cc)
     *  load()/store() live in fast_path.cc: they run fastGuard() and,
     *  for clean scalar accesses, serve the access inline against the
     *  store's readScalarClean/writeScalarClean range primitives;
     *  anything else falls back to slowLoad()/slowStore() — the full
     *  UB/provenance rules in load_store.cc.  The guard is strictly
     *  stronger than accessCheck(), so taking the shortcut can never
     *  change an outcome — it only skips re-deriving what the guard
     *  already proved.
     *  @{ */
    /** The full load rule (load_store.cc); @p n / @p align are the
     *  footprint the dispatcher already computed. */
    MemResult<MemValue> slowLoad(const SourceLoc &loc, const ctype::TypeRef &ty,
                                 const PointerValue &p, uint64_t n,
                                 unsigned align);
    /** The full store rule (load_store.cc). */
    MemResult<Unit> slowStore(const SourceLoc &loc, const ctype::TypeRef &ty,
                              const PointerValue &p, const MemValue &v,
                              bool initializing, uint64_t n,
                              unsigned align);
    /** Run the fast-path guard for an @p n byte access at @p p;
     *  returns the resolved live allocation, or null (take the slow
     *  path). */
    const Allocation *fastGuard(const PointerValue &p, uint64_t n,
                                unsigned align, bool want_store);
    /// @}
    /** A's entry for @p id; null for id 0 or an id restore() rewound.
     *  The pointer is invalidated by the next allocate(). */
    const Allocation *allocAt(AllocId id) const
    {
        return id - 1 < allocations_.size() ? &allocations_[id - 1] : nullptr;
    }
    Allocation *allocAt(AllocId id)
    {
        return const_cast<Allocation *>(std::as_const(*this).allocAt(id));
    }

    /** The paper's bounds_check + PNVI checks for an @p n byte access
     *  at @p p; @p want_store selects the permission/readonly checks;
     *  @p initializing skips the read-only-object check. */
    MemResult<AccessInfo> accessCheck(const SourceLoc &loc,
                                      const PointerValue &p, uint64_t n,
                                      unsigned align_req,
                                      bool want_store,
                                      bool initializing = false);

    /** Collapse/resolve provenance for an access footprint. */
    MemResult<AccessInfo> resolveForAccess(const SourceLoc &loc,
                                           const Provenance &prov,
                                           uint64_t addr, uint64_t n);

    /** PNVI-ae-udi attach: provenance for address @p a from exposed
     *  live allocations (possibly an iota). */
    Provenance attachProvenance(uint64_t a);

    void exposeAllocation(AllocId id);
    void exposeByteProvenance(const AbsByte &b);

    /** Capability metadata at @p addr packed for a Load/Store trace
     *  event (0 when the footprint is not one whole aligned slot). */
    uint64_t packedCapMeta(uint64_t addr, uint64_t n) const;

    /** Write a capability's bytes+metadata at (aligned) @p addr. */
    void writeCapability(uint64_t addr, const Capability &c,
                         const Provenance &prov);
    /** Invalidate capability metadata overlapping [addr, addr+n):
     *  ghost "tag unspecified" in the abstract semantics,
     *  deterministic tag clear in hardware mode (section 3.5). */
    void invalidateCapMeta(uint64_t addr, uint64_t n);
    /** Shared memcpy/memmove body: copy abstract bytes and carry or
     *  invalidate capability metadata per the section 3.5 rules.
     *  Overlap-safe (all source state is staged before any write). */
    void copyBytesAndMeta(uint64_t dst, uint64_t src, uint64_t n);

    /** repr(): serialize @p v (of type @p ty) into bytes/metadata at
     *  @p addr. */
    MemResult<Unit> reprValue(const SourceLoc &loc, uint64_t addr,
                              const ctype::TypeRef &ty,
                              const MemValue &v);
    /** abst(): reconstruct a value of @p ty from bytes at @p addr. */
    MemResult<MemValue> abstValue(const SourceLoc &loc, uint64_t addr,
                                  const ctype::TypeRef &ty);
    /** abst()'s byte staging: read @p n abstract bytes at @p addr into
     *  @p out.  False when some byte is uninitialised and the profile
     *  makes that observable; otherwise (hardware view) missing values
     *  read as 0 and the result is true. */
    bool stageBytes(uint64_t addr, uint64_t n, AbsByte *out);
    /** abst() of a capability representation (pointer or capability
     *  integer, @p n bytes at @p addr).  @p prov becomes the
     *  provenance all bytes share when they are a verbatim capability
     *  representation, else empty (section 3.5).  nullopt exactly when
     *  stageBytes() would return false. */
    std::optional<Capability> abstCap(uint64_t addr, uint64_t n,
                                      Provenance &prov);

    MemResult<PointerValue> allocate(const std::string &prefix,
                                     uint64_t size, unsigned align,
                                     AllocKind kind, bool read_only,
                                     bool is_static);

    uint64_t alignUp(uint64_t v, uint64_t a) const;

    Config config_;
    obs::Tracer tracer_;
    ctype::TagTable emptyTags_;
    ctype::LayoutEngine layout_;

    std::unique_ptr<AbstractStore> store_;       // M = B x C
    /** A, indexed by id - 1: ids are dense from 1 (the next is
     *  size() + 1) and never erased (kill() flips `alive`); restore()
     *  truncates it, so rewound ids are reused.  allocate() appends,
     *  invalidating pointers into it: reallocRegion() copies what it
     *  needs first, makeFunctionPointer() ends its scan first, and no
     *  other holder allocates. */
    std::vector<Allocation> allocations_;
    IotaTable iotas_;                            // S
    /** Temporal-safety engine (src/revoke/); null when off.
     *  Declared after store_ — it holds a reference into it. */
    std::unique_ptr<revoke::RevocationEngine> revoker_;

    uint64_t globalPtr_;
    uint64_t stackPtr_;
    uint64_t codePtr_;
    /** Lowest address the stack may grow down to (derived from the
     *  layout); descending past it is a constraint failure, not a
     *  footprint overlapping the heap. */
    uint64_t stackFloor_ = 0;
    /** Region (malloc) placement policy — first-fit free list or
     *  sizeclass slabs — selected by Config::heapAllocator.  Owns
     *  the free lists that enable use-after-free scenarios
     *  (section 3.11). */
    std::unique_ptr<HeapAllocator> heap_;

    std::map<uint64_t, uint32_t> functionsByAddr_;

    /** Mutable so stats() can mirror the store counters on read. */
    mutable MemStats stats_;

    /** store_ downcast when it is the (final) PagedStore, else null:
     *  lets the fast path call the inline scalar primitives directly
     *  instead of through the vtable. */
    PagedStore *pagedStore_ = nullptr;
};

} // namespace cherisem::mem

#endif // CHERISEM_MEM_MEMORY_MODEL_H
