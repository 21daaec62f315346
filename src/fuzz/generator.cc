/**
 * @file
 * Seeded MiniC program generator (see generator.h for the contract).
 *
 * Implementation notes:
 *
 *  - All randomness comes from a private SplitMix64 stream, so a seed
 *    reproduces byte-identical source on every platform (the golden
 *    test relies on this).
 *  - The symbol table tracks, per heap region: element count,
 *    liveness, and whether every element has been written.  UB-free
 *    mode only emits accesses the table proves valid; derived
 *    pointers (round trips, bounds-narrowed views) live in their own
 *    { } block and never outlive the statement that made them, so a
 *    later free/realloc cannot turn them stale.
 *  - The sink discipline (see header): nothing address-dependent is
 *    ever added to `sink`.
 */
#include "fuzz/generator.h"

#include <algorithm>
#include <set>
#include <vector>

namespace cherisem::fuzz {

namespace {

/** SplitMix64: tiny, deterministic, well-distributed. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : s_(seed + 0x9e3779b97f4a7c15ull) {}

    uint64_t
    next()
    {
        uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    /** Uniform in [0, n). */
    uint64_t below(uint64_t n) { return n ? next() % n : 0; }
    /** Uniform in [lo, hi]. */
    uint64_t
    range(uint64_t lo, uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }
    bool chance(unsigned pct) { return below(100) < pct; }

  private:
    uint64_t s_;
};

struct HeapPtr
{
    std::string name;
    unsigned elems = 0;   ///< int elements
    bool alive = true;
    bool initialized = false;
    /** Freed but not nulled (allowUb corpora only). */
    bool dangling = false;
};

struct StackArr
{
    std::string name;
    unsigned elems = 0;
};

class Gen
{
  public:
    explicit Gen(const GenOptions &opts)
        : opts_(opts), rng_(opts.seed)
    {
    }

    std::string
    run()
    {
        emitStmt(declArr());
        emitStmt(mallocStmt());
        unsigned emitted = 2;
        while (emitted < opts_.numStmts) {
            if (emitStmt(pickStmt()))
                ++emitted;
        }
        if (opts_.forkPrefix) {
            // Everything past this point lands in main(), executing
            // after the fork driver restored the post-prelude
            // snapshot and poked __variant.
            inSuffix_ = true;
            unsigned sfx = 0;
            while (sfx < opts_.suffixStmts) {
                if (emitStmt(pickStmt()))
                    ++sfx;
            }
        }
        // Free what's still live (UB-free mode leaks nothing; the
        // trace-differential then also covers the frees).
        std::string tail;
        for (HeapPtr &p : ptrs_) {
            if (p.alive)
                tail += "  free(" + p.name + ");\n";
            p.alive = false;
        }

        std::string out;
        out += "// cherisem_fuzz seed=" + std::to_string(opts_.seed) +
            (opts_.allowUb ? " mode=ub-allowed" : " mode=ub-free") +
            (opts_.forkPrefix ? " fork" : "") + "\n";
        if (opts_.attackTemplates) {
            // The annotation block the reducer preserves through
            // shrinking (reduce.cc): which catalog techniques this
            // program exercises.
            out += "// @ATTACK-TEMPLATES:";
            if (fired_.empty())
                out += " none";
            for (const std::string &f : fired_)
                out += " " + f;
            out += "\n";
        }
        out += "#include <stdint.h>\n";
        out += "#include <stdlib.h>\n";
        out += "#include <string.h>\n";
        out += "struct S { long a; int b[4]; int *p; };\n";
        out += "union U { unsigned long l; unsigned int w[2]; };\n";
        if (opts_.forkPrefix) {
            // Fork shape: state lives at file scope so it survives
            // __prelude()'s frame and is captured by the snapshot;
            // main() folds the poked variant into the sink first so
            // every variant's observable behaviour differs.
            out += "unsigned long sink;\n";
            out += "long __variant;\n";
            out += globals_;
            out += "void __prelude(void) {\n";
            out += body_;
            out += "}\n";
            out += "int main(void) {\n";
            out += "  sink += (unsigned long)(__variant * 17 + 3);\n";
            out += "  if ((__variant & 1) == 1) {\n";
            out += "    sink ^= 29u;\n";
            out += "  }\n";
            out += suffix_;
            out += tail;
            out += "  return (int)(sink % 256u);\n";
            out += "}\n";
            return out;
        }
        out += "int main(void) {\n";
        out += "  unsigned long sink = 0;\n";
        out += body_;
        out += tail;
        out += "  return (int)(sink % 256u);\n";
        out += "}\n";
        return out;
    }

  private:
    GenOptions opts_;
    Rng rng_;
    std::string body_;
    /** Fork shape only: file-scope declarations and the main()
     *  statements after the variant mix. */
    std::string globals_;
    std::string suffix_;
    bool inSuffix_ = false;
    unsigned id_ = 0;
    std::vector<HeapPtr> ptrs_;
    std::vector<StackArr> arrs_;
    std::vector<std::string> ints_;
    /** Attack-template modes that fired (sorted, for the header). */
    std::set<std::string> fired_;

    std::string fresh(const char *prefix)
    {
        return prefix + std::to_string(id_++);
    }
    std::string num(uint64_t lo, uint64_t hi)
    {
        return std::to_string(rng_.range(lo, hi));
    }

    bool
    emitStmt(const std::string &s)
    {
        if (s.empty())
            return false;
        (inSuffix_ ? suffix_ : body_) += s;
        return true;
    }

    /** Fork shape: declarations are hoisted to file scope (so the
     *  snapshot carries them) and the statement only assigns. */
    void
    hoist(const std::string &decl)
    {
        globals_ += decl;
    }

    /** A live heap pointer, or null. */
    HeapPtr *
    livePtr(bool need_init = false)
    {
        std::vector<HeapPtr *> live;
        for (HeapPtr &p : ptrs_)
            if (p.alive && (!need_init || p.initialized))
                live.push_back(&p);
        if (live.empty())
            return nullptr;
        return live[rng_.below(live.size())];
    }

    HeapPtr *
    deadPtr()
    {
        std::vector<HeapPtr *> dead;
        for (HeapPtr &p : ptrs_)
            if (!p.alive)
                dead.push_back(&p);
        if (dead.empty())
            return nullptr;
        return dead[rng_.below(dead.size())];
    }

    // ---- UB-free statement templates ----

    std::string
    declInt()
    {
        std::string n = fresh("x");
        ints_.push_back(n);
        std::string v = num(0, 99);
        if (opts_.forkPrefix) {
            hoist("long " + n + ";\n");
            return "  " + n + " = " + v + ";\n";
        }
        return "  long " + n + " = " + v + ";\n";
    }

    std::string
    declArr()
    {
        std::string n = fresh("a");
        unsigned k = static_cast<unsigned>(rng_.range(2, 8));
        std::vector<std::string> init;
        for (unsigned i = 0; i < k; ++i)
            init.push_back(num(0, 50));
        arrs_.push_back({n, k});
        if (opts_.forkPrefix) {
            hoist("int " + n + "[" + std::to_string(k) + "];\n");
            std::string s;
            for (unsigned i = 0; i < k; ++i)
                s += "  " + n + "[" + std::to_string(i) + "] = " +
                    init[i] + ";\n";
            return s;
        }
        std::string list;
        for (unsigned i = 0; i < k; ++i)
            list += (i ? ", " : "") + init[i];
        return "  int " + n + "[" + std::to_string(k) + "] = {" +
            list + "};\n";
    }

    std::string
    mallocStmt()
    {
        std::string n = fresh("p");
        unsigned k = static_cast<unsigned>(rng_.range(2, 8));
        std::string s;
        if (opts_.forkPrefix) {
            hoist("int *" + n + ";\n");
            s = "  " + n + " = malloc(" + std::to_string(k) +
                " * sizeof(int));\n";
        } else {
            s = "  int *" + n + " = malloc(" + std::to_string(k) +
                " * sizeof(int));\n";
        }
        s += "  for (int i = 0; i < " + std::to_string(k) + "; i++) " +
            n + "[i] = " + num(1, 40) + " + i;\n";
        ptrs_.push_back({n, k, true, true});
        return s;
    }

    std::string
    sinkFromInts()
    {
        if (ints_.empty())
            return {};
        const std::string &a = ints_[rng_.below(ints_.size())];
        const std::string &b = ints_[rng_.below(ints_.size())];
        const char *ops[] = {"+", "*", "^", "-"};
        return "  sink += (unsigned long)(" + a + " " +
            ops[rng_.below(4)] + " " + b + " + " + num(1, 9) + ");\n";
    }

    std::string
    heapStore()
    {
        HeapPtr *p = livePtr();
        if (!p)
            return {};
        unsigned j = static_cast<unsigned>(rng_.below(p->elems));
        return "  " + p->name + "[" + std::to_string(j) + "] = " +
            num(1, 60) + ";\n";
    }

    std::string
    heapLoad()
    {
        HeapPtr *p = livePtr(true);
        if (!p)
            return {};
        unsigned j = static_cast<unsigned>(rng_.below(p->elems));
        return "  sink += (unsigned long)" + p->name + "[" +
            std::to_string(j) + "];\n";
    }

    std::string
    arrLoad()
    {
        if (arrs_.empty())
            return {};
        const StackArr &a = arrs_[rng_.below(arrs_.size())];
        unsigned j = static_cast<unsigned>(rng_.below(a.elems));
        return "  sink += (unsigned long)" + a.name + "[" +
            std::to_string(j) + "];\n";
    }

    /** Pointer arithmetic to (at most) one-past; only differences and
     *  comparisons flow into sink — never addresses. */
    std::string
    ptrArithNearBounds()
    {
        HeapPtr *p = livePtr();
        if (!p)
            return {};
        unsigned k = static_cast<unsigned>(rng_.range(1, p->elems));
        std::string t = fresh("q");
        std::string s = "  {\n";
        s += "    int *" + t + " = " + p->name + " + " +
            std::to_string(k) + ";\n";
        s += "    sink += (unsigned long)(" + t + " - " + p->name +
            ");\n";
        s += "    sink += (unsigned long)(" + t + " > " + p->name +
            ");\n";
        if (k > 0 && k <= p->elems && rng_.chance(50) && p->initialized)
            s += "    sink += (unsigned long)" + t + "[-1];\n";
        s += "  }\n";
        return s;
    }

    /** (u)intptr_t round trip: capability preserved, deref legal. */
    std::string
    uintptrRoundTrip()
    {
        HeapPtr *p = livePtr(true);
        if (!p)
            return {};
        unsigned k = static_cast<unsigned>(rng_.below(p->elems));
        std::string u = fresh("u");
        std::string q = fresh("q");
        std::string s = "  {\n";
        s += "    uintptr_t " + u + " = (uintptr_t)" + p->name +
            " + " + std::to_string(4 * k) + ";\n";
        s += "    int *" + q + " = (int *)" + u + ";\n";
        s += "    sink += (unsigned long)(" + q + " == " + p->name +
            " + " + std::to_string(k) + ");\n";
        s += "    sink += (unsigned long)*" + q + ";\n";
        s += "  }\n";
        return s;
    }

    /** Expose via plain integer, re-attach, compare (no deref: the
     *  attached pointer is untagged in CHERI C). */
    std::string
    exposeAttach()
    {
        HeapPtr *p = livePtr();
        if (!p)
            return {};
        std::string l = fresh("l");
        std::string w = fresh("w");
        std::string s = "  {\n";
        s += "    long " + l + " = (long)" + p->name + ";\n";
        s += "    int *" + w + " = (int *)" + l + ";\n";
        s += "    sink += (unsigned long)(" + w + " == " + p->name +
            ");\n";
        s += "    sink += (unsigned long)(cheri_tag_get(" + w +
            ") == 0);\n";
        s += "  }\n";
        return s;
    }

    std::string
    memcpyStmt()
    {
        HeapPtr *dst = livePtr();
        HeapPtr *src = livePtr(true);
        if (!dst || !src || dst == src)
            return {};
        unsigned n = static_cast<unsigned>(
            rng_.range(1, std::min(dst->elems, src->elems)));
        dst->initialized = dst->initialized || n >= dst->elems;
        std::string s = "  memcpy(" + dst->name + ", " + src->name +
            ", " + std::to_string(n) + " * sizeof(int));\n";
        if (src->initialized)
            s += "  sink += (unsigned long)" + dst->name + "[" +
                std::to_string(rng_.below(n)) + "];\n";
        return s;
    }

    std::string
    memmoveOverlap()
    {
        HeapPtr *p = livePtr(true);
        if (!p || p->elems < 2)
            return {};
        unsigned n = p->elems - 1;
        std::string s = "  memmove(" + p->name + " + 1, " + p->name +
            ", " + std::to_string(n) + " * sizeof(int));\n";
        s += "  sink += (unsigned long)" + p->name + "[" +
            std::to_string(rng_.below(p->elems)) + "];\n";
        return s;
    }

    std::string
    reallocStmt()
    {
        HeapPtr *p = livePtr();
        if (!p)
            return {};
        unsigned m = static_cast<unsigned>(rng_.range(1, 10));
        std::string s = "  " + p->name + " = realloc(" + p->name +
            ", " + std::to_string(m) + " * sizeof(int));\n";
        if (m > p->elems || !p->initialized) {
            s += "  for (int i = " +
                std::to_string(p->initialized ? p->elems : 0) +
                "; i < " + std::to_string(m) + "; i++) " + p->name +
                "[i] = " + num(1, 30) + ";\n";
            p->initialized = true;
        }
        p->elems = m;
        return s;
    }

    std::string
    freeStmt()
    {
        HeapPtr *p = livePtr();
        if (!p)
            return {};
        p->alive = false;
        if (opts_.allowUb && rng_.chance(40)) {
            // Leave the name dangling so the UAF/double-free
            // templates can find it.
            p->dangling = true;
            return "  free(" + p->name + ");\n";
        }
        return "  free(" + p->name + ");\n  " + p->name + " = 0;\n";
    }

    std::string
    intrinsics()
    {
        HeapPtr *p = livePtr();
        if (!p)
            return {};
        switch (rng_.below(5)) {
          case 0:
            return "  sink += (unsigned long)cheri_length_get(" +
                p->name + ");\n";
          case 1:
            return "  sink += (unsigned long)cheri_tag_get(" +
                p->name + ");\n";
          case 2: {
            unsigned k =
                static_cast<unsigned>(rng_.range(0, p->elems));
            return "  sink += (unsigned long)cheri_offset_get(" +
                p->name + " + " + std::to_string(k) + ");\n";
          }
          case 3:
            return "  sink += "
                   "(unsigned long)cheri_representable_length(" +
                num(1, 100000) + ");\n";
          default: {
            if (p->elems < 1)
                return {};
            unsigned j =
                static_cast<unsigned>(rng_.range(1, p->elems));
            std::string t = fresh("b");
            std::string s = "  {\n";
            s += "    int *" + t + " = cheri_bounds_set(" + p->name +
                ", " + std::to_string(j) + " * sizeof(int));\n";
            s += "    " + t + "[" + std::to_string(j - 1) + "] = " +
                num(1, 25) + ";\n";
            s += "    sink += (unsigned long)cheri_length_get(" + t +
                ");\n";
            s += "  }\n";
            return s;
          }
        }
    }

    std::string
    structStmt()
    {
        HeapPtr *p = livePtr();
        std::string v = fresh("s");
        std::string s = "  {\n";
        s += "    struct S " + v + ";\n";
        s += "    " + v + ".a = " + num(1, 90) + ";\n";
        std::string idx = num(0, 3);
        s += "    " + v + ".b[" + idx + "] = " + num(1, 70) + ";\n";
        s += "    " + v + ".p = " + (p ? p->name : "0") + ";\n";
        s += "    sink += (unsigned long)(" + v + ".a + " + v +
            ".b[" + idx + "]);\n";
        if (p)
            s += "    sink += (unsigned long)(" + v + ".p == " +
                p->name + ");\n";
        s += "  }\n";
        return s;
    }

    std::string
    unionStmt()
    {
        std::string v = fresh("v");
        std::string s = "  {\n";
        s += "    union U " + v + ";\n";
        s += "    " + v + ".l = " + num(1, 1000000) + "ul;\n";
        s += "    sink += (unsigned long)" + v + ".w[0];\n";
        s += "    sink += (unsigned long)" + v + ".w[1];\n";
        s += "  }\n";
        return s;
    }

    std::string
    loopStmt()
    {
        if (arrs_.empty())
            return {};
        const StackArr &a = arrs_[rng_.below(arrs_.size())];
        std::string s = "  for (int i = 0; i < " +
            std::to_string(a.elems) + "; i++) {\n";
        s += "    sink += (unsigned long)" + a.name + "[i];\n";
        s += "  }\n";
        return s;
    }

    std::string
    condStmt()
    {
        std::string s = "  if (sink % " + num(2, 7) + "u == " +
            num(0, 1) + "u) {\n";
        s += "    sink += " + num(1, 13) + "u;\n";
        s += "  } else {\n";
        s += "    sink ^= " + num(1, 13) + "u;\n";
        s += "  }\n";
        return s;
    }

    // ---- deliberately-UB templates (allowUb corpora only) ----

    std::string
    ubStmt()
    {
        switch (rng_.below(8)) {
          case 0: { // out-of-bounds write (capability fault)
            HeapPtr *p = livePtr();
            if (!p)
                return {};
            return "  " + p->name + "[" +
                std::to_string(p->elems) + "] = " + num(1, 9) +
                ";\n";
          }
          case 1: { // use after free / double free via dangling name
            HeapPtr *p = deadPtr();
            if (!p || !p->dangling)
                return {};
            if (rng_.chance(50))
                return "  sink += (unsigned long)" + p->name +
                    "[0];\n";
            return "  free(" + p->name + ");\n";
          }
          case 2: { // one-past dereference
            HeapPtr *p = livePtr();
            if (!p)
                return {};
            std::string t = fresh("q");
            return "  {\n    int *" + t + " = " + p->name + " + " +
                std::to_string(p->elems) + ";\n    sink += "
                "(unsigned long)*" + t + ";\n  }\n";
          }
          case 3: { // overlapping memcpy
            HeapPtr *p = livePtr(true);
            if (!p || p->elems < 2)
                return {};
            return "  memcpy(" + p->name + " + 1, " + p->name +
                ", " + std::to_string(p->elems - 1) +
                " * sizeof(int));\n";
          }
          case 4: { // dereference an int-attached (untagged) pointer
            HeapPtr *p = livePtr();
            if (!p)
                return {};
            std::string l = fresh("l");
            std::string w = fresh("w");
            return "  {\n    long " + l + " = (long)" + p->name +
                ";\n    int *" + w + " = (int *)" + l +
                ";\n    sink += (unsigned long)*" + w + ";\n  }\n";
          }
          case 5: { // uninitialised read (reference profile flags it)
            std::string n = fresh("x");
            return "  {\n    long " + n +
                ";\n    sink += (unsigned long)" + n + ";\n  }\n";
          }
          case 6: { // free() of a non-heap pointer
            if (arrs_.empty())
                return {};
            const StackArr &a = arrs_[rng_.below(arrs_.size())];
            return "  free(" + a.name + ");\n";
          }
          default: { // free-then-probe: stale-tag observation + UAF.
            // The probe makes revocation *timing* observable: an
            // eager sweep has already cleared the stale capability
            // held in the variable (tag_get folds 0 into the sink,
            // the load faults with UB_CHERI_InvalidCap), while a
            // quarantine policy leaves the tag alive until the next
            // epoch — the documented eager-vs-quarantine divergence
            // axis the diff runner tolerates in allow-ub mode.
            HeapPtr *p = livePtr();
            if (!p)
                return {};
            p->alive = false;
            p->dangling = true;
            std::string s = "  free(" + p->name + ");\n";
            s += "  sink += (unsigned long)cheri_tag_get(" + p->name +
                ");\n";
            if (rng_.chance(50))
                s += "  sink += (unsigned long)" + p->name + "[0];\n";
            return s;
          }
        }
    }

    // ---- attack templates (GenOptions::attackTemplates) ----
    //
    // The fuzz-side mirror of the attack catalog (src/attack/): the
    // same techniques the annotated suite programs pin, but woven
    // into random programs so the differential axes (backends,
    // profiles, allocators) sweep a much larger state space
    // around them.  In UB-free mode every template is the
    // *remediation* idiom — tag-preserving, address-independent sink
    // folds — so the cross-profile exit-agreement oracle still
    // holds; allowUb adds the forging variants.

    /** Intra-object member writes (attack_01 family).  UB-free stays
     *  inside the member array; allowUb overruns one slot into the
     *  struct's tail padding — inside whole-object bounds, so the
     *  hardware profiles let it through (the residual gap). */
    std::string
    attackIntraObject()
    {
        fired_.insert("intra-object");
        std::string v = fresh("ao");
        unsigned n = (opts_.allowUb && rng_.chance(50)) ? 5 : 4;
        std::string s = "  {\n";
        s += "    struct S " + v + ";\n";
        s += "    " + v + ".a = 0;\n";
        s += "    for (int i = 0; i < " + std::to_string(n) +
            "; i++) {\n";
        s += "      " + v + ".b[i] = " + num(1, 40) + ";\n";
        s += "    }\n";
        s += "    sink += (unsigned long)(" + v + ".a + " + v +
            ".b[" + num(0, 3) + "]);\n";
        s += "  }\n";
        return s;
    }

    /** Pointer through an integer table (vmpit_03/04, attack_05
     *  families).  UB-free: a uintptr_t table preserves the tag (the
     *  remediation); allowUb: an unsigned long table strips it, so
     *  the reconstituted pointer traps deterministically. */
    std::string
    attackIntTable()
    {
        HeapPtr *p = livePtr(true);
        if (!p || p->elems < 1)
            return {};
        fired_.insert("int-table");
        bool forge = opts_.allowUb && rng_.chance(50);
        const char *ity = forge ? "unsigned long" : "uintptr_t";
        std::string t = fresh("tb");
        std::string r = fresh("tr");
        unsigned k = static_cast<unsigned>(rng_.below(p->elems));
        std::string s = "  {\n";
        s += std::string("    ") + ity + " " + t + "[2];\n";
        s += "    " + t + "[0] = (" + ity + ")" + p->name + ";\n";
        s += "    " + t + "[1] = " + t + "[0];\n";
        s += "    int *" + r + " = (int *)" + t + "[1];\n";
        s += "    sink += (unsigned long)(" + r + " == " + p->name +
            ");\n";
        s += "    sink += (unsigned long)" + r + "[" +
            std::to_string(k) + "];\n";
        s += "  }\n";
        return s;
    }

    /** Low-bit tag stuffing (vmpit_01/02 family).  UB-free: stuff,
     *  test, mask, deref on uintptr_t — the tag survives; allowUb:
     *  the same dance through unsigned long loses it. */
    std::string
    attackLowBit()
    {
        HeapPtr *p = livePtr(true);
        if (!p || p->elems < 1)
            return {};
        fired_.insert("lowbit-stuffing");
        bool forge = opts_.allowUb && rng_.chance(50);
        const char *ity = forge ? "unsigned long" : "uintptr_t";
        std::string u = fresh("lb");
        std::string r = fresh("lr");
        unsigned k = static_cast<unsigned>(rng_.below(p->elems));
        std::string s = "  {\n";
        s += std::string("    ") + ity + " " + u + " = (" + ity +
            ")" + p->name + ";\n";
        s += "    " + u + " = " + u + " | 1;\n";
        s += "    sink += (unsigned long)(" + u + " & 1);\n";
        s += "    " + u + " = " + u + " & ~(" + ity + ")1;\n";
        s += "    int *" + r + " = (int *)" + u + ";\n";
        s += "    sink += (unsigned long)" + r + "[" +
            std::to_string(k) + "];\n";
        s += "  }\n";
        return s;
    }

    /** Free-then-scan through a VM root (vmpit_06/07 family).  The
     *  root slot is a struct member holding the capability.  UB-free
     *  scans *before* the free (the safe ordering); allowUb scans
     *  after it — the revocation-timing-observable stale read of the
     *  documented eager-vs-quarantine divergence axis. */
    std::string
    attackFreeThenScan()
    {
        HeapPtr *p = livePtr(true);
        if (!p || p->elems < 1)
            return {};
        fired_.insert("free-then-scan");
        bool stale = opts_.allowUb && rng_.chance(50);
        std::string v = fresh("rt");
        unsigned k = static_cast<unsigned>(rng_.below(p->elems));
        std::string s = "  {\n";
        s += "    struct S " + v + ";\n";
        s += "    " + v + ".p = " + p->name + ";\n";
        if (stale) {
            s += "    free(" + p->name + ");\n";
            s += "    sink += (unsigned long)cheri_tag_get(" + v +
                ".p);\n";
            s += "    sink += (unsigned long)" + v + ".p[" +
                std::to_string(k) + "];\n";
            s += "  }\n";
            p->alive = false;
            p->dangling = true;
            return s;
        }
        s += "    sink += (unsigned long)(" + v + ".p == " + p->name +
            ");\n";
        s += "    sink += (unsigned long)" + v + ".p[" +
            std::to_string(k) + "];\n";
        s += "  }\n";
        s += "  free(" + p->name + ");\n  " + p->name + " = 0;\n";
        p->alive = false;
        return s;
    }

    std::string
    attackStmt()
    {
        switch (rng_.below(4)) {
          case 0: return attackIntraObject();
          case 1: return attackIntTable();
          case 2: return attackLowBit();
          default: return attackFreeThenScan();
        }
    }

    std::string
    pickStmt()
    {
        if (opts_.attackTemplates && rng_.chance(30)) {
            std::string s = attackStmt();
            if (!s.empty())
                return s;
        }
        if (opts_.allowUb && rng_.chance(12))
            return ubStmt();
        switch (rng_.below(17)) {
          case 0: return declInt();
          case 1: return declArr();
          case 2: return mallocStmt();
          case 3: return sinkFromInts();
          case 4: return heapStore();
          case 5: return heapLoad();
          case 6: return arrLoad();
          case 7: return ptrArithNearBounds();
          case 8: return uintptrRoundTrip();
          case 9: return exposeAttach();
          case 10: return memcpyStmt();
          case 11: return memmoveOverlap();
          case 12: return reallocStmt();
          case 13: return freeStmt();
          case 14: return intrinsics();
          case 15: return structStmt();
          default:
            return rng_.chance(40)
                       ? unionStmt()
                       : (rng_.chance(50) ? loopStmt() : condStmt());
        }
    }
};

} // namespace

std::string
generateProgram(const GenOptions &opts)
{
    return Gen(opts).run();
}

} // namespace cherisem::fuzz
