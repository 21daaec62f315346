/**
 * @file
 * Profile-gated "compiler optimisation" passes.
 *
 * The paper's central tension (sections 3.1, 3.2, 3.5) is that real
 * CHERI C compilers transform programs in ways the abstract machine
 * must license: collapsing transiently out-of-bounds arithmetic,
 * removing identity representation writes, and rewriting byte-copy
 * loops into (tag-preserving) memcpy.  These passes reproduce those
 * transformations on the typed AST so the -O2-style profiles observe
 * the same divergences the paper reports.
 */
#ifndef CHERISEM_CORELANG_OPTIMIZE_H
#define CHERISEM_CORELANG_OPTIMIZE_H

#include "sema/sema.h"

namespace cherisem::corelang {

struct OptimizeOptions
{
    /** Collapse (p + c1) - c2 on capability-carrying values into
     *  p + (c1-c2), eliminating a transient non-representability
     *  excursion (section 3.2). */
    bool foldTransientArith = false;
    /** Remove p[i] = p[i] style identity stores (dead-store
     *  elimination over representation bytes, section 3.5). */
    bool elideIdentityWrites = false;
    /** Rewrite byte-copy loops into a single memcpy call (GCC's
     *  tree-loop-distribute-patterns, section 3.5) — which at the
     *  hardware level *preserves* capability tags. */
    bool loopsToMemcpy = false;
};

/** What the passes did: returned in driver::RunResult and the serve
 *  cache entry, and summed by perfbench as optimize.rewrites. */
struct OptimizeStats
{
    unsigned foldedArith = 0;
    unsigned elidedWrites = 0;
    unsigned loopsRewritten = 0;
};

/** Run the enabled passes over @p prog in place. */
OptimizeStats optimize(sema::Program &prog,
                       const OptimizeOptions &opts);

} // namespace cherisem::corelang

#endif // CHERISEM_CORELANG_OPTIMIZE_H
