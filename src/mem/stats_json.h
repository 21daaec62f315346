/**
 * @file
 * JSON rendering of the memory-model counters (MemStats, including
 * the heap-allocator and revocation-engine mirrors), so tooling —
 * `cherisem_run --stats-json`, the coverage runner, CI — can consume
 * the `--stats` numbers without scraping text.  The output parses
 * with serve::parseJson and is stable under the
 * "cherisem-stats-v2" schema: every counter is a JSON number field
 * whose name is the snake_case of the struct member.
 */
#ifndef CHERISEM_MEM_STATS_JSON_H
#define CHERISEM_MEM_STATS_JSON_H

#include <string>

#include "mem/memory_model.h"

namespace cherisem::mem {

/** Render @p stats as one JSON object: top-level semantic counters
 *  plus "heap" (with the active allocator's name), "store", and
 *  "revoke" sub-objects.  @p indent prefixes every line (the caller
 *  embeds the object into a larger document). */
std::string memStatsJson(const MemStats &stats,
                         HeapAllocatorKind heapKind,
                         const std::string &indent = "");

} // namespace cherisem::mem

#endif // CHERISEM_MEM_STATS_JSON_H
