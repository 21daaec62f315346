/**
 * @file
 * mem::memStatsJson (the `cherisem_run --stats-json` payload, schema
 * "cherisem-stats-v2"): the
 * rendered document must parse with the serving layer's JSON parser
 * and carry every counter group — semantic, heap (with the active
 * allocator's name, including the slab-reclamation counters), store,
 * and revocation — so CI and the coverage runner consume the
 * `--stats` numbers without scraping text.
 */
#include <gtest/gtest.h>

#include "cap/cc128.h"
#include "mem/memory_model.h"
#include "mem/stats_json.h"
#include "serve/json.h"

namespace cherisem::mem {
namespace {

TEST(StatsJson, ParsesAndMirrorsTheCounters)
{
    MemoryModel::Config cfg;
    cfg.heapAllocator = HeapAllocatorKind::Sizeclass;
    cfg.revoke.policy = revoke::RevokePolicy::Eager;
    MemoryModel mm(cfg);
    auto p = mm.allocateRegion("malloc", 64, 16).value();
    auto q = mm.allocateRegion("malloc", 64, 16).value();
    ASSERT_TRUE(mm.kill({}, true, p).ok());
    ASSERT_TRUE(mm.kill({}, true, q).ok());

    std::string json =
        memStatsJson(mm.stats(), HeapAllocatorKind::Sizeclass);
    serve::Json doc;
    std::string err;
    ASSERT_TRUE(serve::parseJson(json, &doc, &err)) << err << "\n"
                                                    << json;

    EXPECT_EQ(doc.get("allocations")->asU64(), 2u);
    EXPECT_EQ(doc.get("kills")->asU64(), 2u);

    const serve::Json *heap = doc.get("heap");
    ASSERT_NE(heap, nullptr);
    EXPECT_EQ(heap->get("allocator")->asString(), "sizeclass");
    EXPECT_EQ(heap->get("malloc_calls")->asU64(), 2u);
    EXPECT_EQ(heap->get("frees")->asU64(), 2u);
    EXPECT_EQ(heap->get("slabs_carved")->asU64(), 1u);
    // Both slots freed: the bump slab is kept (it still has space),
    // so nothing reclaims here — but the fields must exist for the
    // schema's consumers.
    ASSERT_NE(heap->get("slabs_reclaimed"), nullptr);
    ASSERT_NE(heap->get("chunks_recycled"), nullptr);
    EXPECT_EQ(heap->get("bytes_requested")->asU64(), 128u);

    const serve::Json *store = doc.get("store");
    ASSERT_NE(store, nullptr);
    ASSERT_NE(store->get("bytes_written"), nullptr);

    const serve::Json *rv = doc.get("revoke");
    ASSERT_NE(rv, nullptr);
    // Eager policy: each free sweeps immediately.
    EXPECT_EQ(rv->get("sweeps")->asU64(), 2u);
    EXPECT_EQ(rv->get("pending_regions")->asU64(), 0u);
}

TEST(StatsJson, IndentEmbedsInsideALargerDocument)
{
    MemStats zero;
    std::string inner =
        memStatsJson(zero, HeapAllocatorKind::FirstFit, "  ");
    // The shape of one cherisem-stats-v2 "runs" entry.
    std::string doc = "{\n  \"profile\": \"cerberus\",\n  \"mem\":\n" +
        inner + "\n}";
    serve::Json parsed;
    std::string err;
    ASSERT_TRUE(serve::parseJson(doc, &parsed, &err)) << err << "\n"
                                                      << doc;
    EXPECT_EQ(parsed.get("engine"), nullptr);
    const serve::Json *mem = parsed.get("mem");
    ASSERT_NE(mem, nullptr);
    EXPECT_EQ(mem->get("heap")->get("allocator")->asString(),
              "firstfit");
    EXPECT_EQ(mem->get("loads")->asU64(), 0u);
}

} // namespace
} // namespace cherisem::mem
