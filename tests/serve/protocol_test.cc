/**
 * @file
 * Tests for the serving layer's JSON parser and wire protocol
 * (src/serve/json.*, src/serve/protocol.*): value parsing, escape
 * handling, hostile-input limits, and request/response round trips.
 */
#include <gtest/gtest.h>

#include "serve/json.h"
#include "serve/protocol.h"

namespace cherisem::serve {
namespace {

Json
parseOk(const std::string &text)
{
    Json j;
    std::string err;
    EXPECT_TRUE(parseJson(text, &j, &err)) << text << ": " << err;
    return j;
}

bool
parseFails(const std::string &text)
{
    Json j;
    std::string err;
    return !parseJson(text, &j, &err);
}

TEST(Json, Scalars)
{
    EXPECT_EQ(parseOk("null").kind, Json::Kind::Null);
    EXPECT_TRUE(parseOk("true").asBool());
    EXPECT_FALSE(parseOk("false").asBool(true));
    EXPECT_EQ(parseOk("42").asU64(), 42u);
    EXPECT_DOUBLE_EQ(parseOk("-3.5").number, -3.5);
    EXPECT_DOUBLE_EQ(parseOk("1e3").number, 1000.0);
    EXPECT_EQ(parseOk("\"hi\"").asString(), "hi");
}

TEST(Json, ExactU64BeyondDoublePrecision)
{
    // Step budgets must survive beyond 2^53.
    Json j = parseOk("18446744073709551615");
    EXPECT_TRUE(j.numberIsU64);
    EXPECT_EQ(j.u64, UINT64_MAX);
    EXPECT_EQ(j.asU64(), UINT64_MAX);
}

TEST(Json, StringEscapes)
{
    EXPECT_EQ(parseOk("\"a\\nb\"").asString(), "a\nb");
    EXPECT_EQ(parseOk("\"q\\\"q\"").asString(), "q\"q");
    EXPECT_EQ(parseOk("\"s\\\\s\"").asString(), "s\\s");
    EXPECT_EQ(parseOk("\"\\u0041\"").asString(), "A");
    // Non-ASCII escape becomes UTF-8.
    EXPECT_EQ(parseOk("\"\\u00e9\"").asString(), "\xc3\xa9");
}

TEST(Json, Containers)
{
    Json j = parseOk("{\"a\":[1,2,{\"b\":true}],\"c\":\"x\"}");
    ASSERT_TRUE(j.isObject());
    const Json *a = j.get("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->arr.size(), 3u);
    EXPECT_EQ(a->arr[0].asU64(), 1u);
    EXPECT_TRUE(a->arr[2].get("b")->asBool());
    EXPECT_EQ(j.get("c")->asString(), "x");
    EXPECT_EQ(j.get("missing"), nullptr);
}

TEST(Json, RejectsMalformed)
{
    EXPECT_TRUE(parseFails(""));
    EXPECT_TRUE(parseFails("{"));
    EXPECT_TRUE(parseFails("{\"a\":}"));
    EXPECT_TRUE(parseFails("nul"));
    EXPECT_TRUE(parseFails("\"unterminated"));
    EXPECT_TRUE(parseFails("{} trailing"));
    EXPECT_TRUE(parseFails("[1,]"));
}

TEST(Json, DepthCapStopsHostileNesting)
{
    // A worker must not be stack-overflowable by one request line.
    std::string deep(100, '[');
    deep += std::string(100, ']');
    EXPECT_TRUE(parseFails(deep));
    // Modest nesting is fine.
    EXPECT_EQ(parseOk("[[[[[[[[1]]]]]]]]").kind, Json::Kind::Array);
}

TEST(Json, EscapingRoundTrips)
{
    std::string nasty = "line1\nline2\t\"quote\"\\back\x01";
    std::string rendered;
    appendJsonString(rendered, nasty);
    EXPECT_EQ(parseOk(rendered).asString(), nasty);
}

TEST(Protocol, RequestRoundTrip)
{
    Request req;
    req.op = Request::Op::Run;
    req.id = "r-1";
    req.source = "int main(void){return 0;}\n";
    req.profile = "gcc-morello-O2";
    req.maxSteps = 12345;
    req.deadlineMs = 678;
    req.traceDigest = true;
    req.wantOutput = false;

    Request back;
    std::string err;
    ASSERT_TRUE(parseRequest(renderRequest(req), &back, &err)) << err;
    EXPECT_EQ(back.op, Request::Op::Run);
    EXPECT_EQ(back.id, req.id);
    EXPECT_EQ(back.source, req.source);
    EXPECT_EQ(back.profile, req.profile);
    EXPECT_EQ(back.maxSteps, req.maxSteps);
    EXPECT_EQ(back.deadlineMs, req.deadlineMs);
    EXPECT_TRUE(back.traceDigest);
    EXPECT_FALSE(back.wantOutput);
}

TEST(Protocol, RequestDefaults)
{
    Request req;
    std::string err;
    ASSERT_TRUE(parseRequest("{\"source\":\"int main(void){}\"}",
                             &req, &err))
        << err;
    EXPECT_EQ(req.op, Request::Op::Run);
    EXPECT_TRUE(req.profile.empty());
    EXPECT_EQ(req.maxSteps, 0u);
    EXPECT_EQ(req.deadlineMs, 0u);
    EXPECT_FALSE(req.traceDigest);
    EXPECT_TRUE(req.wantOutput);

    // Unknown keys are ignored, including the retired "engine" key
    // that older clients still send.
    ASSERT_TRUE(parseRequest("{\"source\":\"int main(void){}\","
                             "\"engine\":\"tree\",\"x\":1}",
                             &req, &err))
        << err;
    EXPECT_EQ(req.op, Request::Op::Run);
}

TEST(Protocol, RequestRejectsBadInput)
{
    Request req;
    std::string err;
    EXPECT_FALSE(parseRequest("not json", &req, &err));
    EXPECT_FALSE(parseRequest("[1,2]", &req, &err));
    EXPECT_FALSE(parseRequest("{\"op\":\"launch\"}", &req, &err));
    EXPECT_NE(err.find("unknown op"), std::string::npos);
}

TEST(Protocol, StatsAndShutdownOps)
{
    Request req;
    std::string err;
    ASSERT_TRUE(parseRequest("{\"op\":\"stats\",\"id\":\"s\"}", &req,
                             &err));
    EXPECT_EQ(req.op, Request::Op::Stats);
    ASSERT_TRUE(parseRequest("{\"op\":\"shutdown\"}", &req, &err));
    EXPECT_EQ(req.op, Request::Op::Shutdown);
}

TEST(Protocol, ResponseRoundTripExit)
{
    Response resp;
    resp.id = "r-1";
    resp.verdict = "exit";
    resp.exitCode = -7; // negative codes must survive the wire
    resp.cached = true;
    resp.steps = 99;
    resp.loads = 3;
    resp.stores = 4;
    resp.phases.parseNs = 10;
    resp.phases.semaNs = 20;
    resp.phases.optimizeNs = 30;
    resp.phases.evalNs = 50;
    resp.queueNs = 5;
    resp.totalNs = 160;
    resp.traceDigest = "fnv1a:00000000deadbeef";
    resp.output = "hello\n";
    resp.hasOutput = true;

    std::string line = resp.render();
    EXPECT_NE(line.find("\"phase_ns\":{\"parse\":10,\"sema\":20,"
                        "\"optimize\":30,\"eval\":50}"),
              std::string::npos)
        << line;

    Response back;
    std::string err;
    ASSERT_TRUE(parseResponse(line, &back, &err)) << err;
    EXPECT_EQ(back.id, "r-1");
    EXPECT_EQ(back.verdict, "exit");
    EXPECT_EQ(back.exitCode, -7);
    EXPECT_TRUE(back.cached);
    EXPECT_EQ(back.steps, 99u);
    EXPECT_EQ(back.loads, 3u);
    EXPECT_EQ(back.stores, 4u);
    EXPECT_EQ(back.phases.parseNs, 10u);
    EXPECT_EQ(back.phases.evalNs, 50u);
    EXPECT_EQ(back.queueNs, 5u);
    EXPECT_EQ(back.totalNs, 160u);
    EXPECT_EQ(back.traceDigest, "fnv1a:00000000deadbeef");
    EXPECT_EQ(back.output, "hello\n");
    EXPECT_TRUE(back.hasOutput);
}

TEST(Protocol, ResponseRoundTripUbAndErrors)
{
    Response ub;
    ub.id = "u";
    ub.verdict = "ub";
    ub.ubName = "UB_null_pointer_dereference";
    Response back;
    std::string err;
    ASSERT_TRUE(parseResponse(ub.render(), &back, &err)) << err;
    EXPECT_EQ(back.verdict, "ub");
    EXPECT_EQ(back.ubName, "UB_null_pointer_dereference");

    Response re;
    re.id = "e";
    re.verdict = "resource-exhausted";
    re.message = "step limit exceeded";
    ASSERT_TRUE(parseResponse(re.render(), &back, &err)) << err;
    EXPECT_EQ(back.verdict, "resource-exhausted");
    EXPECT_EQ(back.message, "step limit exceeded");
}

TEST(Protocol, ResponseStatsPayload)
{
    Response stats;
    stats.id = "s";
    stats.verdict = "stats";
    stats.statsJson = "{\"requests\":3,\"completed\":2}";
    Response back;
    std::string err;
    ASSERT_TRUE(parseResponse(stats.render(), &back, &err)) << err;
    EXPECT_EQ(back.verdict, "stats");
    // The payload must survive as valid JSON.
    Json j;
    ASSERT_TRUE(parseJson(back.statsJson, &j, &err)) << err;
    EXPECT_EQ(j.get("requests")->asU64(), 3u);
}

} // namespace
} // namespace cherisem::serve
