/**
 * Tests of the benchmark itself: the metric list BENCHMARK.json
 * declares, the correctness checks firing on an injected mismatch, and
 * JIT cache hygiene.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>

#include "core/psim.h"
#include "harness.h"
#include "net/traffic.h"
#include "trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace net = cmtl::net;

std::string
benchmarkJson()
{
    std::ifstream in(PERFBENCH_ROOT "/BENCHMARK.json");
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** The string value following @p key at or after @p pos. */
std::string
valueOf(const std::string &text, const std::string &key, size_t *pos)
{
    size_t k = text.find("\"" + key + "\": \"", *pos);
    if (k == std::string::npos)
        return "";
    size_t start = k + key.size() + 5;
    *pos = text.find('"', start);
    return text.substr(start, *pos - start);
}

/** {name, unit} pairs of one metric array of BENCHMARK.json. */
std::vector<MetricSpec>
declared(const std::string &key)
{
    std::string text = benchmarkJson();
    size_t start = text.find("\"" + key + "\"");
    EXPECT_NE(start, std::string::npos) << key;
    std::string section = text.substr(start, text.find(']', start) - start);
    std::vector<MetricSpec> out;
    size_t pos = 0;
    for (;;) {
        std::string name = valueOf(section, "name", &pos);
        if (name.empty())
            break;
        out.push_back({name, valueOf(section, "unit", &pos)});
    }
    return out;
}

void
expectSameMetrics(const std::vector<MetricSpec> &declared,
                  const std::vector<MetricSpec> &produced)
{
    ASSERT_EQ(declared.size(), produced.size());
    for (size_t i = 0; i < declared.size(); ++i) {
        EXPECT_EQ(declared[i].name, produced[i].name);
        EXPECT_EQ(declared[i].unit, produced[i].unit) << declared[i].name;
    }
}

TEST(Metrics, EndToEndMatchBenchmarkJson)
{
    expectSameMetrics(declared("end_to_end"), endToEndMetrics());
}

TEST(Metrics, PerLayerMatchBenchmarkJson)
{
    expectSameMetrics(declared("per_layer"), perLayerMetrics());
}

TEST(Metrics, NamesUniqueAcrossBothLists)
{
    std::set<std::string> seen;
    for (const auto *list : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const MetricSpec &m : *list)
            EXPECT_TRUE(seen.insert(m.name).second) << m.name;
    }
}

TEST(Metrics, WorkloadsMatchBenchmarkJson)
{
    std::string text = benchmarkJson();
    for (const WorkloadSpec &w : workloads())
        EXPECT_NE(text.find("\"name\": \"" + w.name + "\""),
                  std::string::npos)
            << w.name;
}

TEST(Metrics, ResultLineHasTheFourKeys)
{
    RunResult r;
    r.correct = true;
    r.attempted = 3;
    r.failed = 0;
    r.metrics = {{"setup_s", "s", 0.125}};
    EXPECT_EQ(resultJson(r),
              "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
              "\"metrics\": {\"setup_s\": {\"value\": 0.125, \"unit\": "
              "\"s\"}}}");
}

/** Run a 2x2 RTL mesh for @p cycles, logging stats every 16 cycles. */
StatsLog
runSmallMesh(const std::string &backend, uint64_t cycles,
             net::NetStats *final_stats, uint64_t *in_flight,
             uint64_t *queued)
{
    net::MeshTrafficTop top("top", net::NetLevel::RTL, 4, 4, 0.3, 7);
    auto sim = cmtl::makeSimulator(top.elaborate(),
                                   makeConfig(backend, 1, "unused"));
    sim->reset();
    StatsLog log;
    for (uint64_t c = 0; c < cycles; c += 16) {
        sim->cycle(16);
        log[sim->numCycles()] = top.stats();
    }
    *final_stats = top.stats();
    *in_flight = top.inFlight();
    *queued = top.queuedAtSources();
    sim.reset();
    return log;
}

TEST(Checks, BackendsAgreeAndConserveMessages)
{
    net::NetStats a_final, b_final;
    uint64_t a_fl, a_q, b_fl, b_q;
    StatsLog a = runSmallMesh("optinterp", 128, &a_final, &a_fl, &a_q);
    StatsLog b = runSmallMesh("bytecode", 128, &b_final, &b_fl, &b_q);
    size_t common = 0;
    EXPECT_TRUE(compareStatsLogs(a, b, &common).empty());
    EXPECT_EQ(common, a.size());
    EXPECT_GT(b_final.received, 0u);
    EXPECT_TRUE(messagesConserved(a_final, a_fl, a_q));
    EXPECT_TRUE(messagesConserved(b_final, b_fl, b_q));
}

TEST(Checks, InjectedStatsMismatchIsAFailedOperation)
{
    net::NetStats fin;
    uint64_t fl, q;
    StatsLog ref = runSmallMesh("optinterp", 96, &fin, &fl, &q);
    StatsLog bad = ref;
    auto it = std::next(bad.begin(), 3);
    it->second.latency_sum += 1;
    size_t common = 0;
    std::vector<std::string> diffs = compareStatsLogs(ref, bad, &common);
    ASSERT_EQ(diffs.size(), 1u);
    EXPECT_NE(diffs[0].find("cycle " + std::to_string(it->first)),
              std::string::npos);

    OpLedger ops;
    ops.record(true, "");
    ops.record(diffs.empty(), diffs[0]);
    EXPECT_EQ(ops.attempted(), 2u);
    EXPECT_EQ(ops.failed(), 1u);

    // A lost message breaks conservation.
    fin.generated += 1;
    EXPECT_FALSE(messagesConserved(fin, fl, q));
}

/** A directory under the build tree, emptied for the test. */
fs::path
freshDir(const std::string &name)
{
    fs::path p = fs::current_path() / ("perfbench-test-" + name + "-" +
                                       std::to_string(::getpid()));
    fs::remove_all(p);
    return p;
}

TEST(CacheHygiene, ColdSetupCompilesInAPrivateDirAndRemovesIt)
{
    if (!cmtl::CppJit::compilerAvailable())
        GTEST_SKIP() << "no host compiler";
    fs::path env_dir = freshDir("env");
    fs::path scratch = freshDir("cold");
    fs::create_directories(scratch);
    ::setenv("CMTL_JIT_CACHE", env_dir.c_str(), 1);
    bool compiled = false;
    double seconds = coldMeshSetup(4, 0.3, 1, scratch.string(), &compiled);
    ::unsetenv("CMTL_JIT_CACHE");
    EXPECT_TRUE(compiled);
    EXPECT_GT(seconds, 0.0);
    EXPECT_TRUE(fs::is_empty(scratch)) << "cold cache dir left behind";
    EXPECT_FALSE(fs::exists(env_dir)) << "$CMTL_JIT_CACHE was used";
    fs::remove_all(scratch);
}

TEST(CacheHygiene, ConfigsNameTheirCacheDir)
{
    for (const char *b : {"optinterp", "bytecode", "cpp-block", "cpp-design"}) {
        cmtl::SimConfig cfg = makeConfig(b, 2, "some/dir");
        EXPECT_EQ(cfg.jit_cache_dir, "some/dir");
        EXPECT_EQ(cfg.threads, 2);
        EXPECT_EQ(cfg.toString(), b);
    }
}

TEST(Trace, SelfTimeSubtractsChildren)
{
    SpanRecorder rec(true);
    int root = rec.open("root");
    int child = rec.open("child");
    rec.close(child);
    rec.close(root);
    std::vector<double> self = rec.selfSeconds();
    const auto &spans = rec.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_NEAR(self[0], (spans[0].end - spans[0].start) -
                             (spans[1].end - spans[1].start),
                1e-12);
    EXPECT_THROW(rec.close(root), std::logic_error);
}

TEST(Trace, DisabledRecorderStillTimes)
{
    SpanRecorder rec(false);
    double t;
    {
        SpanScope s(rec, "x");
        t = s.close();
    }
    EXPECT_GE(t, 0.0);
    EXPECT_TRUE(rec.spans().empty());
}

TEST(Trace, ChromeTraceFileHasCompleteEvents)
{
    SpanRecorder rec(true);
    {
        SpanScope a(rec, "outer \"quoted\"");
        SpanScope b(rec, "inner");
    }
    fs::path path = freshDir("trace");
    ASSERT_TRUE(rec.writeChromeTrace(path.string(), "{\"host_cpus\":1}"));
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(text.find("outer \\\"quoted\\\""), std::string::npos);
    EXPECT_NE(text.find("\"otherData\":{\"host_cpus\":1}"),
              std::string::npos);
    fs::remove(path);
}

} // namespace
} // namespace perfbench
