/**
 * @file
 * SimScope observability-layer tests: attach/detach, hot-block
 * ranking, ParSim phase timing across thread counts, val/rdy channel
 * accounting against a hand-computed scenario, JSON snapshot schema —
 * plus the SimJIT cache-key regression tests (compiler version and
 * flags in the key, nested cache dirs, mkdir failure reporting).
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <fstream>
#include <memory>

#include "core/jit_cpp.h"
#include "core/psim.h"
#include "core/scope.h"
#include "core/sim.h"
#include "net/traffic.h"
#include "stdlib/valrdy.h"
#include "test_models.h"

namespace cmtl {
namespace {

using net::MeshTrafficTop;
using net::NetLevel;
using testmodels::Counter;

// ------------------------------------------------------------------
// Attach / detach lifecycle
// ------------------------------------------------------------------

TEST(Scope, AttachDetachRestoresFastPath)
{
    auto top = std::make_unique<Counter>(nullptr, "top", 8);
    auto elab = top->elaborate();
    SimulationTool sim(elab);
    EXPECT_EQ(sim.scopeProbe(), nullptr);

    SimScope scope(sim);
    EXPECT_TRUE(scope.attached());
    EXPECT_EQ(sim.scopeProbe(), &scope.probe());

    top->en.setValue(uint64_t(1));
    sim.cycle(10);
    EXPECT_EQ(scope.cycles(), 10u);

    scope.detach();
    EXPECT_FALSE(scope.attached());
    EXPECT_EQ(sim.scopeProbe(), nullptr);

    // The (inert) hook stays registered; counts stop advancing.
    sim.cycle(5);
    EXPECT_EQ(scope.cycles(), 10u);
    EXPECT_EQ(top->count.u64(), 15u); // simulation unaffected
}

TEST(Scope, ScopeDestructionDetaches)
{
    auto top = std::make_unique<Counter>(nullptr, "top", 8);
    auto elab = top->elaborate();
    SimulationTool sim(elab);
    {
        SimScope scope(sim);
        EXPECT_NE(sim.scopeProbe(), nullptr);
    }
    EXPECT_EQ(sim.scopeProbe(), nullptr);
    sim.cycle(3); // must not touch freed probe memory
}

// ------------------------------------------------------------------
// Hot-block ranking
// ------------------------------------------------------------------

TEST(Scope, HotBlocksHaveHierarchicalPathsAndCalls)
{
    auto top = std::make_unique<Counter>(nullptr, "top", 8);
    auto elab = top->elaborate();
    SimulationTool sim(elab);
    SimScope scope(sim);
    top->en.setValue(uint64_t(1));
    sim.cycle(100);

    auto hot = scope.hotBlocks();
    ASSERT_FALSE(hot.empty());
    EXPECT_EQ(hot[0].path, "top.seq");
    EXPECT_EQ(hot[0].calls, 100u);
    EXPECT_GE(hot[0].seconds, 0.0);
}

TEST(Scope, SampledTimingCountsEveryCall)
{
    auto top = std::make_unique<Counter>(nullptr, "top", 8);
    auto elab = top->elaborate();
    SimulationTool sim(elab);
    SimScope::Options opt;
    opt.timing = SimScope::Timing::Sampled;
    opt.sample_period = 8;
    SimScope scope(sim, opt);
    top->en.setValue(uint64_t(1));
    sim.cycle(64);

    // Calls are exact even in sampled mode; only timing is sampled.
    auto hot = scope.hotBlocks();
    ASSERT_FALSE(hot.empty());
    EXPECT_EQ(hot[0].calls, 64u);
}

// ------------------------------------------------------------------
// ParSim phase timing across thread counts
// ------------------------------------------------------------------

TEST(Scope, ParSimPhaseTimingAcrossThreadCounts)
{
    for (int threads : {1, 2, 4}) {
        auto top = std::make_unique<MeshTrafficTop>(
            "top", NetLevel::RTL, 16, 4, 0.30, 1);
        auto elab = top->elaborate();
        SimConfig cfg;
        cfg.backend = Backend::OptInterp;
        cfg.threads = threads;
        auto sim = makeSimulator(elab, cfg);

        SimScope scope(*sim);
        sim->cycle(64);
        EXPECT_EQ(scope.cycles(), 64u) << "threads " << threads;

        SimScope::PhaseBreakdown pb = scope.phaseBreakdown();
        EXPECT_GT(pb.settle_seconds + pb.tick_seconds + pb.flop_seconds,
                  0.0)
            << "threads " << threads;
        if (auto *par = dynamic_cast<ParSimulationTool *>(sim.get())) {
            EXPECT_EQ(pb.nislands, par->plan().nislands);
            // A 16-router RTL mesh partitioned across islands always
            // exchanges boundary values.
            if (par->plan().nislands > 1)
                EXPECT_GT(pb.boundary_bytes, 0u);
        } else {
            EXPECT_EQ(pb.nislands, 1);
            EXPECT_EQ(pb.boundary_bytes, 0u);
            EXPECT_EQ(pb.barrier_seconds, 0.0);
        }
        scope.detach();
    }
}

// ------------------------------------------------------------------
// Val/rdy channel accounting
// ------------------------------------------------------------------

/** Three bare channel wires driven by the test, plus one real block. */
class ChannelTop : public Model
{
  public:
    OutPort msg, val, rdy;
    Counter cnt;

    ChannelTop()
        : Model(nullptr, "top"), msg(this, "ch_msg", 8),
          val(this, "ch_val", 1), rdy(this, "ch_rdy", 1),
          cnt(this, "cnt", 8)
    {}
};

TEST(Scope, ValRdyStallAccountingHandComputed)
{
    auto top = std::make_unique<ChannelTop>();
    auto elab = top->elaborate();
    SimulationTool sim(elab);
    SimScope scope(sim);
    scope.traceValRdy("top.ch", top->msg, top->val, top->rdy);

    // cycle:        1    2    3    4    5    6
    // val:          0    1    1    1    0    1
    // rdy:          0    0    0    1    0    1
    // outcome:    idle stall stall fire idle fire(latency 0)
    const int val_seq[] = {0, 1, 1, 1, 0, 1};
    const int rdy_seq[] = {0, 0, 0, 1, 0, 1};
    for (int i = 0; i < 6; ++i) {
        top->val.setValue(uint64_t(val_seq[i]));
        top->rdy.setValue(uint64_t(rdy_seq[i]));
        sim.cycle();
    }

    ASSERT_EQ(scope.channels().size(), 1u);
    const SimScope::ChannelStats &ch = scope.channels()[0];
    EXPECT_EQ(ch.cycles, 6u);
    EXPECT_EQ(ch.transfers, 2u);
    EXPECT_EQ(ch.stall_cycles, 2u);
    EXPECT_EQ(ch.idle_cycles, 2u);
    EXPECT_DOUBLE_EQ(ch.occupancy(), 4.0 / 6.0);
    // First transfer waited 2 stalled cycles, second fired at once.
    EXPECT_EQ(ch.latency.count(), 2u);
    EXPECT_EQ(ch.latency.sum(), 2u);
    EXPECT_EQ(ch.latency.min(), 0u);
    EXPECT_EQ(ch.latency.max(), 2u);
}

/** Producer/consumer pair with stdlib bundles for discovery. */
class Producer : public Model
{
  public:
    OutValRdy out;
    Producer(Model *parent, const std::string &name)
        : Model(parent, name), out(this, "out", 8)
    {}
};

class ConsumerM : public Model
{
  public:
    InValRdy in_;
    ConsumerM(Model *parent, const std::string &name)
        : Model(parent, name), in_(this, "in", 8)
    {}
};

class PcTop : public Model
{
  public:
    Producer prod;
    ConsumerM cons;
    Counter cnt;

    PcTop()
        : Model(nullptr, "top"), prod(this, "prod"), cons(this, "cons"),
          cnt(this, "cnt", 8)
    {
        connectValRdy(*this, prod.out, cons.in_);
    }
};

TEST(Scope, TraceAllValRdyDedupsConnectedEndpoints)
{
    auto top = std::make_unique<PcTop>();
    auto elab = top->elaborate();
    SimulationTool sim(elab);
    SimScope scope(sim);

    // Both bundle endpoints share one net triple: one channel, named
    // after the shallowest (pre-order first) model owning the triple.
    EXPECT_EQ(scope.traceAllValRdy(), 1);
    ASSERT_EQ(scope.channels().size(), 1u);
    EXPECT_EQ(scope.channels()[0].name, "top.prod.out");

    // Re-running discovers nothing new.
    EXPECT_EQ(scope.traceAllValRdy(), 0);
}

TEST(Scope, TraceAllValRdyFindsMeshChannels)
{
    auto top = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 4,
                                                2, 0.2, 1);
    auto elab = top->elaborate();
    SimulationTool sim(elab);
    SimScope scope(sim);
    int n = scope.traceAllValRdy();
    EXPECT_GT(n, 0);
    sim.cycle(100);
    uint64_t transfers = 0;
    for (const auto &ch : scope.channels())
        transfers += ch.transfers;
    EXPECT_GT(transfers, 0u); // traffic actually flows near 20% load
}

// ------------------------------------------------------------------
// Snapshot schema / metrics registry
// ------------------------------------------------------------------

TEST(Scope, JsonSnapshotHasRequiredKeys)
{
    auto top = std::make_unique<ChannelTop>();
    auto elab = top->elaborate();
    SimulationTool sim(elab);
    SimScope scope(sim);
    scope.traceValRdy("top.ch", top->msg, top->val, top->rdy);
    scope.metrics().addCounter("user.widgets", 3);
    sim.cycle(10);

    std::string json = scope.jsonSnapshot();
    for (const char *key :
         {"\"scope_version\":1", "\"kernel\":\"sequential\"",
          "\"timing\":\"exact\"", "\"cycles\":10", "\"phases\":",
          "\"islands\":", "\"blocks\":", "\"channels\":",
          "\"metrics\":", "\"user.widgets\":3",
          "\"scope.cycles\":10"}) {
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
    // Single-line output (embeddable as a raw JSON value).
    EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(Scope, HistogramBucketsArePowersOfTwo)
{
    ScopeHistogram h;
    h.record(0);
    h.record(1);
    h.record(2);
    h.record(3);
    h.record(8);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 14u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 8u);
    auto b = h.buckets();
    ASSERT_EQ(b.size(), 5u); // buckets 0..4, top non-empty = [8,15]
    EXPECT_EQ(b[0], 1u);     // value 0
    EXPECT_EQ(b[1], 1u);     // value 1
    EXPECT_EQ(b[2], 2u);     // values 2,3
    EXPECT_EQ(b[3], 0u);     // values 4..7
    EXPECT_EQ(b[4], 1u);     // value 8
}

TEST(Scope, MetricsRegistryMerge)
{
    MetricsRegistry a, b;
    a.addCounter("n", 2);
    b.addCounter("n", 3);
    b.setGauge("g", 1.5);
    b.histogram("h").record(4);
    a.merge(b);
    EXPECT_EQ(a.counters().at("n"), 5u);
    EXPECT_DOUBLE_EQ(a.gauges().at("g"), 1.5);
    EXPECT_EQ(a.histograms().at("h").count(), 1u);
}

// ------------------------------------------------------------------
// SimJIT cache key and cache-dir regressions
// ------------------------------------------------------------------

class JitCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = "/tmp/cmtl-scope-jit-" + std::to_string(::getpid()) +
               "-" +
               std::to_string(
                   ::testing::UnitTest::GetInstance()->random_seed()) +
               "-" + ::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name();
        ::system(("rm -rf '" + dir_ + "'").c_str());
    }

    void
    TearDown() override
    {
        ::system(("rm -rf '" + dir_ + "'").c_str());
    }

    std::string dir_;
};

const char *kTrivialSource =
    "extern \"C\" void cmtl_grp_0(unsigned long long *) {}\n";

TEST_F(JitCacheTest, KeyChangesWhenFlagsChange)
{
    CppJit plain(dir_, true);
    CppJit flagged(dir_, true, "-DCMTL_TEST=1");
    CppJit same(dir_, true);
    EXPECT_NE(plain.cachePathFor(kTrivialSource),
              flagged.cachePathFor(kTrivialSource));
    EXPECT_EQ(plain.cachePathFor(kTrivialSource),
              same.cachePathFor(kTrivialSource));
    // Different sources must never collide on a key.
    EXPECT_NE(plain.cachePathFor(kTrivialSource),
              plain.cachePathFor(std::string(kTrivialSource) + "//x\n"));
}

TEST_F(JitCacheTest, KeyCoversCompilerVersionAndFormat)
{
    CppJit jit(dir_, true);
    std::string path = jit.cachePathFor(kTrivialSource);
    // v2 format namespace: old cmtl_<hash>.so entries never match.
    EXPECT_NE(path.find("/cmtl_v2_"), std::string::npos);
    EXPECT_NE(CppJit::compilerVersion(), "");
    EXPECT_NE(jit.flagString().find("-O1"), std::string::npos);
}

TEST_F(JitCacheTest, CacheHitAcrossInstancesMissAcrossFlags)
{
    if (!CppJit::compilerAvailable())
        GTEST_SKIP() << "no host compiler";

    CppJit jit1(dir_, true);
    CppJitLibrary lib1 =
        jit1.compile(kTrivialSource, 1, CppJitLibrary::Abi::Unit);
    EXPECT_FALSE(lib1.cacheHit());

    // Fresh instance, same dir/flags: warm, like a second process.
    CppJit jit2(dir_, true);
    CppJitLibrary lib2 =
        jit2.compile(kTrivialSource, 1, CppJitLibrary::Abi::Unit);
    EXPECT_TRUE(lib2.cacheHit());

    // Same source, different flags: must recompile, not reuse.
    CppJit jit3(dir_, true, "-DCMTL_TEST=1");
    CppJitLibrary lib3 =
        jit3.compile(kTrivialSource, 1, CppJitLibrary::Abi::Unit);
    EXPECT_FALSE(lib3.cacheHit());
}

TEST_F(JitCacheTest, NestedCacheDirIsCreatedRecursively)
{
    std::string nested = dir_ + "/a/b/c";
    CppJit jit(nested, true);
    struct stat st;
    ASSERT_EQ(::stat(nested.c_str(), &st), 0);
    EXPECT_TRUE(S_ISDIR(st.st_mode));
}

TEST_F(JitCacheTest, UncreatableCacheDirThrows)
{
    // A regular file blocks the path: mkdir must fail loudly.
    ASSERT_EQ(::mkdir(dir_.c_str(), 0755), 0);
    std::ofstream(dir_ + "/blocker").put('x');
    EXPECT_THROW(CppJit(dir_ + "/blocker/sub", true),
                 std::runtime_error);
}

} // namespace
} // namespace cmtl
