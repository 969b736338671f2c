/**
 * Hybrid-execution (boxed host + specialized groups) edge cases: the
 * storage-ownership partition must keep test-bench visibility of
 * internal specialized state, the translation cache must be
 * transparent, and the graph tool must render designs.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sys/stat.h>

#include "core/graph.h"
#include "core/sim.h"
#include "test_models.h"

namespace cmtl {
namespace {

using testmodels::Counter;
using testmodels::MuxReg;

/** A specializable counter plus an unspecialized lambda observer. */
class MixedOwnership : public Model
{
  public:
    InPort en;
    OutPort count;
    Wire doubled;
    MemArray history;
    uint64_t lambda_last = 0;

    MixedOwnership()
        : Model(nullptr, "mixed"), en(this, "en", 1),
          count(this, "count", 8), doubled(this, "doubled", 8),
          history(this, "history", 8, 16)
    {
        auto &t = tickRtl("seq");
        t.if_(rd(en), [&] {
            t.assign(count, rd(count) + 1);
            t.writeArray(history, rd(count).slice(0, 4), rd(count));
        });
        auto &c = combinational("comb");
        c.assign(doubled, rd(count) + rd(count));
        // The unspecialized remainder: a lambda observing the
        // specialized region's outputs through SignalAccess.
        tickFl("observe", [this] { lambda_last = doubled.u64(); });
    }
};

class HybridModes : public ::testing::TestWithParam<SimConfig>
{};

TEST_P(HybridModes, TestBenchSeesInternalSpecializedState)
{
    MixedOwnership m;
    auto elab = m.elaborate();
    SimulationTool sim(elab, GetParam());
    m.en.setValue(uint64_t(1));
    sim.cycle(5);
    // Direct reads of specialized-owned state from the test bench.
    EXPECT_EQ(m.count.u64(), 5u);
    EXPECT_EQ(m.doubled.u64(), 10u);
    // Lambda observer saw the pre-edge value during the 5th cycle.
    EXPECT_EQ(m.lambda_last, 8u);
    // Array contents written by the specialized block.
    EXPECT_EQ(sim.readArray(m.history, 3).toUint64(), 3u);
    EXPECT_EQ(sim.readArray(m.history, 4).toUint64(), 4u);
    // Host array writes are visible to the specialized reader side.
    sim.writeArray(m.history, 9, Bits(8, 0x5a));
    EXPECT_EQ(sim.readArray(m.history, 9).toUint64(), 0x5au);
}

TEST_P(HybridModes, PokingSpecializedInputsTakesEffect)
{
    MixedOwnership m;
    auto elab = m.elaborate();
    SimulationTool sim(elab, GetParam());
    m.en.setValue(uint64_t(1));
    sim.cycle(3);
    m.en.setValue(uint64_t(0)); // poke a boundary input
    sim.cycle(3);
    EXPECT_EQ(m.count.u64(), 3u);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, HybridModes, ::testing::ValuesIn(testmodels::allModes()),
    [](const ::testing::TestParamInfo<SimConfig> &info) {
        return testmodels::modeName(info.param);
    });

TEST(JitCache, WarmRunIsCacheHitWithIdenticalBehaviour)
{
    if (!CppJit::compilerAvailable())
        GTEST_SKIP() << "no host compiler";
    std::string dir =
        ::testing::TempDir() + "/cmtl_cache_test_" +
        std::to_string(::getpid());

    uint64_t results[2];
    bool hits[2];
    for (int run = 0; run < 2; ++run) {
        Counter top(nullptr, "top", 8);
        auto elab = top.elaborate();
        SimConfig cfg;
        cfg.backend = Backend::CppBlock;
        cfg.jit_cache_dir = dir;
        SimulationTool sim(elab, cfg);
        top.en.setValue(uint64_t(1));
        sim.cycle(9);
        results[run] = top.count.u64();
        hits[run] = sim.specStats().cacheHit;
    }
    EXPECT_FALSE(hits[0]);
    EXPECT_TRUE(hits[1]);
    EXPECT_EQ(results[0], results[1]);
    std::system(("rm -rf " + dir).c_str());
}

TEST(JitCache, CacheDisabledAlwaysCompiles)
{
    if (!CppJit::compilerAvailable())
        GTEST_SKIP() << "no host compiler";
    std::string dir = ::testing::TempDir() + "/cmtl_nocache_" +
                      std::to_string(::getpid());
    for (int run = 0; run < 2; ++run) {
        Counter top(nullptr, "top", 8);
        auto elab = top.elaborate();
        SimConfig cfg;
        cfg.backend = Backend::CppBlock;
        cfg.jit_cache = false;
        cfg.jit_cache_dir = dir;
        SimulationTool sim(elab, cfg);
        EXPECT_FALSE(sim.specStats().cacheHit) << "run " << run;
        EXPECT_GT(sim.specStats().compileSeconds, 0.0);
    }
    std::system(("rm -rf " + dir).c_str());
}

TEST(GraphTool, RendersHierarchyAndEdges)
{
    MuxReg top(nullptr, "top", 8, 4);
    auto elab = top.elaborate();
    std::string dot = GraphTool().toDot(*elab, 2);
    EXPECT_NE(dot.find("digraph \"top\""), std::string::npos);
    EXPECT_NE(dot.find("Register_8"), std::string::npos);
    EXPECT_NE(dot.find("Mux_8_4"), std::string::npos);
    EXPECT_NE(dot.find("->"), std::string::npos);
    // Depth 0 collapses everything into one box: no edges.
    std::string flat = GraphTool().toDot(*elab, 0);
    EXPECT_EQ(flat.find("->"), std::string::npos);
}

} // namespace
} // namespace cmtl
