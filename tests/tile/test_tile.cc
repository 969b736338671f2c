#include <gtest/gtest.h>

#include "core/sim.h"
#include "core/translate.h"
#include "tile/programs.h"
#include "tile/tile.h"

namespace cmtl {
namespace tile {
namespace {

/** Run a workload to completion; returns cycles taken. */
uint64_t
runWorkload(Tile &t, SimulationTool &sim, uint64_t max_cycles = 2000000)
{
    sim.reset();
    uint64_t cycles = 0;
    while (!t.halted() && cycles < max_cycles) {
        sim.cycle(100);
        cycles += 100;
    }
    EXPECT_TRUE(t.halted()) << t.configName() << " did not halt";
    // Drain in-flight stores (the CL processor's stores are
    // fire-and-forget, so HALT can commit with writes still queued).
    sim.cycle(100);
    return cycles;
}

void
checkMvmultResult(Tile &t, const Workload &w)
{
    auto expect = expectedMvmult(w);
    for (int r = 0; r < w.n; ++r) {
        ASSERT_EQ(t.mem().readWord(w.out_addr +
                                   static_cast<uint32_t>(r) * 4),
                  expect[r])
            << t.configName() << " row " << r;
    }
}

// Every homogeneous configuration plus a representative mixed set.
std::vector<std::array<Level, 3>>
tileConfigs()
{
    return {
        {Level::FL, Level::FL, Level::FL},
        {Level::CL, Level::CL, Level::CL},
        {Level::RTL, Level::RTL, Level::RTL},
        {Level::FL, Level::CL, Level::RTL},
        {Level::RTL, Level::FL, Level::CL},
        {Level::CL, Level::RTL, Level::FL},
        {Level::CL, Level::CL, Level::RTL},
        {Level::RTL, Level::RTL, Level::CL},
        {Level::FL, Level::RTL, Level::RTL},
    };
}

class TileConfigs
    : public ::testing::TestWithParam<std::array<Level, 3>>
{};

TEST_P(TileConfigs, ScalarMvmultComputesCorrectResult)
{
    auto [p, c, a] = GetParam();
    Workload w = makeMvmultScalar(4, 4);
    auto t = std::make_unique<Tile>("tile", p, c, a);
    t->loadProgram(w.image);
    loadMvmultData(t->mem(), w);
    auto elab = t->elaborate();
    SimulationTool sim(elab);
    runWorkload(*t, sim);
    checkMvmultResult(*t, w);
    EXPECT_GT(t->proc().numInsts(), 0u);
}

TEST_P(TileConfigs, AccelMvmultComputesCorrectResult)
{
    auto [p, c, a] = GetParam();
    Workload w = makeMvmultAccel(4);
    auto t = std::make_unique<Tile>("tile", p, c, a);
    t->loadProgram(w.image);
    loadMvmultData(t->mem(), w);
    auto elab = t->elaborate();
    SimulationTool sim(elab);
    runWorkload(*t, sim);
    checkMvmultResult(*t, w);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TileConfigs, ::testing::ValuesIn(tileConfigs()),
    [](const ::testing::TestParamInfo<std::array<Level, 3>> &info) {
        return std::string(levelName(info.param[0])) +
               levelName(info.param[1]) + levelName(info.param[2]);
    });

TEST(TileSpec, RtlTileRunsUnderAllBackends)
{
    Workload w = makeMvmultAccel(4);
    auto expect = expectedMvmult(w);
    for (Backend backend :
         {Backend::OptInterp, Backend::Bytecode, Backend::CppBlock}) {
        if (backend == Backend::CppBlock && !CppJit::compilerAvailable())
            continue;
        auto t = std::make_unique<Tile>("tile", Level::RTL, Level::RTL,
                                        Level::RTL);
        t->loadProgram(w.image);
        loadMvmultData(t->mem(), w);
        auto elab = t->elaborate();
        SimConfig cfg;
        cfg.backend = backend;
        SimulationTool sim(elab, cfg);
        runWorkload(*t, sim);
        checkMvmultResult(*t, w);
    }
}

TEST(TileSpec, RtlTileRunsUnderBoxedInterp)
{
    Workload w = makeMvmultScalar(4, 4);
    auto t = std::make_unique<Tile>("tile", Level::RTL, Level::RTL,
                                    Level::RTL);
    t->loadProgram(w.image);
    loadMvmultData(t->mem(), w);
    auto elab = t->elaborate();
    SimConfig cfg;
    cfg.backend = Backend::Interp;
    SimulationTool sim(elab, cfg);
    runWorkload(*t, sim);
    checkMvmultResult(*t, w);
}

TEST(TileTiming, CyclesAreDeterministic)
{
    // Two identical runs take identical cycle counts.
    uint64_t halted_at[2];
    for (int run = 0; run < 2; ++run) {
        Workload w = makeMvmultScalar(4, 2);
        auto t = std::make_unique<Tile>("tile", Level::CL, Level::CL,
                                        Level::CL);
        t->loadProgram(w.image);
        loadMvmultData(t->mem(), w);
        auto elab = t->elaborate();
        SimulationTool sim(elab);
        sim.reset();
        uint64_t cycles = 0;
        while (!t->halted() && cycles < 1000000) {
            sim.cycle();
            ++cycles;
        }
        halted_at[run] = cycles;
    }
    EXPECT_EQ(halted_at[0], halted_at[1]);
}

TEST(TileTiming, AcceleratorBeatsScalarOnClTile)
{
    // Paper Section III-C: the accelerated tile outruns the scalar
    // loop-unrolled software version.
    uint64_t cycles_scalar = 0, cycles_accel = 0;
    for (bool accel : {false, true}) {
        Workload w =
            accel ? makeMvmultAccel(16) : makeMvmultScalar(16, 4);
        auto t = std::make_unique<Tile>("tile", Level::CL, Level::CL,
                                        Level::CL);
        t->loadProgram(w.image);
        loadMvmultData(t->mem(), w);
        auto elab = t->elaborate();
        SimulationTool sim(elab);
        sim.reset();
        uint64_t cycles = 0;
        while (!t->halted() && cycles < 2000000) {
            sim.cycle();
            ++cycles;
        }
        sim.cycle(100); // drain in-flight stores
        checkMvmultResult(*t, w);
        (accel ? cycles_accel : cycles_scalar) = cycles;
    }
    EXPECT_LT(cycles_accel, cycles_scalar);
}

TEST(TileTiming, MoreDetailIsSlowerToSimulateButFunctionallyEqual)
{
    // All-FL and all-RTL tiles produce identical architectural
    // results for the same workload.
    Workload w = makeMvmultScalar(4, 1);
    std::vector<uint32_t> results[2];
    int idx = 0;
    for (Level level : {Level::FL, Level::RTL}) {
        auto t = std::make_unique<Tile>("tile", level, level, level);
        t->loadProgram(w.image);
        loadMvmultData(t->mem(), w);
        auto elab = t->elaborate();
        SimulationTool sim(elab);
        runWorkload(*t, sim);
        for (int r = 0; r < w.n; ++r)
            results[idx].push_back(t->mem().readWord(
                w.out_addr + static_cast<uint32_t>(r) * 4));
        ++idx;
    }
    EXPECT_EQ(results[0], results[1]);
}

TEST(TileTranslate, RtlComponentsTranslate)
{
    // Processor, cache and accelerator RTL models all translate.
    {
        ProcRTL proc(nullptr, "proc");
        auto elab = proc.elaborate();
        std::string v = TranslationTool().translate(*elab);
        EXPECT_NE(v.find("module ProcRTL"), std::string::npos);
        EXPECT_NE(v.find("reg  [31:0] regs [0:15];"),
                  std::string::npos);
    }
    {
        CacheRTL cache(nullptr, "cache", 64);
        auto elab = cache.elaborate();
        std::string v = TranslationTool().translate(*elab);
        EXPECT_NE(v.find("module CacheRTL_64"), std::string::npos);
    }
    {
        DotProductRTL accel(nullptr, "accel");
        auto elab = accel.elaborate();
        std::string v = TranslationTool().translate(*elab);
        EXPECT_NE(v.find("module DotProductRTL"), std::string::npos);
        EXPECT_NE(v.find("module IntPipelinedMultiplier_32_4"),
                  std::string::npos);
    }
}

TEST(TileCaches, CachesReduceMemoryTraffic)
{
    // The CL cache's icache hit rate on a loop should be high: far
    // fewer memory requests than instruction fetches.
    Workload w = makeMvmultScalar(8, 4);
    auto t = std::make_unique<Tile>("tile", Level::CL, Level::CL,
                                    Level::CL);
    t->loadProgram(w.image);
    loadMvmultData(t->mem(), w);
    auto elab = t->elaborate();
    SimulationTool sim(elab);
    runWorkload(*t, sim);
    EXPECT_GT(t->icache().numAccesses(), 10 * t->icache().numMisses())
        << "icache hit rate too low";
}

} // namespace
} // namespace tile
} // namespace cmtl
