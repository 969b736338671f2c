/**
 * ParSim parallel-vs-sequential equivalence.
 *
 * The contract under test: ParSimulationTool is bit-identical to
 * SimulationTool at any thread count, on every arena-hosted backend —
 * verified on the mesh RTL/CLSpec networks and the multi-tile system
 * by lockstepping a parallel and a sequential simulator over identically constructed designs and
 * comparing every net, the VCD byte stream, and end-to-end workload
 * results.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/jit_cpp.h"
#include "core/partition.h"
#include "core/psim.h"
#include "core/sim.h"
#include "core/vcd.h"
#include "net/mesh.h"
#include "net/traffic.h"
#include "tile/multitile.h"

namespace cmtl {
namespace {

using net::MeshTrafficTop;
using net::NetLevel;

SimConfig
parCfg(Backend backend, int threads)
{
    SimConfig cfg;
    cfg.backend = backend;
    cfg.threads = threads;
    return cfg;
}

void
expectSameState(Simulator &seq, Simulator &par, const std::string &ctx)
{
    const auto &nets = seq.elaboration().nets;
    for (const Net &net : nets) {
        ASSERT_EQ(seq.readNet(net.id), par.readNet(net.id))
            << ctx << ": net " << net.name << " diverged at cycle "
            << seq.numCycles();
    }
}

// ------------------------------------------------- mesh equivalence

void
runMeshEquiv(NetLevel level, int nrouters, Backend backend, int threads,
             int cycles)
{
    const double rate = 0.25;
    const uint64_t seed = 7;
    auto ta = std::make_unique<MeshTrafficTop>("top", level, nrouters, 4,
                                               rate, seed);
    auto tb = std::make_unique<MeshTrafficTop>("top", level, nrouters, 4,
                                               rate, seed);
    auto ea = ta->elaborate();
    auto eb = tb->elaborate();
    SimulationTool seq(ea, parCfg(backend, 1));
    ParSimulationTool par(eb, parCfg(backend, threads));

    std::ostringstream ctx;
    ctx << "level=" << static_cast<int>(level) << " backend="
        << par.config().toString() << " threads=" << threads;

    seq.reset();
    par.reset();
    for (int c = 0; c < cycles; ++c) {
        seq.cycle();
        par.cycle();
        if (c % 16 == 15)
            expectSameState(seq, par, ctx.str());
    }
    expectSameState(seq, par, ctx.str());
    EXPECT_EQ(ta->stats().generated, tb->stats().generated);
    EXPECT_EQ(ta->stats().received, tb->stats().received);
    EXPECT_EQ(ta->stats().latency_sum, tb->stats().latency_sum);
    EXPECT_EQ(ta->inFlight(), tb->inFlight());
    EXPECT_GT(tb->stats().received, 0u) << "degenerate scenario";
}

class PsimMeshRtl
    : public ::testing::TestWithParam<std::tuple<int, Backend>>
{};

TEST_P(PsimMeshRtl, BitIdenticalOn8x8)
{
    auto [threads, backend] = GetParam();
    runMeshEquiv(NetLevel::RTL, 64, backend, threads, 96);
}

TEST_P(PsimMeshRtl, BitIdenticalOn4x4ClSpec)
{
    auto [threads, backend] = GetParam();
    runMeshEquiv(NetLevel::CLSpec, 16, backend, threads, 128);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndSpec, PsimMeshRtl,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(Backend::OptInterp,
                                         Backend::Bytecode)));

TEST(PsimMeshRtl, BitIdenticalWithCppSpec)
{
    if (!CppJit::compilerAvailable())
        GTEST_SKIP() << "no host compiler";
    runMeshEquiv(NetLevel::RTL, 16, Backend::CppBlock, 2, 64);
}

// -------------------------------------------------- VCD equivalence

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(PsimVcd, ByteIdenticalWaveforms)
{
    const std::string seq_path = ::testing::TempDir() + "psim_seq.vcd";
    const std::string par_path = ::testing::TempDir() + "psim_par.vcd";
    for (int threads : {2, 4}) {
        auto ta = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL,
                                                   16, 4, 0.3, 11);
        auto tb = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL,
                                                   16, 4, 0.3, 11);
        {
            SimulationTool seq(ta->elaborate(),
                               parCfg(Backend::OptInterp, 1));
            VcdWriter vcd(seq, seq_path);
            seq.reset();
            seq.cycle(80);
            vcd.close();
        }
        {
            ParSimulationTool par(tb->elaborate(),
                                  parCfg(Backend::Bytecode, threads));
            VcdWriter vcd(par, par_path);
            par.reset();
            par.cycle(80);
            vcd.close();
        }
        std::string a = slurp(seq_path);
        std::string b = slurp(par_path);
        ASSERT_FALSE(a.empty());
        EXPECT_EQ(a, b) << "VCD streams differ at threads=" << threads;
    }
    std::remove(seq_path.c_str());
    std::remove(par_path.c_str());
}

// --------------------------------------------- multitile equivalence

TEST(PsimMultiTile, MvmultBitIdentical)
{
    using namespace tile;
    Workload w = makeMvmultMultiTile(4, /*use_accel=*/false);

    auto makeSys = [&] {
        auto sys = std::make_unique<MultiTileSystem>(
            "sys", std::vector<std::array<Level, 3>>{
                       {Level::CL, Level::CL, Level::CL},
                       {Level::CL, Level::CL, Level::CL},
                       {Level::CL, Level::CL, Level::CL},
                       {Level::CL, Level::CL, Level::CL}});
        sys->loadProgram(w.image);
        loadMvmultData(sys->memNode(), w);
        return sys;
    };

    auto sys_a = makeSys();
    auto sys_b = makeSys();
    SimulationTool seq(sys_a->elaborate(), parCfg(Backend::Bytecode, 1));
    ParSimulationTool par(sys_b->elaborate(),
                          parCfg(Backend::Bytecode, 4));

    seq.reset();
    par.reset();
    uint64_t cycles = 0;
    const uint64_t max_cycles = 3000000;
    while (!sys_a->allHalted() && cycles < max_cycles) {
        seq.cycle(256);
        par.cycle(256);
        cycles += 256;
        ASSERT_EQ(sys_a->allHalted(), sys_b->allHalted())
            << "halt divergence at cycle " << cycles;
    }
    ASSERT_TRUE(sys_a->allHalted()) << "deadlock after " << cycles;
    seq.cycle(500);
    par.cycle(500);
    expectSameState(seq, par, "multitile");

    auto expect = expectedMvmult(w);
    for (int t = 0; t < sys_b->numTiles(); ++t) {
        uint32_t base =
            w.out_addr + static_cast<uint32_t>(t) * w.n * 4;
        for (int r = 0; r < w.n; ++r) {
            ASSERT_EQ(sys_b->memNode().readWord(
                          base + static_cast<uint32_t>(r) * 4),
                      expect[r])
                << "tile " << t << " row " << r;
        }
    }
}

// ------------------------------------------- host signal access

/**
 * ParSim publishes no slot view (a write must reach the owning
 * island's replica), so lambdas and test benches keep the virtual
 * path: every signal of at most 64 bits still reads what readNet
 * returns, every cycle, with workers running (the TSan job's view of
 * the host-access path). Returns the mismatch count.
 */
int
signalParityErrors(const Simulator &sim, const std::string &ctx)
{
    int errors = 0;
    for (const Signal *sig : sim.elaboration().signals) {
        if (sig->nbits() > 64)
            continue;
        const Bits expect = sim.readNet(sig->netId());
        if (sig->u64() != expect.toUint64() || sig->value() != expect) {
            if (errors++ == 0) {
                ADD_FAILURE() << ctx << ": " << sig->fullName()
                              << " reads " << sig->value()
                              << ", net holds " << expect << " at cycle "
                              << sim.numCycles();
            }
        }
    }
    return errors;
}

class PsimHostAccess : public ::testing::TestWithParam<Backend>
{};

TEST_P(PsimHostAccess, Psim2MeshSignalsReadLikeReadNet)
{
    MeshTrafficTop top("top", NetLevel::RTL, 16, 4, 0.3, 5);
    ParSimulationTool par(top.elaborate(), parCfg(GetParam(), 2));
    EXPECT_EQ(par.slotView().words, nullptr);
    par.reset();
    int errors = 0;
    for (int c = 0; c < 150 && errors == 0; ++c) {
        par.cycle();
        errors += signalParityErrors(par, "psim2 mesh");
    }
    EXPECT_EQ(errors, 0);
    EXPECT_GT(top.stats().received, 0u) << "degenerate scenario";
}

TEST_P(PsimHostAccess, Psim2MultiTileSignalsReadLikeReadNet)
{
    using namespace tile;
    Workload w = makeMvmultMultiTile(2, /*use_accel=*/false);
    MultiTileSystem sys("sys", std::vector<std::array<Level, 3>>{
                                   {Level::CL, Level::CL, Level::CL},
                                   {Level::RTL, Level::RTL, Level::RTL}});
    sys.loadProgram(w.image);
    loadMvmultData(sys.memNode(), w);
    ParSimulationTool par(sys.elaborate(), parCfg(GetParam(), 2));
    par.reset();
    int errors = 0;
    for (int c = 0; c < 300 && errors == 0; ++c) {
        par.cycle();
        errors += signalParityErrors(par, "psim2 multitile");
    }
    EXPECT_EQ(errors, 0);
}

INSTANTIATE_TEST_SUITE_P(
    ArenaBackends, PsimHostAccess,
    ::testing::Values(Backend::OptInterp, Backend::Bytecode),
    [](const ::testing::TestParamInfo<Backend> &i) {
        return i.param == Backend::OptInterp ? std::string("optinterp")
                                             : std::string("bytecode");
    });

// ------------------------------------------------ partition sanity

TEST(Partition, InvariantsOnMeshRtl)
{
    auto top = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 64,
                                                4, 0.2, 3);
    auto elab = top->elaborate();
    for (int n : {1, 2, 4, 8}) {
        PartitionPlan plan = partitionDesign(*elab, n);
        ASSERT_GE(plan.nislands, 1);
        ASSERT_LE(plan.nislands, n);

        // Every assignable block lands in exactly one island.
        std::vector<int> seen(elab->blocks.size(), 0);
        for (const PartitionIsland &isl : plan.islands) {
            for (int b : isl.combBlocks)
                ++seen[b];
            for (int b : isl.tickBlocks)
                ++seen[b];
        }
        for (int b : plan.lambdaTicks)
            ++seen[b];
        for (size_t b = 0; b < elab->blocks.size(); ++b)
            ASSERT_EQ(seen[b], 1) << "block " << elab->blocks[b].name;

        // Superstep levels are nondecreasing within an island, and the
        // mesh (registered queue outputs) must need at most two
        // supersteps regardless of island count.
        for (const PartitionIsland &isl : plan.islands) {
            for (size_t k = 1; k < isl.combLevels.size(); ++k)
                ASSERT_LE(isl.combLevels[k - 1], isl.combLevels[k]);
        }
        ASSERT_LE(plan.nlevels, 2) << "mesh settle depth regressed";

        // Ownership: owned tokens point back at their island.
        for (size_t i = 0; i < plan.islands.size(); ++i) {
            for (int t : plan.islands[i].ownedTokens)
                ASSERT_EQ(plan.ownerOf[t], static_cast<int>(i));
        }
        ASSERT_GE(plan.imbalance(), 1.0);
        if (plan.nislands > 1) {
            ASSERT_GT(plan.cutTokens, 0);
        }

        std::string report = partitionReport(*elab, plan);
        EXPECT_NE(report.find("island"), std::string::npos);
    }
}

TEST(Partition, BalancesMeshAcrossIslands)
{
    auto top = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 64,
                                                4, 0.2, 3);
    auto elab = top->elaborate();
    PartitionPlan plan = partitionDesign(*elab, 4);
    ASSERT_EQ(plan.nislands, 4);
    // 64 identical routers into 4 islands: near-perfect balance.
    EXPECT_LT(plan.imbalance(), 1.25);
}

TEST(Partition, RefinementShrinksMeshCut)
{
    auto top = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 64,
                                                4, 0.2, 3);
    auto elab = top->elaborate();
    for (int n : {2, 4, 8}) {
        PartitionOptions chunked;
        chunked.refine = false;
        PartitionPlan seed = partitionDesign(*elab, n, chunked);
        PartitionPlan refined = partitionDesign(*elab, n);

        // The refined plan records the seed it started from, and the
        // recorded seed matches an actual chunked run.
        ASSERT_EQ(refined.seedCutTokens, seed.cutTokens)
            << "islands=" << n;
        ASSERT_EQ(refined.seedCutCombEdges, seed.cutCombEdges)
            << "islands=" << n;
        EXPECT_EQ(seed.refineMoves, 0);

        // Refinement never regresses the cut, and must strictly
        // shrink it wherever the chunked strips are suboptimal: at 4+
        // islands a mesh admits tilings with shorter boundaries than
        // the locality-sorted row strips. (At 2 islands the single
        // strip boundary is already globally minimal, so equality is
        // the correct answer there.)
        EXPECT_LE(refined.cutTokens, seed.cutTokens) << "islands=" << n;
        if (n >= 4) {
            EXPECT_LT(refined.cutTokens, seed.cutTokens)
                << "islands=" << n;
        }
        EXPECT_GT(refined.refinePasses, 0);

        // ...without blowing the balance bound.
        EXPECT_LE(refined.imbalance(),
                  std::max(seed.imbalance(), 1.11));
    }
}

TEST(Partition, ClampsAndCompactsDegenerateIslandCounts)
{
    auto top = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 4,
                                                4, 0.2, 3);
    auto elab = top->elaborate();
    // Far more islands than atomic clusters: the plan must clamp to
    // the effective count, keep every island non-empty, and report a
    // finite imbalance instead of dividing by empty islands.
    PartitionPlan plan = partitionDesign(*elab, 512);
    EXPECT_EQ(plan.requestedIslands, 512);
    ASSERT_GE(plan.nislands, 1);
    ASSERT_LE(plan.nislands, plan.nclusters);
    ASSERT_EQ(static_cast<int>(plan.islands.size()), plan.nislands);
    for (const PartitionIsland &isl : plan.islands) {
        EXPECT_GT(isl.combBlocks.size() + isl.tickBlocks.size(), 0u);
        EXPECT_GT(isl.weight, 0);
    }
    double imb = plan.imbalance();
    EXPECT_GE(imb, 1.0);
    EXPECT_TRUE(std::isfinite(imb));
    std::string report = partitionReport(*elab, plan);
    EXPECT_NE(report.find("requested 512"), std::string::npos);
}

TEST(Psim, RejectsUnsupportedConfigs)
{
    auto top = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 16,
                                                4, 0.2, 3);
    auto elab = top->elaborate();
    SimConfig cfg;
    cfg.backend = Backend::Interp;
    cfg.threads = 2;
    EXPECT_THROW(ParSimulationTool(elab, cfg), std::logic_error);
    cfg = SimConfig{};
    cfg.sched = SchedMode::Event;
    cfg.threads = 2;
    EXPECT_THROW(ParSimulationTool(elab, cfg), std::logic_error);
}

TEST(Psim, FactoryDispatchesOnThreadCount)
{
    auto top = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 16,
                                                4, 0.2, 3);
    SimConfig cfg;
    cfg.threads = 2;
    auto sim = makeSimulator(top->elaborate(), cfg);
    EXPECT_NE(dynamic_cast<ParSimulationTool *>(sim.get()), nullptr);

    auto top2 = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 16,
                                                 4, 0.2, 3);
    cfg.threads = 1;
    auto sim2 = makeSimulator(top2->elaborate(), cfg);
    EXPECT_NE(dynamic_cast<SimulationTool *>(sim2.get()), nullptr);
}

} // namespace
} // namespace cmtl
