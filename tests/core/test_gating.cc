/**
 * Activity-gating equivalence (SimConfig::gating).
 *
 * The contract under test: gating is a pure optimization. A gated run
 * — on the sequential kernel (per-block dirty bits over the static
 * schedule, also inside fused bytecode groups, plus per-range flop
 * change detection) and on ParSim (per-island quiescence, closed over
 * the push graph) — must be bit-identical to the same run with gating
 * off:
 * every net every sampled cycle, the full VCD byte stream, and the
 * end-to-end workload statistics. The tests also assert the gate
 * actually fires (gatedSteps() > 0) so a silently disabled gate cannot
 * pass as "equivalent", and stress the external-write path by poking
 * driven nets mid-run on both sides.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <unistd.h>

#include "core/ir_cpp.h"
#include "core/jit_cpp.h"
#include "core/layout.h"
#include "core/psim.h"
#include "core/sim.h"
#include "core/vcd.h"
#include "net/traffic.h"
#include "tile/multitile.h"

namespace cmtl {
namespace {

using net::MeshTrafficTop;
using net::NetLevel;

SimConfig
gateCfg(Backend backend, int threads, bool gating)
{
    SimConfig cfg;
    cfg.backend = backend;
    cfg.threads = threads;
    cfg.gating = gating;
    return cfg;
}

SimConfig
gateCfg(const std::string &backend, int threads, bool gating)
{
    SimConfig cfg = SimConfig::fromString(backend);
    cfg.threads = threads;
    cfg.gating = gating;
    return cfg;
}

bool
needsCompiler(const std::string &backend)
{
    return backend.find("cpp") != std::string::npos;
}

std::string
paramName(const std::string &backend, int threads)
{
    std::string name = backend + "_t" + std::to_string(threads);
    for (char &c : name) {
        if (c == '-' || c == '+')
            c = '_';
    }
    return name;
}

std::unique_ptr<MeshTrafficTop>
makeTop(uint64_t seed)
{
    // 0.15 injection leaves real idle stretches, so gating has
    // something to skip; seeds vary per test to decorrelate them.
    return std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 16, 4,
                                            0.15, seed);
}

void
expectSameState(Simulator &a, Simulator &b, const std::string &ctx)
{
    const auto &nets = a.elaboration().nets;
    for (const Net &net : nets) {
        ASSERT_EQ(a.readNet(net.id), b.readNet(net.id))
            << ctx << ": net " << net.name << " diverged at cycle "
            << a.numCycles();
    }
    for (const MemArray *array : a.elaboration().arrays) {
        for (int i = 0; i < array->depth(); ++i) {
            ASSERT_EQ(a.readArray(*array, i), b.readArray(*array, i))
                << ctx << ": array " << array->name() << "[" << i
                << "] diverged at cycle " << a.numCycles();
        }
    }
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/**
 * Lockstep a gated simulator against an ungated one over identically
 * constructed designs, poking the same driven net mid-run on both
 * (drivers must overwrite the poked value on the next settle even
 * when gating considered their steps clean).
 */
void
runGatingEquiv(SimConfig cfg, int cycles, uint64_t seed,
               const std::string &ctx)
{
    auto ta = makeTop(seed);
    auto tb = makeTop(seed);
    cfg.gating = true;
    auto on = makeSimulator(ta->elaborate(), cfg);
    cfg.gating = false;
    auto off = makeSimulator(tb->elaborate(), cfg);

    on->reset();
    off->reset();
    int poke_net = static_cast<int>(on->elaboration().nets.size()) / 2;
    for (int c = 0; c < cycles; ++c) {
        if (c == cycles / 2) {
            Bits v(on->elaboration().nets[poke_net].nbits, 1);
            on->pokeNet(poke_net, v);
            off->pokeNet(poke_net, v);
        }
        on->cycle();
        off->cycle();
        if (c % 16 == 15)
            expectSameState(*on, *off, ctx);
    }
    expectSameState(*on, *off, ctx);
    EXPECT_EQ(ta->stats().received, tb->stats().received) << ctx;
    EXPECT_EQ(ta->stats().latency_sum, tb->stats().latency_sum) << ctx;
    EXPECT_GT(tb->stats().received, 0u) << "degenerate scenario";
    // The ungated side must never count a gated step (whether the
    // gated side fires here depends on traffic; GatingQuiescence
    // asserts firing under controlled conditions).
    EXPECT_EQ(off->gatedSteps(), 0u) << ctx;
}

/** Gated and ungated VCDs of the same run must be byte-identical. */
void
expectIdenticalVcds(SimConfig cfg, const std::string &tag)
{
    const std::string on_path =
        ::testing::TempDir() + "gate_on_" + tag + ".vcd";
    const std::string off_path =
        ::testing::TempDir() + "gate_off_" + tag + ".vcd";
    for (bool gating : {true, false}) {
        auto top = makeTop(23);
        cfg.gating = gating;
        auto sim = makeSimulator(top->elaborate(), cfg);
        VcdWriter vcd(*sim, gating ? on_path : off_path);
        sim->reset();
        sim->cycle(96);
        vcd.close();
    }
    std::string a = slurp(on_path);
    std::string b = slurp(off_path);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "VCD streams differ: " << tag;
    std::remove(on_path.c_str());
    std::remove(off_path.c_str());
}

/**
 * After reset settles, a design with no stimulus goes fully
 * quiescent, so the gated-work counter must grow by at least one unit
 * per cycle.
 */
void
expectQuiescentGating(const SimConfig &cfg)
{
    auto top = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 16,
                                                4, 0.0, 3);
    auto sim = makeSimulator(top->elaborate(), cfg);
    sim->reset();
    sim->cycle(8); // drain any reset transient
    uint64_t before = sim->gatedSteps();
    sim->cycle(64);
    uint64_t gained = sim->gatedSteps() - before;
    // At 0.0 injection nothing moves; expect at least one gated
    // block/superstep per cycle (in practice nearly the whole
    // schedule sequentially, every island's supersteps on ParSim).
    EXPECT_GE(gained, 64u);
}

class GatingEquiv
    : public ::testing::TestWithParam<std::tuple<int, Backend>>
{};

TEST_P(GatingEquiv, StateAndStatsMatchUngated)
{
    int threads = 0;
    Backend backend{};
    std::tie(threads, backend) = GetParam();
    std::ostringstream ctx;
    ctx << "backend=" << gateCfg(backend, threads, true).toString()
        << " threads=" << threads;
    runGatingEquiv(gateCfg(backend, threads, true), 128, 31 + threads,
                   ctx.str());
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndSpec, GatingEquiv,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(Backend::OptInterp,
                                         Backend::Bytecode)));

TEST(GatingVcd, ByteIdenticalWaveformsBothKernels)
{
    for (int threads : {1, 4}) {
        expectIdenticalVcds(gateCfg(Backend::Bytecode, threads, true),
                            "bytecode_t" + std::to_string(threads));
    }
}

/**
 * A design with no stimulus goes fully quiescent: every sequential
 * comb block / ParSim island superstep that recomputes an unchanged
 * value must be skipped — on both kernels and both static-schedule
 * backends.
 */
class GatingQuiescence
    : public ::testing::TestWithParam<std::tuple<int, Backend>>
{};

TEST_P(GatingQuiescence, IdleDesignSkipsMostWork)
{
    int threads = 0;
    Backend backend{};
    std::tie(threads, backend) = GetParam();
    expectQuiescentGating(gateCfg(backend, threads, true));
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndSpec, GatingQuiescence,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(Backend::OptInterp,
                                         Backend::Bytecode)));

// ------------------------------------------- compiled backend rows

/**
 * The same three contracts on the compiled per-block backend, whose
 * sequential gate wraps each native block call. Configs come from
 * the backend string; rows skip without a host compiler.
 */
class GatingBackends
    : public ::testing::TestWithParam<std::tuple<int, std::string>>
{
  protected:
    void
    SetUp() override
    {
        if (needsCompiler(std::get<1>(GetParam())) &&
            !CppJit::compilerAvailable())
            GTEST_SKIP() << "no host compiler";
    }

    SimConfig
    cfg() const
    {
        return gateCfg(std::get<1>(GetParam()), std::get<0>(GetParam()),
                       true);
    }

    std::string
    tag() const
    {
        return paramName(std::get<1>(GetParam()), std::get<0>(GetParam()));
    }
};

TEST_P(GatingBackends, StateAndStatsMatchUngated)
{
    runGatingEquiv(cfg(), 128, 31 + std::get<0>(GetParam()), tag());
}

TEST_P(GatingBackends, ByteIdenticalWaveforms)
{
    expectIdenticalVcds(cfg(), tag() + "_" + std::to_string(::getpid()));
}

TEST_P(GatingBackends, IdleDesignSkipsMostWork)
{
    expectQuiescentGating(cfg());
}

INSTANTIATE_TEST_SUITE_P(
    CppBlock, GatingBackends,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(std::string("cpp-block"))),
    [](const ::testing::TestParamInfo<std::tuple<int, std::string>> &i) {
        return paramName(std::get<1>(i.param), std::get<0>(i.param));
    });

// --------------------------------------------- light-load firing

/**
 * Under light load some router is always busy, so a gate that can
 * only skip a whole fused bytecode group never fires. The gating unit
 * is one block, so the idle routers' blocks must be skipped every
 * single cycle.
 */
TEST(GatingLightLoad, BytecodeGatesEveryCycle)
{
    auto top = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 16,
                                                4, 0.02, 7);
    auto sim = makeSimulator(top->elaborate(), gateCfg("bytecode", 1, true));
    sim->reset();
    sim->cycle(8);
    for (int c = 0; c < 64; ++c) {
        uint64_t before = sim->gatedSteps();
        sim->cycle();
        ASSERT_GT(sim->gatedSteps(), before)
            << "no block gated at cycle " << sim->numCycles();
    }
    sim->cycle(256);
    EXPECT_GT(top->stats().received, 0u) << "degenerate scenario";
}

// ------------------------------------------ packed flop words

/**
 * The profile layout bit-packs narrow nets into shared words, so the
 * gated flop phase compares packed flop words whole. Gated and
 * ungated runs must still agree on every net and statistic.
 */
class GatingProfileLayout : public ::testing::TestWithParam<std::string>
{};

TEST_P(GatingProfileLayout, StateAndStatsMatchUngated)
{
    const std::string backend = GetParam();
    if (needsCompiler(backend) && !CppJit::compilerAvailable())
        GTEST_SKIP() << "no host compiler";
    SimConfig cfg = gateCfg(backend, 1, true);
    cfg.layout = LayoutPolicy::Profile;
    {
        auto top = makeTop(41);
        auto sim = makeSimulator(top->elaborate(), cfg);
        ASSERT_GT(sim->layoutStats().packed_nets, 0)
            << "profile layout packed nothing; the case covers no "
               "packed words";
    }
    runGatingEquiv(cfg, 192, 41, backend + " profile");
}

INSTANTIATE_TEST_SUITE_P(
    Sequential, GatingProfileLayout,
    ::testing::Values(std::string("optinterp"), std::string("bytecode"),
                      std::string("cpp-block")),
    [](const ::testing::TestParamInfo<std::string> &i) {
        return paramName(i.param, 1);
    });

// --------------------------------------- hybrid static schedule

/**
 * Boxed-host hybrids under the static schedule keep step-level
 * gating: a specialized group marshals its boundary once and runs
 * whole when any member block is dirty.
 */
class GatingHybridStatic : public ::testing::TestWithParam<std::string>
{};

TEST_P(GatingHybridStatic, StateAndStatsMatchUngated)
{
    const std::string backend = GetParam();
    if (needsCompiler(backend) && !CppJit::compilerAvailable())
        GTEST_SKIP() << "no host compiler";
    SimConfig cfg = gateCfg(backend, 1, true);
    cfg.sched = SchedMode::Static;
    runGatingEquiv(cfg, 96, 53, backend + " static");
}

INSTANTIATE_TEST_SUITE_P(
    Sequential, GatingHybridStatic,
    ::testing::Values(std::string("interp+bytecode"),
                      std::string("interp+cpp-block")),
    [](const ::testing::TestParamInfo<std::string> &i) {
        return paramName(i.param, 1);
    });

// ------------------------------------------------- multi-tile

/**
 * Lockstep gated vs ungated on the multi-tile system: RTL tiles (IR
 * blocks reading and writing register-file and cache arrays) over the
 * CL mesh (host lambdas whose writeNext registers dynamic flops),
 * running mvmult to a halt.
 */
class GatingMultiTile : public ::testing::TestWithParam<std::string>
{};

TEST_P(GatingMultiTile, LockstepMatchesUngated)
{
    using namespace tile;
    const std::string backend = GetParam();
    if (needsCompiler(backend) && !CppJit::compilerAvailable())
        GTEST_SKIP() << "no host compiler";
    Workload w = makeMvmultMultiTile(8, /*use_accel=*/false);
    auto makeSys = [&] {
        auto sys = std::make_unique<MultiTileSystem>(
            "sys",
            std::vector<std::array<Level, 3>>(
                4, {Level::RTL, Level::RTL, Level::RTL}),
            /*cl_network=*/true);
        sys->loadProgram(w.image);
        loadMvmultData(sys->memNode(), w);
        return sys;
    };
    auto sys_on = makeSys();
    auto sys_off = makeSys();
    auto on = makeSimulator(sys_on->elaborate(), gateCfg(backend, 1, true));
    auto off =
        makeSimulator(sys_off->elaborate(), gateCfg(backend, 1, false));
    on->reset();
    off->reset();
    const int limit = 20000;
    int c = 0;
    while (c < limit && !(sys_on->allHalted() && sys_off->allHalted())) {
        on->cycle();
        off->cycle();
        ++c;
        if (c % 64 == 0)
            expectSameState(*on, *off, backend);
        ASSERT_EQ(sys_on->allHalted(), sys_off->allHalted())
            << backend << ": halt diverged at cycle " << c;
    }
    ASSERT_TRUE(sys_on->allHalted()) << backend << ": no halt by " << limit;
    expectSameState(*on, *off, backend);
    EXPECT_FALSE(on->dynamicFlopNets().empty())
        << "no dynamic flops: the CL mesh lambdas went uncovered";
    EXPECT_GT(on->gatedSteps(), 0u) << backend;
}

INSTANTIATE_TEST_SUITE_P(
    Sequential, GatingMultiTile,
    ::testing::Values(std::string("bytecode"), std::string("cpp-block")),
    [](const ::testing::TestParamInfo<std::string> &i) {
        return paramName(i.param, 1);
    });

// --------------------------------------- compiled change masks

/**
 * One comb block ("fan") writes kWide nets, and only the nets at write
 * index >= 63 move (the rest are constants), so every change it
 * reports lands on the saturating bit 63 of its change mask. The last
 * net follows the counter and the other moving ones follow it divided
 * by 8, so most cycles only a net past the 64th changes. Each fan net
 * has its own comb reader and a register behind it, so a missed mark
 * shows up in state.
 */
class WideFanout : public Model
{
  public:
    static constexpr int kWide = 80;
    static constexpr int kFirstMoving = 63;
    Wire cnt;
    std::deque<Wire> fan, echo, held;

    WideFanout() : Model(nullptr, "wide"), cnt(this, "cnt", 8)
    {
        for (int i = 0; i < kWide; ++i) {
            const std::string n = std::to_string(i);
            fan.emplace_back(this, "fan" + n, 8);
            echo.emplace_back(this, "echo" + n, 8);
            held.emplace_back(this, "held" + n, 8);
        }
        auto &count = tickRtl("count");
        count.if_(rd(reset), [&] { count.assign(cnt, 0); },
                  [&] { count.assign(cnt, rd(cnt) + 1); });
        auto &f = combinational("fan");
        for (int i = 0; i < kWide; ++i) {
            if (i < kFirstMoving)
                f.assign(fan[i], static_cast<uint64_t>(i));
            else if (i < kWide - 1)
                f.assign(fan[i], (rd(cnt) >> 3) + static_cast<uint64_t>(i));
            else
                f.assign(fan[i], rd(cnt));
        }
        for (int i = 0; i < kWide; ++i)
            combinational("echo" + std::to_string(i))
                .assign(echo[i], ~rd(fan[i]));
        auto &hold = tickRtl("hold");
        for (int i = 0; i < kWide; ++i)
            hold.assign(held[i], rd(echo[i]));
    }
};

int
blockNamed(const Elaboration &elab, const std::string &name)
{
    for (size_t b = 0; b < elab.blocks.size(); ++b) {
        if (elab.blocks[b].name == name)
            return static_cast<int>(b);
    }
    return -1;
}

class GatingWideMask : public ::testing::TestWithParam<LayoutPolicy>
{
  protected:
    void
    SetUp() override
    {
        if (!CppJit::compilerAvailable())
            GTEST_SKIP() << "no host compiler";
    }
};

TEST_P(GatingWideMask, SaturatedBitMatchesUngated)
{
    WideFanout ta, tb;
    auto elab = ta.elaborate();
    const int fan = blockNamed(*elab, "wide.fan");
    ASSERT_GE(fan, 0);
    const std::vector<int> &writes = elab->blocks[fan].writes;
    ASSERT_EQ(writes.size(), size_t(WideFanout::kWide));
    for (int i = 0; i < WideFanout::kWide; ++i) {
        ASSERT_EQ(writes[i], ta.fan[i].netId())
            << "write " << i << " is not fan" << i
            << ": the moving nets would not sit on the saturating bit";
    }
    SimConfig cfg = gateCfg("cpp-block", 1, true);
    cfg.layout = GetParam();
    auto on = makeSimulator(elab, cfg);
    cfg.gating = false;
    auto off = makeSimulator(tb.elaborate(), cfg);
    on->reset();
    off->reset();
    for (int c = 0; c < 96; ++c) {
        on->cycle();
        off->cycle();
        expectSameState(*on, *off, "wide fan-out");
    }
    // The 63 constant fan nets' readers sleep every cycle.
    EXPECT_GE(on->gatedSteps(), 64u * WideFanout::kFirstMoving);
}

/**
 * The mask a compiled block returns must equal a word diff of its
 * output nets across the call, bit i for write i and bit 63 for all
 * writes from the 64th on: over random arena states, and under the
 * profile layout also for outputs packed into shared words.
 */
TEST_P(GatingWideMask, EmittedMaskEqualsOutputWordDiff)
{
    WideFanout top;
    auto elab = top.elaborate();
    auto layout = std::make_shared<const ArenaLayout>(
        GetParam() == LayoutPolicy::Profile
            ? ArenaLayout::profiled(*elab, nullptr, nullptr)
            : ArenaLayout::elabOrder(*elab));
    ArenaStore store(*elab, layout);
    std::vector<std::vector<int>> groups;
    int packed_outputs = 0;
    for (size_t b = 0; b < elab->blocks.size(); ++b) {
        const ElabBlock &blk = elab->blocks[b];
        if (!blk.ir)
            continue;
        groups.push_back({static_cast<int>(b)});
        if (blk.ir->sequential)
            continue;
        for (int net : blk.writes)
            packed_outputs += store.packed(net);
    }
    if (GetParam() == LayoutPolicy::Profile) {
        ASSERT_GT(packed_outputs, 0) << "no packed output to cover";
    }
    CppJit jit;
    CppJitLibrary lib =
        jit.compile(cppEmitProgram(*elab, store, groups),
                    static_cast<int>(groups.size()),
                    CppJitLibrary::Abi::Block);

    std::mt19937_64 rng(7);
    const int nnets = static_cast<int>(elab->nets.size());
    auto randomize = [&](int net) {
        store.write(net, Bits(store.nbits(net), rng() & store.mask(net)));
    };
    int zero = 0, saturated = 0, low = 0;
    const int cnt = top.cnt.netId();
    for (int trial = 0; trial < 64; ++trial) {
        // Even trials scramble everything; odd ones step only the
        // counter, so settled outputs stay put and masks go sparse.
        if (trial % 2 == 0) {
            for (int net = 0; net < nnets; ++net)
                randomize(net);
        } else {
            const uint64_t next = store.read(cnt).toUint64() + 1;
            store.write(cnt, Bits(store.nbits(cnt), next & store.mask(cnt)));
        }
        for (size_t k = 0; k < groups.size(); ++k) {
            const ElabBlock &blk = elab->blocks[groups[k][0]];
            uint64_t *w = store.data();
            std::vector<uint64_t> before(w, w + store.wordsPerPhase());
            const uint64_t mask = lib.blocks()[k](w);
            uint64_t expect = 0;
            for (size_t i = 0; !blk.ir->sequential && i < blk.writes.size();
                 ++i) {
                const int net = blk.writes[i];
                for (int wd = 0; wd < store.nwords(net); ++wd) {
                    const int off = store.offset(net) + wd;
                    if (w[off] != before[off])
                        expect |= uint64_t(1) << std::min<size_t>(i, 63);
                }
            }
            ASSERT_EQ(mask, expect)
                << blk.name << ", trial " << trial;
            if (blk.ir->sequential)
                continue;
            zero += mask == 0;
            saturated += (mask >> 63) & 1;
            low += (mask & ~(uint64_t(1) << 63)) != 0;
        }
    }
    EXPECT_GT(zero, 0);
    EXPECT_GT(saturated, 0);
    EXPECT_GT(low, 0);
}

INSTANTIATE_TEST_SUITE_P(
    CppBlock, GatingWideMask,
    ::testing::Values(LayoutPolicy::Elab, LayoutPolicy::Profile),
    [](const ::testing::TestParamInfo<LayoutPolicy> &i) {
        return std::string(i.param == LayoutPolicy::Profile ? "profile"
                                                            : "elab");
    });

} // namespace
} // namespace cmtl
