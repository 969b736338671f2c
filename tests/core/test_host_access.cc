/**
 * Host-code signal access: the slot-bound fast path and the dynamic
 * flop copy plan.
 *
 * The contract under test: Signal::u64()/value()/setNext() read and
 * write exactly what the simulator's virtual accessors would — on
 * every sequential backend and both arena layouts, every cycle, for
 * every net of 64 bits or fewer — including truncation of over-wide
 * writes on packed nets, teardown (a read after the simulator is gone
 * throws) and a second simulator on the same elaboration. And: nets a
 * lambda registers as flops at run time are copied through whole-word
 * ranges plus a masked per-net fallback that together cover exactly
 * their words, in lockstep with a per-net reference under gated
 * bytecode, cpp-block and cpp-design.
 */

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/jit_cpp.h"
#include "core/layout.h"
#include "core/sim.h"
#include "net/traffic.h"
#include "tile/multitile.h"

namespace cmtl {
namespace {

using net::MeshTrafficTop;
using net::NetLevel;

/** One sequential configuration: backend string, layout, tiering. */
struct HostCfg
{
    std::string backend;
    LayoutPolicy layout = LayoutPolicy::Elab;

    SimConfig
    config() const
    {
        SimConfig cfg = SimConfig::fromString(backend);
        cfg.layout = layout;
        cfg.jit_tiered = false; // native tier from the first cycle
        return cfg;
    }
    std::string
    name() const
    {
        return backend + "/" + layoutPolicyName(layout);
    }
    bool needsCompiler() const
    {
        return backend.find("cpp") != std::string::npos;
    }
};

const std::vector<HostCfg> &
hostMatrix()
{
    static const std::vector<HostCfg> all = {
        {"interp"},
        {"optinterp"},
        {"bytecode"},
        {"cpp-block"},
        {"cpp-design"},
        {"interp+bytecode"},
        {"optinterp", LayoutPolicy::Profile},
        {"bytecode", LayoutPolicy::Profile},
        {"cpp-design", LayoutPolicy::Profile},
    };
    return all;
}

/**
 * Every signal of at most 64 bits reads the same through the Signal
 * API as through Simulator::readNet. Returns the mismatch count (one
 * gtest failure per call keeps a bad run readable).
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
                              << " reads " << sig->value() << " / "
                              << sig->u64() << ", net holds " << expect
                              << " at cycle " << sim.numCycles();
            }
        }
    }
    return errors;
}

/** True for the backends whose simulator publishes a slot view. */
bool
publishesView(const std::string &backend)
{
    return !backendBoxedHost(SimConfig::fromString(backend).backend);
}

std::unique_ptr<tile::MultiTileSystem>
makeMultiTile(const tile::Workload &w)
{
    using tile::Level;
    auto sys = std::make_unique<tile::MultiTileSystem>(
        "sys", std::vector<std::array<Level, 3>>{
                   {Level::CL, Level::CL, Level::CL},
                   {Level::RTL, Level::RTL, Level::RTL}});
    sys->loadProgram(w.image);
    tile::loadMvmultData(sys->memNode(), w);
    return sys;
}

// ------------------------------------------------ read/write parity

class HostParity : public ::testing::TestWithParam<HostCfg>
{};

TEST_P(HostParity, MeshSignalsReadLikeReadNetEveryCycle)
{
    const HostCfg &hc = GetParam();
    if (hc.needsCompiler() && !CppJit::compilerAvailable())
        GTEST_SKIP() << "no host compiler";
    MeshTrafficTop top("top", NetLevel::RTL, 16, 4, 0.3, 5);
    SimulationTool sim(top.elaborate(), hc.config());
    EXPECT_EQ(sim.slotView().words != nullptr, publishesView(hc.backend))
        << hc.name();
    sim.reset();
    int errors = 0;
    for (int c = 0; c < 150 && errors == 0; ++c) {
        sim.cycle();
        errors += signalParityErrors(sim, hc.name());
    }
    EXPECT_EQ(errors, 0);
    EXPECT_GT(top.stats().received, 0u) << "degenerate scenario";
}

TEST_P(HostParity, MultiTileSignalsReadLikeReadNetEveryCycle)
{
    const HostCfg &hc = GetParam();
    if (hc.needsCompiler() && !CppJit::compilerAvailable())
        GTEST_SKIP() << "no host compiler";
    tile::Workload w = tile::makeMvmultMultiTile(2, /*use_accel=*/false);
    auto sys = makeMultiTile(w);
    SimulationTool sim(sys->elaborate(), hc.config());
    sim.reset();
    int errors = 0;
    for (int c = 0; c < 300 && errors == 0; ++c) {
        sim.cycle();
        errors += signalParityErrors(sim, hc.name());
    }
    EXPECT_EQ(errors, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, HostParity, ::testing::ValuesIn(hostMatrix()),
    [](const ::testing::TestParamInfo<HostCfg> &i) {
        std::string name = i.param.name();
        for (char &c : name) {
            if (c == '-' || c == '+' || c == '/')
                c = '_';
        }
        return name;
    });

/**
 * The view is republished when the profile-guided loop migrates the
 * arena mid-run: signal reads stay in parity across the swap (and
 * the sanitizer build catches a read through the old arena).
 */
TEST(HostParityPgo, ViewFollowsTheMigratedArena)
{
    if (!CppJit::compilerAvailable())
        GTEST_SKIP() << "no host compiler";
    MeshTrafficTop top("top", NetLevel::RTL, 16, 4, 0.3, 9);
    SimConfig cfg = SimConfig::fromString("cpp-design");
    cfg.layout = LayoutPolicy::Profile;
    cfg.pgo_warm_cycles = 32;
    SimulationTool sim(top.elaborate(), cfg);
    const uint64_t *before = sim.slotView().words;
    sim.reset();
    int errors = 0;
    for (int c = 0; c < 2000000 && sim.tierPending() && errors == 0; ++c) {
        sim.cycle();
        errors += signalParityErrors(sim, "pgo warm-up");
    }
    ASSERT_FALSE(sim.tierPending()) << "compile never finished";
    EXPECT_TRUE(sim.layoutStats().pgo);
    EXPECT_NE(sim.slotView().words, before);
    for (int c = 0; c < 100 && errors == 0; ++c) {
        sim.cycle();
        errors += signalParityErrors(sim, "pgo native tier");
    }
    EXPECT_EQ(errors, 0);
}

// ------------------------------------------------- write truncation

/** Narrow nets driven only by host code, plus a comb reader. */
class Narrow : public Model
{
  public:
    Wire a5, b3, c7;
    Wire sum;

    Narrow() : Model(nullptr, "top"), a5(this, "a5", 5), b3(this, "b3", 3),
               c7(this, "c7", 7), sum(this, "sum", 8)
    {
        auto &c = combinational("add");
        c.assign(sum, rd(a5).zext(8) + rd(b3).zext(8) + rd(c7).zext(8));
    }
};

/**
 * setNext with a value wider than the net truncates identically on
 * the fast path (net already a registered flop) and the virtual path
 * (the first write registers it), and on a packed net leaves its
 * word-mates untouched.
 */
TEST(HostWrite, OverWideSetNextTruncatesOnBothPaths)
{
    const uint64_t wide = 0xfedcba9876543217ull;
    for (LayoutPolicy policy : {LayoutPolicy::Elab, LayoutPolicy::Profile}) {
        const std::string ctx = layoutPolicyName(policy);
        Narrow top;
        auto elab = top.elaborate();
        SimConfig cfg = SimConfig::fromString("bytecode");
        cfg.layout = policy;
        SimulationTool sim(elab, cfg);
        if (policy == LayoutPolicy::Profile) {
            ArenaLayout lay = ArenaLayout::profiled(*elab, nullptr, nullptr);
            ASSERT_TRUE(lay.packed(top.a5.netId())) << ctx;
            ASSERT_EQ(lay.slot(top.a5.netId()).word_off,
                      lay.slot(top.b3.netId()).word_off)
                << ctx;
        }
        ASSERT_NE(sim.slotView().words, nullptr);

        // Virtual path: the first write registers the flop.
        top.b3.setNext(uint64_t(5));
        top.c7.setNext(uint64_t(0x55));
        top.a5.setNext(wide);
        const Bits slow = sim.readNetNext(top.a5.netId());
        EXPECT_EQ(slow, Bits(5, wide)) << ctx;
        sim.cycle();
        EXPECT_EQ(top.a5.u64(), wide & 0x1f) << ctx;

        // Fast path: same value, same truncation; mates keep theirs.
        top.a5.setNext(uint64_t(0));
        top.a5.setNext(wide);
        EXPECT_EQ(sim.readNetNext(top.a5.netId()), slow) << ctx;
        EXPECT_EQ(sim.readNetNext(top.b3.netId()), Bits(3, 5)) << ctx;
        EXPECT_EQ(sim.readNetNext(top.c7.netId()), Bits(7, 0x55)) << ctx;
        top.b3.setNext(Bits(64, ~uint64_t(0)));
        EXPECT_EQ(sim.readNetNext(top.b3.netId()), Bits(3, 7)) << ctx;
        EXPECT_EQ(sim.readNetNext(top.a5.netId()), slow) << ctx;
        sim.cycle();
        EXPECT_EQ(top.sum.u64(), (wide & 0x1f) + 7 + 0x55) << ctx;
        EXPECT_EQ(top.b3.value(), Bits(3, 7)) << ctx;
    }
}

// ----------------------------------------- lifetime and ownership

TEST(HostLifetime, ReadAfterSimulatorDestroyedThrows)
{
    Narrow top;
    auto elab = top.elaborate();
    {
        SimulationTool sim(elab, SimConfig::fromString("optinterp"));
        top.a5.setNext(uint64_t(3));
        sim.cycle();
        EXPECT_EQ(top.a5.u64(), 3u);
    }
    EXPECT_EQ(top.a5.access(), nullptr);
    EXPECT_THROW(top.a5.u64(), std::logic_error);
    EXPECT_THROW(top.a5.value(), std::logic_error);
    EXPECT_THROW(top.a5.setNext(uint64_t(1)), std::logic_error);
    EXPECT_THROW(top.a5.setValue(uint64_t(1)), std::logic_error);
}

TEST(HostLifetime, SecondSimulatorSeesItsOwnState)
{
    Narrow top;
    auto elab = top.elaborate();
    auto first = std::make_unique<SimulationTool>(
        elab, SimConfig::fromString("bytecode"));
    top.a5.setNext(uint64_t(9));
    top.c7.setNext(uint64_t(4));
    first->cycle();
    ASSERT_EQ(top.sum.u64(), 13u);

    // A fresh simulator takes the signals over with its own (reset)
    // state; the first one keeps its values.
    SimulationTool second(elab, SimConfig::fromString("optinterp"));
    EXPECT_EQ(top.a5.access(), &second);
    EXPECT_EQ(top.a5.u64(), 0u);
    EXPECT_EQ(top.sum.u64(), 0u);
    EXPECT_EQ(first->readNet(top.sum.netId()), Bits(8, 13));
    top.b3.setNext(uint64_t(2));
    second.cycle();
    EXPECT_EQ(top.sum.u64(), 2u);
    EXPECT_EQ(first->readNet(top.b3.netId()), Bits(3, 0));

    // Destroying the first leaves the second's binding alone.
    first.reset();
    EXPECT_EQ(top.b3.u64(), 2u);
    top.b3.setNext(uint64_t(1));
    second.cycle();
    EXPECT_EQ(top.sum.u64(), 1u);
}

TEST(HostLifetime, SignalStaysUnbound)
{
    // The fast path lives in the simulator's view, not in the Signal:
    // no per-signal slot binding (10k+ signals per mesh model).
    EXPECT_EQ(sizeof(Signal), sizeof(Model *) + sizeof(std::string) +
                                  4 * sizeof(int) +
                                  sizeof(SignalAccess *));
}

// ----------------------------------------------- dynamic flop plan

/**
 * Nets a lambda registers as flops at run time: @c early from the
 * first cycle, @c late (narrow, packable) and @c wide (two words)
 * only after cycle 100. Comb IR readers feed a tick IR accumulator,
 * and the lambda folds the accumulator back into what it writes, so
 * a missed flop or a missed reader mark diverges every later cycle.
 * @c knob is a test-bench input, never flopped, that the profile
 * layout packs into a word with dynamic flops: a whole-word copy of
 * that word would clobber it.
 */
class LateFlops : public Model
{
  public:
    Wire early;
    InPort knob;
    std::deque<Wire> late;
    Wire wide;
    Wire mix, wide_lo, acc;

    LateFlops()
        : Model(nullptr, "top"), early(this, "early", 16),
          knob(this, "knob", 8), wide(this, "wide", 80),
          mix(this, "mix", 16),
          wide_lo(this, "wide_lo", 16), acc(this, "acc", 16)
    {
        const int widths[] = {1, 3, 8, 16, 16, 5, 12, 2};
        for (int i = 0; i < 8; ++i)
            late.emplace_back(this, "late" + std::to_string(i), widths[i]);

        tickFl("stimulus", [this] {
            ++n_;
            const uint64_t seed = n_ * 0x9e3779b97f4a7c15ull ^ acc.u64();
            early.setNext(seed >> 7);
            if (n_ <= 100)
                return;
            for (size_t i = 0; i < late.size(); ++i) {
                if (n_ % (i + 2) != 0) // not every net every cycle
                    late[i].setNext(seed >> (3 * i));
            }
            if (n_ > 150 && n_ % 3 == 0)
                wide.setNext(Bits::fromWords(80, {seed, n_ ^ 0x5a5a}));
        });
        auto &m = combinational("mix");
        IrExpr sum = rd(early) ^ rd(knob).zext(16);
        for (Wire &w : late)
            sum = sum ^ rd(w).zext(16);
        m.assign(mix, sum);
        auto &lo = combinational("wide_lo");
        lo.assign(wide_lo, rd(wide).slice(60, 16));
        auto &t = tickRtl("accum");
        t.assign(acc, rd(acc) + rd(mix) + rd(wide_lo));
    }

  private:
    uint64_t n_ = 0;
};

/** Words of @p nets under @p lay. */
std::set<int>
wordsOf(const ArenaLayout &lay, const std::vector<int> &nets)
{
    std::set<int> words;
    for (int net : nets) {
        const LayoutSlot &s = lay.slot(net);
        for (int w = 0; w < s.nwords; ++w)
            words.insert(s.word_off + w);
    }
    return words;
}

/**
 * Mirror of LayoutFlopPlan.RangesCoverExactlyTheStaticFlopWords for
 * the dynamic tail: the plan's ranges plus its per-net fallback cover
 * exactly the dynamic flop words, with no word in both, and a
 * fallback net is one whose word holds a resident that is not
 * flopped.
 */
TEST(DynamicFlopPlan, RangesPlusFallbackCoverExactlyTheDynamicFlopWords)
{
    // expect_fallback: 1 / 0 asserts whether the plan has per-net
    // fallback nets, -1 leaves it to the design.
    auto check = [](Simulator &sim, int cycles, const std::string &ctx,
                    int expect_fallback) {
        sim.reset();
        sim.cycle(static_cast<uint64_t>(cycles));
        const Elaboration &elab = sim.elaboration();
        const std::vector<int> dyn = sim.dynamicFlopNets();
        ASSERT_FALSE(dyn.empty()) << ctx;
        std::vector<char> flopped(elab.nets.size(), 0);
        for (const Net &net : elab.nets)
            flopped[net.id] = net.floppedStatic;
        for (int net : dyn)
            flopped[net] = 1;
        ArenaLayout lay = sim.config().layout == LayoutPolicy::Profile
                              ? ArenaLayout::profiled(elab, nullptr, nullptr)
                              : ArenaLayout::elabOrder(elab);
        FlopCopyPlan plan = lay.dynamicFlopPlan(dyn, flopped);

        std::set<int> ranged;
        for (size_t r = 0; r < plan.ranges.size(); ++r) {
            const FlopRange &rg = plan.ranges[r];
            ASSERT_GT(rg.nwords, 0) << ctx;
            if (r > 0) { // sorted and coalesced
                ASSERT_GT(rg.off, plan.ranges[r - 1].off +
                                      plan.ranges[r - 1].nwords)
                    << ctx;
            }
            for (int w = 0; w < rg.nwords; ++w)
                ranged.insert(rg.off + w);
        }
        const std::set<int> fallback = wordsOf(lay, plan.nets);
        for (int w : fallback)
            EXPECT_EQ(ranged.count(w), 0u) << ctx << ": word " << w;
        std::set<int> all = ranged;
        all.insert(fallback.begin(), fallback.end());
        EXPECT_EQ(all, wordsOf(lay, dyn)) << ctx;
        // Ranged words hold flops only; a fallback net shares its
        // word with a resident that is not flopped.
        std::vector<std::vector<int>> residents(lay.wordsPerPhase());
        for (const Net &net : elab.nets) {
            const LayoutSlot &s = lay.slot(net.id);
            for (int w = 0; w < s.nwords; ++w)
                residents[s.word_off + w].push_back(net.id);
        }
        for (int w : ranged) {
            for (int net : residents[w])
                EXPECT_TRUE(flopped[net]) << ctx << ": word " << w;
        }
        for (int net : plan.nets) {
            bool impure = false;
            for (int mate : residents[lay.slot(net).word_off])
                impure = impure || !flopped[mate];
            EXPECT_TRUE(impure) << ctx << ": net " << elab.nets[net].name;
        }
        EXPECT_FALSE(plan.ranges.empty()) << ctx;
        if (expect_fallback >= 0) {
            EXPECT_EQ(!plan.nets.empty(), expect_fallback == 1) << ctx;
        }
    };

    for (LayoutPolicy policy : {LayoutPolicy::Elab, LayoutPolicy::Profile}) {
        const int packs = policy == LayoutPolicy::Profile ? 1 : 0;
        const std::string lay = layoutPolicyName(policy);
        SimConfig cfg = SimConfig::fromString("optinterp");
        cfg.layout = policy;
        {
            LateFlops top;
            SimulationTool sim(top.elaborate(), cfg);
            check(sim, 200, "LateFlops/" + lay, packs);
        }
        {
            MeshTrafficTop top("top", NetLevel::RTL, 16, 4, 0.2, 3);
            SimulationTool sim(top.elaborate(), cfg);
            check(sim, 50, "Mesh4x4/" + lay, packs ? -1 : 0);
        }
        {
            tile::Workload w = tile::makeMvmultMultiTile(2, false);
            auto sys = makeMultiTile(w);
            SimulationTool sim(sys->elaborate(), cfg);
            check(sim, 200, "MultiTile/" + lay, packs ? -1 : 0);
        }
    }
}

/**
 * Dynamic flops registered after 100 cycles join the copy plan
 * mid-run: lockstep against an event-driven optinterp reference,
 * whose flop phase copies every net one by one.
 */
class DynamicFlopLockstep
    : public ::testing::TestWithParam<std::tuple<std::string, LayoutPolicy>>
{};

TEST_P(DynamicFlopLockstep, LateFlopsMatchThePerNetReference)
{
    auto [backend, policy] = GetParam();
    if (backend.find("cpp") != std::string::npos &&
        !CppJit::compilerAvailable())
        GTEST_SKIP() << "no host compiler";
    LateFlops ref_top, top;
    SimConfig ref_cfg = SimConfig::fromString("optinterp");
    ref_cfg.sched = SchedMode::Event;
    SimulationTool ref(ref_top.elaborate(), ref_cfg);
    SimConfig cfg = SimConfig::fromString(backend);
    cfg.layout = policy;
    cfg.jit_tiered = false;
    SimulationTool sim(top.elaborate(), cfg);
    ASSERT_TRUE(cfg.gating);
    if (policy == LayoutPolicy::Profile) {
        ArenaLayout lay =
            ArenaLayout::profiled(sim.elaboration(), nullptr, nullptr);
        ASSERT_EQ(lay.slot(top.knob.netId()).word_off,
                  lay.slot(top.early.netId()).word_off);
    }

    ref.reset();
    sim.reset();
    ref_top.knob.setValue(uint64_t(0xa5));
    top.knob.setValue(uint64_t(0xa5));
    for (int c = 0; c < 300; ++c) {
        ref.cycle();
        sim.cycle();
        for (const Net &net : ref.elaboration().nets) {
            ASSERT_EQ(sim.readNet(net.id), ref.readNet(net.id))
                << backend << "/" << layoutPolicyName(policy) << ": "
                << net.name << " diverged at cycle " << ref.numCycles();
        }
    }
    EXPECT_EQ(sim.dynamicFlopNets(), ref.dynamicFlopNets());
    EXPECT_GT(sim.dynamicFlopNets().size(), 9u);
}

INSTANTIATE_TEST_SUITE_P(
    GatedBackends, DynamicFlopLockstep,
    ::testing::Combine(::testing::Values("bytecode", "cpp-block",
                                         "cpp-design"),
                       ::testing::Values(LayoutPolicy::Elab,
                                         LayoutPolicy::Profile)),
    [](const ::testing::TestParamInfo<
        std::tuple<std::string, LayoutPolicy>> &i) {
        std::string name = std::get<0>(i.param) + "_" +
                           layoutPolicyName(std::get<1>(i.param));
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace cmtl
