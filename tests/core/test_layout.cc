/**
 * ArenaLayout: the physical data layout is an implementation detail.
 *
 * The contract under test: simulated architecture state, VCD streams
 * and snapshot digests are byte-identical across layout policies
 * (elab vs profile), backends (interp, bytecode, cpp-design) and
 * thread counts (1, 4) — on an RTL 8x8 mesh and a CL multi-tile
 * system. Plus: policy-name round trips, bit-packing value round
 * trips at the 1/17/64/65-bit corner widths, snapshot restore across
 * layouts in both directions, and a forced mid-run PGO re-layout
 * (bytecode warm-up -> heat-refined native tier) holding lockstep
 * state with a reference simulator across the arena migration.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/jit_cpp.h"
#include "core/layout.h"
#include "core/partition.h"
#include "core/psim.h"
#include "core/sim.h"
#include "core/snap.h"
#include "core/vcd.h"
#include "net/traffic.h"
#include "tile/multitile.h"

namespace cmtl {
namespace {

using net::MeshTrafficTop;
using net::NetLevel;

// ------------------------------------------------------ policy names

TEST(LayoutNames, RoundTripsAndRejectsGarbage)
{
    EXPECT_EQ(layoutPolicyName(LayoutPolicy::Elab), std::string("elab"));
    EXPECT_EQ(layoutPolicyName(LayoutPolicy::Profile),
              std::string("profile"));
    EXPECT_EQ(layoutPolicyFromName("elab"), LayoutPolicy::Elab);
    EXPECT_EQ(layoutPolicyFromName("profile"), LayoutPolicy::Profile);
    EXPECT_THROW(layoutPolicyFromName("fastest"), std::invalid_argument);
    EXPECT_THROW(layoutPolicyFromName(""), std::invalid_argument);
}

TEST(LayoutNames, PolicyIsNotPartOfTheBackendName)
{
    // --layout is orthogonal to --backend: the canonical backend
    // string must not change when the layout does.
    SimConfig cfg = SimConfig::fromString("cpp-design");
    cfg.layout = LayoutPolicy::Profile;
    EXPECT_EQ(cfg.toString(), "cpp-design");
}

// ------------------------------------------- cross-layout equivalence

void
expectSameState(Simulator &a, Simulator &b, const std::string &ctx)
{
    const auto &nets = a.elaboration().nets;
    for (const Net &net : nets) {
        ASSERT_EQ(a.readNet(net.id), b.readNet(net.id))
            << ctx << ": net " << net.name << " diverged at cycle "
            << a.numCycles();
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

SimConfig
layoutCfg(const std::string &backend, LayoutPolicy policy, int threads)
{
    SimConfig cfg = SimConfig::fromString(backend);
    cfg.layout = policy;
    cfg.threads = threads;
    return cfg;
}

bool
needsCompiler(const std::string &backend)
{
    return backend.find("cpp") != std::string::npos;
}

class LayoutEquiv
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{
  protected:
    void
    SetUp() override
    {
        auto [backend, threads] = GetParam();
        if (needsCompiler(backend) && !CppJit::compilerAvailable())
            GTEST_SKIP() << "no host compiler";
        if (threads > 1 &&
            backendBoxedHost(SimConfig::fromString(backend).backend))
            GTEST_SKIP() << "boxed backends are sequential-only";
    }
};

TEST_P(LayoutEquiv, Mesh8x8RtlStateVcdAndDigestMatchAcrossLayouts)
{
    auto [backend, threads] = GetParam();
    const int nrouters = 64, cycles = 120; // the fig14 8x8 mesh
    auto makeTop = [&] {
        return std::make_unique<MeshTrafficTop>("top", NetLevel::RTL,
                                                nrouters, 4, 0.3, 7);
    };
    const std::string tag = backend + "_t" + std::to_string(threads) +
                            "_" + std::to_string(::getpid());

    // Reference: boxed tree-walk interpreter, elab layout.
    auto gt = makeTop();
    auto golden = makeSimulator(
        gt->elaborate(), layoutCfg("interp", LayoutPolicy::Elab, 1));
    const std::string golden_path =
        ::testing::TempDir() + "layout_golden_" + tag + ".vcd";
    {
        VcdWriter vcd(*golden, golden_path);
        golden->reset();
        golden->cycle(cycles);
        vcd.close();
    }
    const std::string golden_vcd = slurp(golden_path);
    ASSERT_FALSE(golden_vcd.empty());
    const uint64_t golden_digest = stateDigest(*golden);

    for (LayoutPolicy policy :
         {LayoutPolicy::Elab, LayoutPolicy::Profile}) {
        const std::string ctx = backend +
                                " threads=" + std::to_string(threads) +
                                " layout=" + layoutPolicyName(policy);
        const std::string path = ::testing::TempDir() + "layout_run_" +
                                 layoutPolicyName(policy) + "_" + tag +
                                 ".vcd";
        auto tt = makeTop();
        auto sim = makeSimulator(tt->elaborate(),
                                 layoutCfg(backend, policy, threads));
        {
            VcdWriter vcd(*sim, path);
            sim->reset();
            sim->cycle(cycles);
            vcd.close();
        }
        EXPECT_EQ(sim->numCycles(), golden->numCycles()) << ctx;
        expectSameState(*golden, *sim, ctx);
        EXPECT_EQ(stateDigest(*sim), golden_digest) << ctx;
        EXPECT_EQ(slurp(path), golden_vcd)
            << "VCD streams differ: " << ctx;
        // Boxed (interp-hosted) stores have no physical layout, so
        // their stats report the default; arena backends must report
        // the policy they were built with.
        if (backend != "interp") {
            EXPECT_EQ(std::string(
                          layoutPolicyName(sim->layoutStats().policy)),
                      std::string(layoutPolicyName(policy)))
                << ctx;
        }
        std::remove(path.c_str());
    }
    std::remove(golden_path.c_str());
}

TEST_P(LayoutEquiv, MultiTileClDigestsMatchAcrossLayouts)
{
    using namespace tile;
    auto [backend, threads] = GetParam();
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

    auto sys_g = makeSys();
    auto golden = makeSimulator(
        sys_g->elaborate(), layoutCfg("interp", LayoutPolicy::Elab, 1));
    golden->reset();
    const int cycles = 1500;
    golden->cycle(cycles);
    const uint64_t golden_digest = stateDigest(*golden);

    for (LayoutPolicy policy :
         {LayoutPolicy::Elab, LayoutPolicy::Profile}) {
        const std::string ctx = backend +
                                " threads=" + std::to_string(threads) +
                                " layout=" + layoutPolicyName(policy);
        auto sys = makeSys();
        auto sim = makeSimulator(sys->elaborate(),
                                 layoutCfg(backend, policy, threads));
        sim->reset();
        sim->cycle(cycles);
        EXPECT_EQ(sim->numCycles(), golden->numCycles()) << ctx;
        expectSameState(*golden, *sim, ctx);
        EXPECT_EQ(stateDigest(*sim), golden_digest) << ctx;
    }
}

INSTANTIATE_TEST_SUITE_P(
    LayoutMatrix, LayoutEquiv,
    ::testing::Combine(::testing::Values("interp", "bytecode",
                                         "cpp-design"),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>> &i) {
        std::string name = std::get<0>(i.param) + "_t" +
                           std::to_string(std::get<1>(i.param));
        for (char &c : name) {
            if (c == '-' || c == '+')
                c = '_';
        }
        return name;
    });

// ------------------------------------------------ bit-packing widths

/**
 * Nets at the packing corner widths: 1-, 3- and 17-bit nets are
 * narrow enough to pack (several per flop class, so each class has
 * word mates); 64 fills a word exactly so it stays exclusive; 65
 * spans two words. Every port is mirrored through a register so both
 * comb and flopped values cross the packed accessor paths.
 */
class WidthsTop : public Model
{
  public:
    InPort in1, in1b, in3, in17, in64, in65;
    OutPort out1, out1b, out3, out17, out64, out65;

    explicit WidthsTop(const std::string &name)
        : Model(nullptr, name), in1(this, "in1", 1),
          in1b(this, "in1b", 1), in3(this, "in3", 3),
          in17(this, "in17", 17), in64(this, "in64", 64),
          in65(this, "in65", 65), out1(this, "out1", 1),
          out1b(this, "out1b", 1), out3(this, "out3", 3),
          out17(this, "out17", 17), out64(this, "out64", 64),
          out65(this, "out65", 65)
    {
        auto &b = tickRtl("regs");
        b.assign(out1, rd(in1));
        b.assign(out1b, rd(in1b));
        b.assign(out3, rd(in3));
        b.assign(out17, rd(in17));
        b.assign(out64, rd(in64));
        b.assign(out65, rd(in65));
    }

    std::string typeName() const override { return "WidthsTop"; }
};

TEST(LayoutPacking, CornerWidthValuesRoundTripAcrossLayouts)
{
    auto mk = [](LayoutPolicy policy) {
        auto top = std::make_unique<WidthsTop>("top");
        SimConfig cfg = SimConfig::fromString("optinterp");
        cfg.layout = policy;
        auto sim = std::make_unique<SimulationTool>(top->elaborate(),
                                                    cfg);
        return std::make_pair(std::move(top), std::move(sim));
    };
    auto [top_e, elab] = mk(LayoutPolicy::Elab);
    auto [top_p, prof] = mk(LayoutPolicy::Profile);

    // The profile layout must actually pack the narrow nets (the
    // 1/3/17-bit in and out groups each share a word within their
    // flop class — no measured profile exists here, so packing is by
    // width alone) and keep the 64/65-bit nets word-aligned.
    LayoutStats ls = prof->layoutStats();
    EXPECT_GE(ls.packed_nets, 4);
    EXPECT_GT(ls.packed_bits_saved, 0);
    EXPECT_LT(ls.words_per_phase, elab->layoutStats().words_per_phase);

    Bits wide65 = Bits::fromWords(65, {0xdeadbeefcafef00dull, 1});
    std::vector<std::pair<int, Bits>> pokes = {
        {top_e->in1.netId(), Bits(1, 1)},
        {top_e->in1b.netId(), Bits(1, 0)},
        {top_e->in3.netId(), Bits(3, 5)},
        {top_e->in17.netId(), Bits(17, 0x1ffff)},
        {top_e->in64.netId(), Bits(64, 0xa5a5a5a5a5a5a5a5ull)},
        {top_e->in65.netId(), wide65},
    };
    elab->reset();
    prof->reset();
    for (auto &[net, value] : pokes) {
        elab->pokeNet(net, value);
        prof->pokeNet(net, value);
    }
    elab->cycle(2);
    prof->cycle(2);

    // Values survive the packed write -> flop -> read round trip in
    // both layouts, and the full state agrees net-for-net.
    EXPECT_EQ(prof->readNet(top_p->out1.netId()), Bits(1, 1));
    EXPECT_EQ(prof->readNet(top_p->out1b.netId()), Bits(1, 0));
    EXPECT_EQ(prof->readNet(top_p->out3.netId()), Bits(3, 5));
    EXPECT_EQ(prof->readNet(top_p->out17.netId()), Bits(17, 0x1ffff));
    EXPECT_EQ(prof->readNet(top_p->out64.netId()),
              Bits(64, 0xa5a5a5a5a5a5a5a5ull));
    EXPECT_EQ(prof->readNet(top_p->out65.netId()), wide65);
    expectSameState(*elab, *prof, "widths elab vs profile");
    EXPECT_EQ(stateDigest(*elab), stateDigest(*prof));

    // Writing one packed field must not disturb its word-mates.
    prof->pokeNet(top_p->in1.netId(), Bits(1, 0));
    EXPECT_EQ(prof->readNet(top_p->in1b.netId()), Bits(1, 0));
    EXPECT_EQ(prof->readNet(top_p->in3.netId()), Bits(3, 5));
    prof->pokeNet(top_p->in3.netId(), Bits(3, 2));
    EXPECT_EQ(prof->readNet(top_p->in3.netId()), Bits(3, 2));
    EXPECT_EQ(prof->readNet(top_p->in17.netId()), Bits(17, 0x1ffff));
}

// ------------------------------------------------- flop copy plans

/** Current-phase words spanned by @p nets under @p layout. */
std::set<int>
wordsOf(const ArenaLayout &layout, const std::vector<int> &nets)
{
    std::set<int> words;
    for (int net : nets) {
        const LayoutSlot &s = layout.slot(net);
        for (int w = 0; w < s.nwords; ++w)
            words.insert(s.word_off + w);
    }
    return words;
}

/**
 * Packing never crosses the static-flop class or an owner island, so
 * every word holding a static flop holds only static flops of one
 * island: the flop plan's whole-word ranges must cover exactly the
 * words of the flop nets it was given — sequentially and per ParSim
 * island — with no masked per-net copy left over.
 */
TEST(LayoutFlopPlan, RangesCoverExactlyTheStaticFlopWords)
{
    using namespace tile;
    std::vector<std::unique_ptr<Model>> designs;
    designs.push_back(std::make_unique<WidthsTop>("top"));
    designs.push_back(std::make_unique<MeshTrafficTop>(
        "top", NetLevel::RTL, 16, 4, 0.2, 3));
    designs.push_back(std::make_unique<MultiTileSystem>(
        "sys", std::vector<std::array<Level, 3>>{
                   {Level::RTL, Level::RTL, Level::RTL},
                   {Level::RTL, Level::RTL, Level::RTL}}));
    for (const auto &design : designs) {
        auto elab = design->elaborate();
        std::vector<int> flops;
        for (const Net &net : elab->nets) {
            if (net.floppedStatic)
                flops.push_back(net.id);
        }
        auto covered = [](const FlopCopyPlan &plan) {
            std::set<int> words;
            for (const FlopRange &r : plan.ranges) {
                for (int w = 0; w < r.nwords; ++w)
                    words.insert(r.off + w);
            }
            return words;
        };

        ArenaLayout seq = ArenaLayout::profiled(*elab, nullptr, nullptr);
        EXPECT_GT(seq.stats().packed_nets, 0) << design->typeName();
        EXPECT_EQ(covered(seq.flopPlan(flops)), wordsOf(seq, flops))
            << design->typeName();

        for (int nislands : {2, 4}) {
            PartitionPlan plan = partitionDesign(*elab, nislands);
            ArenaLayout par = ArenaLayout::profiled(*elab, &plan, nullptr);
            for (const PartitionIsland &isl : plan.islands) {
                EXPECT_EQ(covered(par.flopPlan(isl.flopNets)),
                          wordsOf(par, isl.flopNets))
                    << design->typeName() << " at " << nislands
                    << " islands";
            }
        }
    }
}

// ------------------------------------------- snapshot across layouts

TEST(LayoutSnapshot, RestoresAcrossLayoutsBothDirections)
{
    const int nrouters = 16, warm = 100, tail = 100;
    auto makeTop = [&] {
        return std::make_unique<MeshTrafficTop>("top", NetLevel::RTL,
                                                nrouters, 4, 0.3, 13);
    };
    auto run = [&](LayoutPolicy policy, int cycles) {
        auto top = makeTop();
        auto sim = makeSimulator(top->elaborate(),
                                 layoutCfg("bytecode", policy, 1));
        sim->reset();
        sim->cycle(cycles);
        return std::make_pair(std::move(top), std::move(sim));
    };

    // Reference: one uninterrupted elab-layout run.
    auto [rt, ref] = run(LayoutPolicy::Elab, warm + tail);

    // Save under one policy, restore under the other, in both
    // directions; digests are layout-independent so the snapshot
    // carries no trace of the source layout's physical order.
    for (bool elab_to_profile : {true, false}) {
        LayoutPolicy src = elab_to_profile ? LayoutPolicy::Elab
                                           : LayoutPolicy::Profile;
        LayoutPolicy dst = elab_to_profile ? LayoutPolicy::Profile
                                           : LayoutPolicy::Elab;
        auto [st, saver] = run(src, warm);
        SimSnapshot snap = snapSave(*saver);
        EXPECT_EQ(snap.layout_policy, layoutPolicyName(src));

        auto top = makeTop();
        auto sim = makeSimulator(top->elaborate(),
                                 layoutCfg("bytecode", dst, 1));
        snapRestore(*sim, snap);
        EXPECT_EQ(stateDigest(*sim), snap.digest());
        sim->cycle(tail);
        std::string ctx = std::string("restore ") +
                          layoutPolicyName(src) + " -> " +
                          layoutPolicyName(dst);
        EXPECT_EQ(sim->numCycles(), ref->numCycles()) << ctx;
        expectSameState(*ref, *sim, ctx);
        EXPECT_EQ(stateDigest(*sim), stateDigest(*ref)) << ctx;
    }
}

// --------------------------------------------- mid-run PGO re-layout

/**
 * Force a genuine profile-guided re-layout: cpp-design + profile
 * layout defers codegen past a short warm-up window, gathers block
 * heat on the bytecode tier, lays the arena out again from the
 * measured heat and adopts the native tier with a live state
 * migration. The simulation must agree with an elab-layout reference
 * every step of the way — before, across and after the migration.
 */
TEST(LayoutPgo, MidRunRelayoutKeepsLockstepState)
{
    if (!CppJit::compilerAvailable())
        GTEST_SKIP() << "no host compiler";

    auto ta = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 16,
                                               4, 0.3, 21);
    auto tb = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 16,
                                               4, 0.3, 21);
    auto golden = makeSimulator(
        ta->elaborate(), layoutCfg("optinterp", LayoutPolicy::Elab, 1));

    SimConfig cfg = SimConfig::fromString("cpp-design");
    cfg.layout = LayoutPolicy::Profile;
    cfg.pgo_warm_cycles = 64;
    cfg.jit_cache = false; // force a real (slow) background compile
    SimulationTool sim(tb->elaborate(), cfg);
    ASSERT_TRUE(sim.tierPending());
    // The initial arena is already profile-laid-out (plan-free), but
    // not yet heat-refined.
    EXPECT_EQ(sim.layoutStats().policy, LayoutPolicy::Profile);
    EXPECT_FALSE(sim.layoutStats().pgo);

    golden->reset();
    sim.reset();
    uint64_t driven = sim.numCycles(); // reset() itself runs a cycle
    uint64_t warm = 0;
    while (sim.tierPending() && warm < 2000000) {
        golden->cycle(32);
        sim.cycle(32);
        driven += 32;
        warm += 32;
        expectSameState(*golden, sim, "pgo warm-up tier");
    }
    ASSERT_FALSE(sim.tierPending()) << "compile never finished";
    ASSERT_GT(warm, 0u);
    EXPECT_GT(sim.specStats().tierSwapCycle,
              static_cast<int64_t>(cfg.pgo_warm_cycles));

    // The adopted tier runs on the heat-refined layout over migrated
    // state.
    EXPECT_TRUE(sim.layoutStats().pgo);
    EXPECT_EQ(sim.layoutStats().policy, LayoutPolicy::Profile);

    golden->cycle(200);
    sim.cycle(200);
    driven += 200;
    EXPECT_EQ(sim.numCycles(), driven);
    EXPECT_EQ(sim.numCycles(), golden->numCycles());
    expectSameState(*golden, sim, "pgo native tier");
    EXPECT_EQ(stateDigest(*golden), stateDigest(sim));
}

} // namespace
} // namespace cmtl
