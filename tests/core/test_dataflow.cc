/**
 * @file
 * Tests for the whole-design dataflow engine (dataflow.h): dead-logic
 * liveness and its simulator client (SimConfig::dead_elim), the
 * X-propagation fixpoint with witness chains, and the dead-elimination
 * equivalence contract on the mesh corpus — identical state digests
 * and byte-identical VCDs with elimination on and off, sequential and
 * parallel.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "core/dataflow.h"
#include "core/jit_cpp.h"
#include "core/lint.h"
#include "core/psim.h"
#include "core/sim.h"
#include "core/snap.h"
#include "core/vcd.h"
#include "net/mesh.h"
#include "net/traffic.h"
#include "test_models.h"

namespace cmtl {
namespace {

using net::MeshTrafficTop;
using net::NetLevel;

bool
hasCheck(const std::vector<LintIssue> &issues, const std::string &check)
{
    for (const auto &issue : issues)
        if (issue.check == check)
            return true;
    return false;
}

int
countCheck(const std::vector<LintIssue> &issues, const std::string &check)
{
    int n = 0;
    for (const auto &issue : issues)
        if (issue.check == check)
            ++n;
    return n;
}

// ---------------------------------------------------------- liveness

/**
 * A child whose comb chain w1 = in + 1, w2 = w1 + 1 feeds nothing the
 * top model observes: both blocks and the internal net w1 are outside
 * every sink's cone of influence.
 */
struct DeadLogicChild : Model
{
    InPort in_;
    Wire w1, w2;

    DeadLogicChild(Model *parent, const std::string &name)
        : Model(parent, name), in_(this, "in_", 8), w1(this, "w1", 8),
          w2(this, "w2", 8)
    {
        auto &b1 = combinational("c1");
        b1.assign(w1, rd(in_) + 1);
        auto &b2 = combinational("c2");
        b2.assign(w2, rd(w1) + 1);
    }
};

struct DeadLogicTop : Model
{
    InPort in_;
    OutPort out;
    DeadLogicChild child;

    DeadLogicTop()
        : Model(nullptr, "top"), in_(this, "in_", 8),
          out(this, "out", 8), child(this, "child")
    {
        connect(in_, child.in_);
        auto &b = combinational("c");
        b.assign(out, rd(in_) + 0xff);
    }
};

TEST(DataflowLiveness, UnobservedCombConeIsDead)
{
    DeadLogicTop top;
    auto elab = top.elaborate();
    DataflowResult flow = dataflowAnalyze(*elab);

    EXPECT_EQ(flow.deadBlocks, 2);
    EXPECT_EQ(static_cast<int>(flow.deadCombBlocks().size()), 2);
    // w1 is written *and* read, yet outside every cone.
    EXPECT_EQ(flow.deadNets, 1);
    EXPECT_FALSE(flow.liveNet[top.child.w1.netId()]);
    EXPECT_FALSE(flow.liveNet[top.child.w2.netId()]);
    // The observed output and its input stay live.
    EXPECT_TRUE(flow.liveNet[top.out.netId()]);
    EXPECT_TRUE(flow.liveNet[top.in_.netId()]);
}

TEST(DataflowLiveness, FindingsCarryHierarchicalPaths)
{
    DeadLogicTop top;
    auto elab = top.elaborate();
    DataflowResult flow = dataflowAnalyze(*elab);
    auto issues = dataflowLint(*elab, flow);

    EXPECT_EQ(countCheck(issues, "dead-block"), 2);
    EXPECT_EQ(countCheck(issues, "dead-net"), 1);
    bool found = false;
    for (const auto &issue : issues) {
        if (issue.check == "dead-net") {
            found = true;
            EXPECT_EQ(issue.path, "top.child.w1");
            EXPECT_EQ(issue.severity, LintSeverity::Warning);
        }
    }
    EXPECT_TRUE(found);
    // LintTool::run layers the same client on top of its other checks.
    EXPECT_TRUE(hasCheck(LintTool().run(*elab), "dead-block"));
}

TEST(DataflowLiveness, ObserveAllKeepsEverythingLive)
{
    DeadLogicTop top;
    auto elab = top.elaborate();
    DataflowOptions opts;
    opts.observe_all = true; // the semantics of an attached VCD writer
    DataflowResult flow = dataflowAnalyze(*elab, opts);
    EXPECT_EQ(flow.deadBlocks, 0);
    EXPECT_EQ(flow.deadNets, 0);
}

TEST(DataflowLiveness, ExtraSinkResurrectsTheCone)
{
    DeadLogicTop top;
    auto elab = top.elaborate();
    DataflowOptions opts;
    opts.extra_sinks.push_back(top.child.w2.netId());
    DataflowResult flow = dataflowAnalyze(*elab, opts);
    // Observing w2 pulls the whole chain back into the live cone.
    EXPECT_EQ(flow.deadBlocks, 0);
    EXPECT_TRUE(flow.liveNet[top.child.w1.netId()]);
}

TEST(DataflowLiveness, ConnectedConeStaysLive)
{
    struct LiveTop : Model
    {
        InPort in_;
        OutPort out;
        DeadLogicChild child;
        LiveTop()
            : Model(nullptr, "top"), in_(this, "in_", 8),
              out(this, "out", 8), child(this, "child")
        {
            connect(in_, child.in_);
            auto &b = combinational("c");
            b.assign(out, rd(child.w2));
        }
    } top;
    auto elab = top.elaborate();
    DataflowResult flow = dataflowAnalyze(*elab);
    EXPECT_EQ(flow.deadBlocks, 0);
    EXPECT_EQ(flow.deadNets, 0);
}

// ----------------------------------------------- dead-elim simulator

TEST(DeadElim, SkipsDeadBlocksAndPreservesLiveValues)
{
    DeadLogicTop a, b;
    auto ea = a.elaborate();
    auto eb = b.elaborate();

    SimConfig off;
    SimConfig on = off;
    on.dead_elim = true;

    SimulationTool sim_off(ea, off);
    SimulationTool sim_on(eb, on);
    EXPECT_EQ(sim_off.specStats().deadBlocksElided, 0);
    EXPECT_EQ(sim_on.specStats().deadBlocksElided, 2);
    EXPECT_EQ(sim_on.specStats().deadNetsElided, 1);

    sim_off.reset();
    sim_on.reset();
    sim_off.cycle(4);
    sim_on.cycle(4);

    // Live values agree; the dead chain never ran under elimination,
    // so its nets hold their initial value.
    EXPECT_EQ(sim_off.readNet(a.out.netId()),
              sim_on.readNet(b.out.netId()));
    EXPECT_TRUE(sim_off.readNet(a.child.w1.netId()).any());
    EXPECT_FALSE(sim_on.readNet(b.child.w1.netId()).any());
}

// ----------------------------------------------------- X-propagation

/** Classic unreset enable-flop: q is X until the first en=1 cycle.
 *  The comb stage reading q makes the X observable. */
struct EnableFlop : Model
{
    InPort en, in_;
    Wire q;
    OutPort obs;

    EnableFlop()
        : Model(nullptr, "top"), en(this, "en", 1), in_(this, "in_", 8),
          q(this, "q", 8), obs(this, "obs", 8)
    {
        auto &b = tickRtl("seq");
        b.if_(rd(en), [&] { b.assign(q, rd(in_)); });
        auto &c = combinational("comb");
        c.assign(obs, rd(q));
    }
};

TEST(DataflowXProp, UnresetEnableFlopIsMaybeUninitialized)
{
    EnableFlop top;
    auto elab = top.elaborate();
    DataflowResult flow = dataflowAnalyze(*elab);

    int q = top.q.netId();
    EXPECT_FALSE(flow.definedNet[q]);
    EXPECT_EQ(flow.xKind[q], XCauseKind::NoReset);
    std::string witness = dataflowWitness(*elab, flow, q);
    EXPECT_NE(witness.find("top.q"), std::string::npos) << witness;

    auto issues = dataflowLint(*elab, flow);
    EXPECT_EQ(countCheck(issues, "maybe-uninitialized"), 1);
}

TEST(DataflowXProp, ResetPathMakesFlopDefined)
{
    testmodels::Counter top(nullptr, "top", 8);
    auto elab = top.elaborate();
    DataflowResult flow = dataflowAnalyze(*elab);
    EXPECT_TRUE(flow.definedNet[top.count.netId()]);
    EXPECT_FALSE(
        hasCheck(dataflowLint(*elab, flow), "maybe-uninitialized"));
}

TEST(DataflowXProp, UnconditionalFlopAssignIsDefined)
{
    testmodels::Register top(nullptr, "top", 8);
    auto elab = top.elaborate();
    DataflowResult flow = dataflowAnalyze(*elab);
    EXPECT_TRUE(flow.definedNet[top.out.netId()]);
}

TEST(DataflowXProp, WitnessChainsToRootAndTaintIsNotReReported)
{
    /** Comb logic downstream of the unreset flop is tainted, but only
     *  the root cause is a finding — the cone stays queryable. */
    struct Tainted : Model
    {
        InPort en, in_;
        Wire q;
        OutPort out;
        Tainted()
            : Model(nullptr, "top"), en(this, "en", 1),
              in_(this, "in_", 8), q(this, "q", 8), out(this, "out", 8)
        {
            auto &s = tickRtl("seq");
            s.if_(rd(en), [&] { s.assign(q, rd(in_)); });
            auto &c = combinational("comb");
            c.assign(out, rd(q) + 1);
        }
    } top;
    auto elab = top.elaborate();
    DataflowResult flow = dataflowAnalyze(*elab);

    int out = top.out.netId();
    int q = top.q.netId();
    EXPECT_FALSE(flow.definedNet[out]);
    EXPECT_EQ(flow.xKind[out], XCauseKind::Upstream);
    EXPECT_EQ(flow.xCause[out], q);
    std::string witness = dataflowWitness(*elab, flow, out);
    EXPECT_NE(witness.find("top.out"), std::string::npos) << witness;
    EXPECT_NE(witness.find("top.q"), std::string::npos) << witness;

    // One finding: the root (the flop), not the downstream taint.
    auto issues = dataflowLint(*elab, flow);
    EXPECT_EQ(countCheck(issues, "maybe-uninitialized"), 1);
    for (const auto &issue : issues)
        if (issue.check == "maybe-uninitialized")
            EXPECT_EQ(issue.path, "top.q");
}

// ------------------------------------------------------- mesh corpus

TEST(DataflowCorpus, MeshIsFullyLive)
{
    // Every router feeds the lambda-owning traffic models, so nothing
    // is eliminable — the equivalence tests below must hold exactly.
    net::MeshNetworkRTL mesh(nullptr, "mesh", 4, 16, 16, 2);
    auto elab = mesh.elaborate();
    DataflowResult flow = dataflowAnalyze(*elab);
    EXPECT_EQ(flow.deadBlocks, 0);
    EXPECT_EQ(flow.deadNets, 0);
}

// --------------------------------------- dead-elim mesh equivalence

SimConfig
meshCfg(Backend backend, int threads, bool dead_elim)
{
    SimConfig cfg;
    cfg.backend = backend;
    cfg.threads = threads;
    cfg.dead_elim = dead_elim;
    return cfg;
}

void
runDeadElimEquiv(Backend backend, int threads, int nrouters, int cycles)
{
    auto ta = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL,
                                               nrouters, 4, 0.25, 7);
    auto tb = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL,
                                               nrouters, 4, 0.25, 7);
    auto ea = ta->elaborate();
    auto eb = tb->elaborate();
    auto off = makeSimulator(ea, meshCfg(backend, threads, false));
    auto on = makeSimulator(eb, meshCfg(backend, threads, true));

    off->reset();
    on->reset();
    for (int c = 0; c < cycles; ++c) {
        off->cycle();
        on->cycle();
    }
    for (const Net &net : ea->nets) {
        ASSERT_EQ(off->readNet(net.id), on->readNet(net.id))
            << "net " << net.name << " diverged (" << on->config().toString()
            << " threads=" << threads << ")";
    }
    EXPECT_EQ(stateDigest(*off), stateDigest(*on));
    EXPECT_GT(ta->stats().received, 0u) << "degenerate scenario";
    EXPECT_EQ(ta->stats().received, tb->stats().received);
}

class DeadElimMesh
    : public ::testing::TestWithParam<std::tuple<int, Backend>>
{};

TEST_P(DeadElimMesh, IdenticalDigestsOn8x8)
{
    auto [threads, backend] = GetParam();
    runDeadElimEquiv(backend, threads, 64, 48);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndSpec, DeadElimMesh,
    ::testing::Combine(::testing::Values(1, 4),
                       ::testing::Values(Backend::OptInterp,
                                         Backend::Bytecode)));

TEST(DeadElimMesh, IdenticalDigestsWithCppSpec)
{
    if (!CppJit::compilerAvailable())
        GTEST_SKIP() << "no host compiler";
    runDeadElimEquiv(Backend::CppBlock, 2, 16, 48);
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

TEST(DeadElimMesh, ByteIdenticalWaveforms)
{
    const std::string off_path =
        ::testing::TempDir() + "dead_elim_off.vcd";
    const std::string on_path = ::testing::TempDir() + "dead_elim_on.vcd";
    for (int threads : {1, 4}) {
        auto ta = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL,
                                                   16, 4, 0.3, 11);
        auto tb = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL,
                                                   16, 4, 0.3, 11);
        {
            auto sim = makeSimulator(ta->elaborate(),
                                     meshCfg(Backend::OptInterp, threads,
                                             false));
            VcdWriter vcd(*sim, off_path);
            sim->reset();
            sim->cycle(60);
            vcd.close();
        }
        {
            auto sim = makeSimulator(tb->elaborate(),
                                     meshCfg(Backend::OptInterp, threads,
                                             true));
            VcdWriter vcd(*sim, on_path);
            sim->reset();
            sim->cycle(60);
            vcd.close();
        }
        std::string a = slurp(off_path);
        std::string b = slurp(on_path);
        ASSERT_FALSE(a.empty());
        EXPECT_EQ(a, b) << "VCD streams differ at threads=" << threads;
    }
    std::remove(off_path.c_str());
    std::remove(on_path.c_str());
}

} // namespace
} // namespace cmtl
