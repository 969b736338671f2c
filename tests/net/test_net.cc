#include <gtest/gtest.h>

#include "core/lint.h"
#include "core/sim.h"
#include "core/translate.h"
#include "net/fl_network.h"
#include "net/mesh.h"
#include "net/traffic.h"
#include "refcpp/refnet.h"

namespace cmtl {
namespace {

using net::MeshNetworkCL;
using net::MeshNetworkRTL;
using net::MeshTrafficTop;
using net::NetLevel;
using net::NetworkFL;
using net::xyHops;
using net::xyRoute;

// -------------------------------------------------------------- routing

TEST(Routing, XyRouteIsDimensionOrdered)
{
    // 4x4 mesh: router 5 = (1,1).
    EXPECT_EQ(xyRoute(5, 5, 4), net::TERM);
    EXPECT_EQ(xyRoute(5, 6, 4), net::EAST);
    EXPECT_EQ(xyRoute(5, 4, 4), net::WEST);
    EXPECT_EQ(xyRoute(5, 1, 4), net::NORTH);
    EXPECT_EQ(xyRoute(5, 9, 4), net::SOUTH);
    // X first: dest (3,0) from (1,1) goes EAST, not NORTH.
    EXPECT_EQ(xyRoute(5, 3, 4), net::EAST);
}

TEST(Routing, HopsAreManhattan)
{
    EXPECT_EQ(xyHops(0, 15, 4), 6);
    EXPECT_EQ(xyHops(5, 5, 4), 0);
    EXPECT_EQ(xyHops(0, 63, 8), 14);
}

TEST(Routing, MeshDimRejectsNonSquares)
{
    EXPECT_THROW(net::meshDim(10), std::invalid_argument);
    EXPECT_EQ(net::meshDim(16), 4);
    EXPECT_EQ(net::meshDim(64), 8);
}

// --------------------------------------------------- delivery correctness

struct DeliveryCheck
{
    uint64_t received;
    uint64_t generated;
    uint64_t latency_sum;
};

DeliveryCheck
runTraffic(NetLevel level, int nrouters, double rate, int cycles,
           const SimConfig &cfg = SimConfig{}, uint64_t seed = 42)
{
    auto top = std::make_unique<MeshTrafficTop>("top", level, nrouters, 4,
                                                rate, seed);
    auto elab = top->elaborate();
    SimulationTool sim(elab, cfg);
    sim.reset();
    sim.cycle(static_cast<uint64_t>(cycles));
    // Drain: stop generating by relying on low in-flight counts.
    int guard = 0;
    while (top->inFlight() > 0 && ++guard < 10000)
        sim.cycle();
    return DeliveryCheck{top->stats().received, top->stats().generated,
                         top->stats().latency_sum};
}

class NetLevels : public ::testing::TestWithParam<NetLevel>
{};

TEST_P(NetLevels, LightTrafficIsFullyDelivered)
{
    DeliveryCheck check = runTraffic(GetParam(), 16, 0.05, 500);
    EXPECT_GT(check.generated, 200u);
    // Everything generated is eventually delivered (minus messages
    // still queued at sources when generation continues; the drain
    // loop only waits for in-network messages, so allow tiny slack).
    EXPECT_GE(check.received + 32, check.generated);
}

TEST_P(NetLevels, SaturatedTrafficDoesNotDeadlock)
{
    auto top = std::make_unique<MeshTrafficTop>("top", GetParam(), 16, 4,
                                                0.9, 7);
    auto elab = top->elaborate();
    SimulationTool sim(elab);
    sim.reset();
    uint64_t last_received = 0;
    for (int chunk = 0; chunk < 10; ++chunk) {
        sim.cycle(100);
        // Forward progress every chunk: no deadlock under overload.
        EXPECT_GT(top->stats().received, last_received);
        last_received = top->stats().received;
    }
}

INSTANTIATE_TEST_SUITE_P(Levels, NetLevels,
                         ::testing::Values(NetLevel::FL, NetLevel::CL,
                                           NetLevel::RTL),
                         [](const auto &info) {
                             return net::netLevelName(info.param);
                         });

TEST(NetDelivery, MessagesArriveAtCorrectDestination)
{
    // Directed check on the CL mesh: send one message from every
    // source to a fixed destination and count ejections there.
    const int n = 16;
    auto netm = std::make_unique<MeshNetworkCL>(nullptr, "net", n, 16,
                                                16, 4);
    auto elab = netm->elaborate();
    SimulationTool sim(elab);
    sim.reset();
    const auto &layout = netm->msgType();
    for (int t = 0; t < n; ++t)
        netm->out[t].rdy.setValue(uint64_t(1));

    // Inject from router 3 to router 12 and watch only terminal 12.
    Bits msg = layout.pack({12, 3, 0, 0xabcd});
    netm->in_[3].msg.setValue(msg);
    netm->in_[3].val.setValue(uint64_t(1));
    sim.eval();
    int delivered_at = -1;
    for (int cycle = 0; cycle < 50 && delivered_at < 0; ++cycle) {
        bool accepted = netm->in_[3].fire(); // fires during this cycle
        sim.cycle();
        if (accepted)
            netm->in_[3].val.setValue(uint64_t(0)); // send exactly one
        for (int t = 0; t < n; ++t) {
            if (netm->out[t].fire()) {
                EXPECT_EQ(t, 12);
                EXPECT_EQ(layout.get(netm->out[t].msg.value(), "payload")
                              .toUint64(),
                          0xabcdu);
                delivered_at = t;
            }
        }
    }
    EXPECT_EQ(delivered_at, 12);
}

// --------------------------------------------- zero-load latency (paper)

TEST(NetLatency, ClZeroLoadLatencyNearPaperValue)
{
    // Paper Section III-D: 8x8 CL mesh has ~13-cycle zero-load latency.
    auto top = std::make_unique<MeshTrafficTop>("top", NetLevel::CL, 64,
                                                4, 0.005, 9);
    auto elab = top->elaborate();
    SimulationTool sim(elab);
    sim.reset();
    sim.cycle(500);
    top->resetStats();
    sim.cycle(4000);
    double zero_load = top->stats().avgLatency();
    EXPECT_GT(zero_load, 9.0);
    EXPECT_LT(zero_load, 17.0);
}

TEST(NetLatency, LatencyGrowsWithLoad)
{
    // Beyond saturation on the 8x8 mesh, queueing delay dominates.
    // Use the cycle-exact reference model so the sweep stays fast.
    double lat_low = 0, lat_high = 0;
    for (double rate : {0.05, 0.42}) {
        refcpp::RefMeshCL ref(64, 4, rate, 11);
        ref.cycle(1000);
        ref.resetStats();
        ref.cycle(3000);
        (rate < 0.1 ? lat_low : lat_high) = ref.stats().avgLatency();
    }
    EXPECT_GT(lat_high, lat_low * 2.0);
}

// ----------------------------------------- reference C++ cycle-exactness

TEST(RefNet, CycleExactWithClNetwork)
{
    for (int nrouters : {16, 64}) {
        for (double rate : {0.05, 0.25}) {
            auto top = std::make_unique<MeshTrafficTop>(
                "top", NetLevel::CL, nrouters, 4, rate, 123);
            auto elab = top->elaborate();
            SimulationTool sim(elab);
            refcpp::RefMeshCL ref(nrouters, 4, rate, 123);

            sim.cycle(300);
            ref.cycle(300);

            EXPECT_EQ(ref.stats().generated, top->stats().generated)
                << nrouters << "@" << rate;
            EXPECT_EQ(ref.stats().injected, top->stats().injected)
                << nrouters << "@" << rate;
            EXPECT_EQ(ref.stats().received, top->stats().received)
                << nrouters << "@" << rate;
            EXPECT_EQ(ref.stats().latency_sum, top->stats().latency_sum)
                << nrouters << "@" << rate;
            EXPECT_EQ(ref.inFlight(), top->inFlight());
        }
    }
}

// ------------------------------------------------ cross-mode equivalence

TEST(NetModes, RtlMeshStatsIdenticalAcrossBackends)
{
    net::NetStats golden{};
    bool first = true;
    for (Backend backend :
         {Backend::OptInterp, Backend::Bytecode, Backend::CppBlock}) {
        if (backend == Backend::CppBlock && !CppJit::compilerAvailable())
            continue;
        auto top = std::make_unique<MeshTrafficTop>(
            "top", NetLevel::RTL, 16, 2, 0.2, 77);
        auto elab = top->elaborate();
        SimConfig cfg;
        cfg.backend = backend;
        SimulationTool sim(elab, cfg);
        sim.cycle(300);
        if (first) {
            golden = top->stats();
            first = false;
        } else {
            EXPECT_EQ(top->stats().received, golden.received);
            EXPECT_EQ(top->stats().latency_sum, golden.latency_sum);
        }
    }
}

TEST(NetModes, RtlMeshInterpMatchesOptInterp)
{
    net::NetStats golden{};
    bool first = true;
    for (Backend backend : {Backend::OptInterp, Backend::Interp}) {
        auto top = std::make_unique<MeshTrafficTop>(
            "top", NetLevel::RTL, 16, 2, 0.2, 78);
        auto elab = top->elaborate();
        SimConfig cfg;
        cfg.backend = backend;
        SimulationTool sim(elab, cfg);
        sim.cycle(120);
        if (first) {
            golden = top->stats();
            first = false;
        } else {
            EXPECT_EQ(top->stats().received, golden.received);
            EXPECT_EQ(top->stats().latency_sum, golden.latency_sum);
        }
    }
}

// --------------------------------------------------------- translatability

TEST(NetTranslate, RtlMeshTranslatesToVerilog)
{
    MeshNetworkRTL netm(nullptr, "net", 4, 16, 16, 2);
    auto elab = netm.elaborate();
    std::string v = TranslationTool().translate(*elab);
    EXPECT_NE(v.find("module Mesh_RouterRTL_0_2_4"), std::string::npos);
    EXPECT_NE(v.find("module RouterRTL_0_2"), std::string::npos);
    EXPECT_NE(v.find("module RouterRTL_3_2"), std::string::npos);
    EXPECT_NE(v.find("module RtlQueue_"), std::string::npos);
    EXPECT_NE(v.find("module RoundRobinArbiter_5"), std::string::npos);
}

TEST(NetTranslate, ClMeshIsNotTranslatable)
{
    MeshNetworkCL netm(nullptr, "net", 4, 16, 16, 2);
    auto elab = netm.elaborate();
    EXPECT_THROW(TranslationTool().translate(*elab), std::logic_error);
}

TEST(NetLint, RtlMeshHasNoDriverErrors)
{
    MeshNetworkRTL netm(nullptr, "net", 16, 16, 16, 2);
    auto elab = netm.elaborate();
    auto issues = LintTool().run(*elab);
    for (const auto &issue : issues) {
        EXPECT_NE(issue.severity, LintSeverity::Error)
            << LintTool::format({issue});
    }
}

TEST(NetSpec, RtlMeshIsFullySpecializable)
{
    auto top = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 16,
                                                2, 0.1, 5);
    auto elab = top->elaborate();
    SimConfig cfg;
    cfg.backend = Backend::Bytecode;
    SimulationTool sim(elab, cfg);
    // Every block except the traffic lambda is specialized.
    EXPECT_EQ(sim.specStats().numSpecialized,
              sim.specStats().numBlocks - 1);
}

} // namespace
} // namespace cmtl
