#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "core/sim.h"
#include "core/translate.h"
#include "stdlib/adapters.h"
#include "stdlib/arbiters.h"
#include "stdlib/basic.h"
#include "stdlib/queues.h"
#include "stdlib/test_memory.h"
#include "stdlib/test_source_sink.h"

namespace cmtl {
namespace {

using stdlib::ChildReqRespQueueAdapter;
using stdlib::IntPipelinedMultiplier;
using stdlib::ParentReqRespQueueAdapter;
using stdlib::RegEn;
using stdlib::RegRst;
using stdlib::RoundRobinArbiter;
using stdlib::RtlQueue;
using stdlib::TestMemory;
using stdlib::TestSink;
using stdlib::TestSource;

// --------------------------------------------------------------- basics

TEST(StdlibRegs, RegRstResetsToConstant)
{
    RegRst top(nullptr, "top", 8, 0x5a);
    auto elab = top.elaborate();
    SimulationTool sim(elab);
    top.in_.setValue(uint64_t(0x11));
    sim.reset();
    EXPECT_EQ(top.out.u64(), 0x5au);
    sim.cycle();
    EXPECT_EQ(top.out.u64(), 0x11u);
}

TEST(StdlibRegs, RegEnHoldsWithoutEnable)
{
    RegEn top(nullptr, "top", 8);
    auto elab = top.elaborate();
    SimulationTool sim(elab);
    top.in_.setValue(uint64_t(7));
    top.en.setValue(uint64_t(1));
    sim.cycle();
    EXPECT_EQ(top.out.u64(), 7u);
    top.in_.setValue(uint64_t(9));
    top.en.setValue(uint64_t(0));
    sim.cycle(3);
    EXPECT_EQ(top.out.u64(), 7u);
}

TEST(StdlibMult, PipelineLatencyMatchesStages)
{
    for (int nstages : {1, 2, 4}) {
        IntPipelinedMultiplier top(nullptr, "top", 32, nstages);
        auto elab = top.elaborate();
        SimulationTool sim(elab);
        top.op_a.setValue(uint64_t(6));
        top.op_b.setValue(uint64_t(7));
        for (int i = 0; i < nstages; ++i) {
            EXPECT_EQ(top.product.u64(), 0u) << "stage " << i;
            sim.cycle();
        }
        EXPECT_EQ(top.product.u64(), 42u) << nstages << " stages";
    }
}

TEST(StdlibMult, PipelinedThroughput)
{
    IntPipelinedMultiplier top(nullptr, "top", 32, 4);
    auto elab = top.elaborate();
    SimulationTool sim(elab);
    std::vector<uint64_t> outs;
    for (int i = 1; i <= 10; ++i) {
        top.op_a.setValue(uint64_t(i));
        top.op_b.setValue(uint64_t(i));
        sim.cycle();
        outs.push_back(top.product.u64());
    }
    // Input k (applied before cycle k-1) emerges after cycle k+2:
    // after the fill, products appear back-to-back.
    for (int i = 3; i < 10; ++i)
        EXPECT_EQ(outs[i], uint64_t((i - 2) * (i - 2)));
}

// --------------------------------------------------------------- queues

class QueueHarness : public Model
{
  public:
    TestSource src;
    RtlQueue queue;
    TestSink sink;

    QueueHarness(std::vector<Bits> msgs, int nentries, int src_delay,
                 int sink_delay)
        : Model(nullptr, "harness"),
          src(this, "src", 16, msgs, src_delay),
          queue(this, "queue", 16, nentries),
          sink(this, "sink", 16, msgs, sink_delay)
    {
        connectValRdy(*this, src.out, queue.enq);
        connectValRdy(*this, queue.deq, sink.in_);
    }
};

class QueueSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{};

TEST_P(QueueSweep, MessagesFlowInOrder)
{
    auto [nentries, src_delay, sink_delay] = GetParam();
    std::vector<Bits> msgs;
    for (int i = 1; i <= 20; ++i)
        msgs.push_back(Bits(16, static_cast<uint64_t>(i * 0x101)));

    QueueHarness harness(msgs, nentries, src_delay, sink_delay);
    auto elab = harness.elaborate();
    SimulationTool sim(elab);
    sim.reset();
    int guard = 0;
    while (!harness.sink.done() && ++guard < 1000)
        sim.cycle();
    EXPECT_TRUE(harness.sink.done()) << "deadlock or lost messages";
    EXPECT_TRUE(harness.sink.errors().empty())
        << harness.sink.errors().front();
}

INSTANTIATE_TEST_SUITE_P(
    Configs, QueueSweep,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(0, 1, 3),
                       ::testing::Values(0, 1, 3)));

TEST(StdlibQueue, BackpressureLimitsOccupancy)
{
    // Source streams; the sink accepts one message then stalls
    // indefinitely: the queue fills to capacity and the source stalls.
    std::vector<Bits> msgs(10, Bits(16, 0xaa));
    QueueHarness harness(msgs, 2, 0, 1000000);
    auto elab = harness.elaborate();
    SimulationTool sim(elab);
    sim.reset();
    sim.cycle(20);
    EXPECT_EQ(harness.src.numSent(), 3u); // 1 consumed + 2 buffered
    EXPECT_EQ(harness.sink.numReceived(), 1u);
}

TEST(StdlibQueue, TranslatesToVerilog)
{
    RtlQueue top(nullptr, "top", 16, 2);
    auto elab = top.elaborate();
    std::string v = TranslationTool().translate(*elab);
    EXPECT_NE(v.find("module RtlQueue_16_2"), std::string::npos);
    EXPECT_NE(v.find("always @(posedge clk)"), std::string::npos);
}

TEST(StdlibQueue, IsFullySpecializable)
{
    RtlQueue top(nullptr, "top", 16, 2);
    auto elab = top.elaborate();
    SimConfig cfg;
    cfg.backend = Backend::Bytecode;
    SimulationTool sim(elab, cfg);
    EXPECT_EQ(sim.specStats().numSpecialized, sim.specStats().numBlocks);
}

// -------------------------------------------------------------- arbiter

TEST(StdlibArbiter, GrantsAreOneHotSubsetOfRequests)
{
    RoundRobinArbiter top(nullptr, "top", 4);
    auto elab = top.elaborate();
    SimulationTool sim(elab);
    std::mt19937 rng(3);
    for (int i = 0; i < 100; ++i) {
        uint64_t reqs = rng() & 0xf;
        top.reqs.setValue(reqs);
        top.en.setValue(uint64_t(1));
        sim.eval();
        uint64_t grants = top.grants.u64();
        EXPECT_EQ(grants & ~reqs, 0u) << "grant without request";
        EXPECT_LE(__builtin_popcountll(grants), 1) << "not one-hot";
        if (reqs) {
            EXPECT_NE(grants, 0u) << "no grant despite requests";
        }
        sim.cycle();
    }
}

TEST(StdlibArbiter, RoundRobinIsFair)
{
    RoundRobinArbiter top(nullptr, "top", 4);
    auto elab = top.elaborate();
    SimulationTool sim(elab);
    sim.reset();
    top.reqs.setValue(uint64_t(0xf)); // all requesting, always
    top.en.setValue(uint64_t(1));
    std::vector<int> counts(4, 0);
    for (int i = 0; i < 40; ++i) {
        sim.eval();
        uint64_t grants = top.grants.u64();
        for (int k = 0; k < 4; ++k) {
            if (grants & (uint64_t(1) << k))
                ++counts[k];
        }
        sim.cycle();
    }
    for (int k = 0; k < 4; ++k)
        EXPECT_EQ(counts[k], 10) << "requester " << k;
}

TEST(StdlibArbiter, PriorityHoldsWithoutEnable)
{
    RoundRobinArbiter top(nullptr, "top", 2);
    auto elab = top.elaborate();
    SimulationTool sim(elab);
    sim.reset();
    top.reqs.setValue(uint64_t(0x3));
    top.en.setValue(uint64_t(0));
    sim.eval();
    uint64_t first = top.grants.u64();
    sim.cycle(3);
    EXPECT_EQ(top.grants.u64(), first); // pointer frozen
}

// --------------------------------------------------------------- memory

class MemHarness : public Model
{
  public:
    ParentReqRespBundle mem_ifc;
    TestMemory mem;
    std::unique_ptr<ParentReqRespQueueAdapter> adapter;

    explicit MemHarness(int latency)
        : Model(nullptr, "harness"),
          mem_ifc(this, "mem_ifc", memIfcTypes()),
          mem(this, "mem", 1, latency)
    {
        connectReqResp(*this, mem_ifc, mem.ifc[0]);
        adapter = std::make_unique<ParentReqRespQueueAdapter>(mem_ifc);
        tickFl("drive", [this] { adapter->xtick(); });
    }
};

TEST(StdlibMemory, WriteThenReadRoundTrip)
{
    MemHarness harness(1);
    auto elab = harness.elaborate();
    SimulationTool sim(elab);
    sim.reset();

    auto types = memIfcTypes();
    harness.adapter->pushReq(
        makeMemReq(types.req, MemReqType::Write, 0x100, 0xdeadbeef));
    harness.adapter->pushReq(
        makeMemReq(types.req, MemReqType::Read, 0x100));
    int guard = 0;
    std::vector<Bits> resps;
    while (resps.size() < 2 && ++guard < 100) {
        sim.cycle();
        while (!harness.adapter->resp_q.empty())
            resps.push_back(harness.adapter->getResp());
    }
    ASSERT_EQ(resps.size(), 2u);
    EXPECT_EQ(types.resp.get(resps[0], "type").toUint64(), 1u);
    EXPECT_EQ(types.resp.get(resps[1], "data").toUint64(), 0xdeadbeefu);
    EXPECT_EQ(harness.mem.numRequests(), 2u);
}

TEST(StdlibMemory, HostPreloadIsVisible)
{
    MemHarness harness(2);
    harness.mem.writeWord(0x40, 1234);
    auto elab = harness.elaborate();
    SimulationTool sim(elab);
    sim.reset();
    auto types = memIfcTypes();
    harness.adapter->pushReq(
        makeMemReq(types.req, MemReqType::Read, 0x40));
    int guard = 0;
    while (harness.adapter->resp_q.empty() && ++guard < 100)
        sim.cycle();
    Bits resp = harness.adapter->getResp();
    EXPECT_EQ(types.resp.get(resp, "data").toUint64(), 1234u);
}

TEST(StdlibMemory, LatencyIsRespected)
{
    for (int latency : {1, 4, 8}) {
        MemHarness harness(latency);
        auto elab = harness.elaborate();
        SimulationTool sim(elab);
        sim.reset();
        auto types = memIfcTypes();
        harness.adapter->pushReq(
            makeMemReq(types.req, MemReqType::Read, 0x0));
        int cycles = 0;
        while (harness.adapter->resp_q.empty() && cycles < 100) {
            sim.cycle();
            ++cycles;
        }
        // Higher latency -> strictly more cycles to respond.
        EXPECT_GE(cycles, latency) << "latency " << latency;
        EXPECT_LT(cycles, latency + 8) << "latency " << latency;
    }
}

TEST(StdlibMemory, PipelinedRequestsSustainThroughput)
{
    MemHarness harness(4);
    auto elab = harness.elaborate();
    SimulationTool sim(elab);
    sim.reset();
    auto types = memIfcTypes();
    int received = 0;
    int sent = 0;
    for (int cycle = 0; cycle < 120; ++cycle) {
        if (sent < 64 && !harness.adapter->req_q.full()) {
            harness.adapter->pushReq(makeMemReq(
                types.req, MemReqType::Read,
                static_cast<uint64_t>(sent) * 4));
            ++sent;
        }
        sim.cycle();
        while (!harness.adapter->resp_q.empty()) {
            harness.adapter->getResp();
            ++received;
        }
    }
    EXPECT_EQ(received, 64);
    // Amortized throughput near 1 per cycle: 64 reqs in ~<110 cycles.
    EXPECT_GE(received, 60);
}

// ----------------------------------------------------------- src / sink

TEST(StdlibSrcSink, DirectConnectionDelivers)
{
    class Direct : public Model
    {
      public:
        TestSource src;
        TestSink sink;
        Direct(std::vector<Bits> msgs)
            : Model(nullptr, "d"), src(this, "src", 8, msgs, 0),
              sink(this, "sink", 8, msgs, 0)
        {
            connectValRdy(*this, src.out, sink.in_);
        }
    };
    std::vector<Bits> msgs;
    for (int i = 0; i < 5; ++i)
        msgs.push_back(Bits(8, static_cast<uint64_t>(i + 1)));
    Direct d(msgs);
    auto elab = d.elaborate();
    SimulationTool sim(elab);
    sim.reset();
    int guard = 0;
    while (!d.sink.done() && ++guard < 50)
        sim.cycle();
    EXPECT_TRUE(d.sink.done());
    EXPECT_TRUE(d.sink.errors().empty());
}

TEST(StdlibSrcSink, SinkReportsMismatches)
{
    class Direct : public Model
    {
      public:
        TestSource src;
        TestSink sink;
        Direct(std::vector<Bits> send, std::vector<Bits> expect)
            : Model(nullptr, "d"), src(this, "src", 8, send, 0),
              sink(this, "sink", 8, expect, 0)
        {
            connectValRdy(*this, src.out, sink.in_);
        }
    };
    Direct d({Bits(8, 1), Bits(8, 2)}, {Bits(8, 1), Bits(8, 3)});
    auto elab = d.elaborate();
    SimulationTool sim(elab);
    sim.reset();
    sim.cycle(20);
    ASSERT_EQ(d.sink.errors().size(), 1u);
    EXPECT_NE(d.sink.errors()[0].find("expected 0x03"),
              std::string::npos);
}

} // namespace
} // namespace cmtl
