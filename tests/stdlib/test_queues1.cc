/**
 * Single-element bypass and pipelined queues: latency and throughput
 * properties, correctness under random stall patterns, and
 * composition into chains.
 */

#include <gtest/gtest.h>

#include <random>

#include "core/sim.h"
#include "core/translate.h"
#include "stdlib/queues.h"
#include "stdlib/test_source_sink.h"

namespace cmtl {
namespace {

using stdlib::BypassQueue1;
using stdlib::PipeQueue1;
using stdlib::RtlQueue;
using stdlib::TestSink;
using stdlib::TestSource;

/** A depth-1 shift queue with the 3-argument harness signature. */
class ShiftQueue1 : public RtlQueue
{
  public:
    ShiftQueue1(Model *parent, const std::string &name, int nbits)
        : RtlQueue(parent, name, nbits, 1)
    {}
};

template <typename QueueT>
class Harness : public Model
{
  public:
    TestSource src;
    QueueT queue;
    TestSink sink;

    Harness(std::vector<Bits> msgs, int src_delay, int sink_delay)
        : Model(nullptr, "h"), src(this, "src", 16, msgs, src_delay),
          queue(this, "q", 16), sink(this, "sink", 16, msgs, sink_delay)
    {
        connectValRdy(*this, src.out, queue.enq);
        connectValRdy(*this, queue.deq, sink.in_);
    }
};

std::vector<Bits>
messages(int count)
{
    std::vector<Bits> msgs;
    for (int i = 1; i <= count; ++i)
        msgs.push_back(Bits(16, static_cast<uint64_t>(i)));
    return msgs;
}

template <typename QueueT>
uint64_t
runToCompletion(int src_delay, int sink_delay, int count = 20)
{
    Harness<QueueT> h(messages(count), src_delay, sink_delay);
    auto elab = h.elaborate();
    SimulationTool sim(elab);
    sim.reset();
    uint64_t cycles = 0;
    while (!h.sink.done() && cycles < 2000) {
        sim.cycle();
        ++cycles;
    }
    EXPECT_TRUE(h.sink.done());
    EXPECT_TRUE(h.sink.errors().empty()) << h.sink.errors().front();
    return cycles;
}

TEST(Queues1, BypassDeliversInOrderUnderStalls)
{
    for (int sd : {0, 1, 3}) {
        for (int kd : {0, 1, 3})
            runToCompletion<BypassQueue1>(sd, kd);
    }
}

TEST(Queues1, PipeDeliversInOrderUnderStalls)
{
    for (int sd : {0, 1, 3}) {
        for (int kd : {0, 1, 3})
            runToCompletion<PipeQueue1>(sd, kd);
    }
}

TEST(Queues1, ThroughputOrdering)
{
    // With a streaming source and sink, the pipe and bypass queues
    // sustain one message per cycle; the 1-entry shift queue only
    // every other cycle (it cannot refill while draining).
    uint64_t pipe = runToCompletion<PipeQueue1>(0, 0, 40);
    uint64_t bypass = runToCompletion<BypassQueue1>(0, 0, 40);
    uint64_t normal = runToCompletion<ShiftQueue1>(0, 0, 40);
    EXPECT_LE(pipe, 45u);
    EXPECT_LE(bypass, 45u);
    EXPECT_GE(normal, 75u);
}

TEST(Queues1, BypassHasZeroCycleLatency)
{
    // A single message traverses bypass combinationally: the sink
    // fires on the same cycle the source asserts val.
    Harness<BypassQueue1> h(messages(1), 0, 0);
    auto elab = h.elaborate();
    SimulationTool sim(elab);
    sim.reset(); // after reset, source drives val next cycle
    int cycles_until_done = 0;
    while (!h.sink.done() && cycles_until_done < 10) {
        sim.cycle();
        ++cycles_until_done;
    }
    Harness<PipeQueue1> hp(messages(1), 0, 0);
    auto elab2 = hp.elaborate();
    SimulationTool sim2(elab2);
    sim2.reset();
    int pipe_cycles = 0;
    while (!hp.sink.done() && pipe_cycles < 10) {
        sim2.cycle();
        ++pipe_cycles;
    }
    EXPECT_LT(cycles_until_done, pipe_cycles);
}

TEST(Queues1, ChainedMixedQueuesPreserveOrder)
{
    // src -> pipe -> bypass -> shift(2) -> sink.
    class Chain : public Model
    {
      public:
        TestSource src;
        PipeQueue1 q1;
        BypassQueue1 q2;
        RtlQueue q3;
        TestSink sink;
        Chain(std::vector<Bits> msgs)
            : Model(nullptr, "chain"), src(this, "src", 16, msgs, 1),
              q1(this, "q1", 16), q2(this, "q2", 16),
              q3(this, "q3", 16, 2), sink(this, "sink", 16, msgs, 2)
        {
            connectValRdy(*this, src.out, q1.enq);
            connectValRdy(*this, q1.deq, q2.enq);
            connectValRdy(*this, q2.deq, q3.enq);
            connectValRdy(*this, q3.deq, sink.in_);
        }
    };
    Chain chain(messages(30));
    auto elab = chain.elaborate();
    SimulationTool sim(elab);
    sim.reset();
    int guard = 0;
    while (!chain.sink.done() && ++guard < 2000)
        sim.cycle();
    EXPECT_TRUE(chain.sink.done());
    EXPECT_TRUE(chain.sink.errors().empty());
}

TEST(Queues1, TranslateAndSpecialize)
{
    for (int variant = 0; variant < 2; ++variant) {
        std::unique_ptr<Model> q;
        if (variant == 0)
            q = std::make_unique<BypassQueue1>(nullptr, "q", 8);
        else
            q = std::make_unique<PipeQueue1>(nullptr, "q", 8);
        auto elab = q->elaborate();
        std::string v = TranslationTool().translate(*elab);
        EXPECT_NE(v.find("always @(posedge clk)"), std::string::npos);
        SimConfig cfg;
        cfg.backend = Backend::Bytecode;
        SimulationTool sim(elab, cfg);
        EXPECT_EQ(sim.specStats().numSpecialized,
                  sim.specStats().numBlocks);
    }
}

} // namespace
} // namespace cmtl
