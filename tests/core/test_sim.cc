#include <gtest/gtest.h>

#include <deque>

#include "core/sim.h"
#include "test_models.h"

namespace cmtl {
namespace {

using testmodels::allModes;
using testmodels::Counter;
using testmodels::modeName;
using testmodels::Mux;
using testmodels::MuxReg;
using testmodels::Register;
using testmodels::specializes;

class SimModes : public ::testing::TestWithParam<SimConfig>
{};

TEST_P(SimModes, RegisterDelaysByOneCycle)
{
    auto top = std::make_unique<Register>(nullptr, "top", 8);
    auto elab = top->elaborate();
    SimulationTool sim(elab, GetParam());

    top->in_.setValue(uint64_t(0xab));
    EXPECT_EQ(top->out.u64(), 0u);
    sim.cycle();
    EXPECT_EQ(top->out.u64(), 0xabu);
    top->in_.setValue(uint64_t(0xcd));
    EXPECT_EQ(top->out.u64(), 0xabu); // not yet clocked
    sim.cycle();
    EXPECT_EQ(top->out.u64(), 0xcdu);
}

TEST_P(SimModes, MuxIsCombinational)
{
    auto top = std::make_unique<Mux>(nullptr, "top", 8, 4);
    auto elab = top->elaborate();
    SimulationTool sim(elab, GetParam());

    for (int i = 0; i < 4; ++i)
        top->in_[i].setValue(uint64_t(0x10 + i));
    for (int i = 0; i < 4; ++i) {
        top->sel.setValue(uint64_t(i));
        sim.eval();
        EXPECT_EQ(top->out.u64(), 0x10u + i);
    }
}

TEST_P(SimModes, MuxRegComposition)
{
    // Paper Figure 4's test bench, across every execution mode.
    auto top = std::make_unique<MuxReg>(nullptr, "top", 8, 4);
    auto elab = top->elaborate();
    SimulationTool sim(elab, GetParam());

    for (int i = 0; i < 4; ++i)
        top->in_[i].setValue(uint64_t(0x40 + i));
    for (int i = 0; i < 4; ++i) {
        top->sel.setValue(uint64_t(i));
        sim.cycle();
        EXPECT_EQ(top->out.u64(), 0x40u + i);
    }
}

TEST_P(SimModes, CounterWithResetAndEnable)
{
    auto top = std::make_unique<Counter>(nullptr, "top", 8);
    auto elab = top->elaborate();
    SimulationTool sim(elab, GetParam());

    top->en.setValue(uint64_t(1));
    sim.cycle(3);
    EXPECT_EQ(top->count.u64(), 3u);
    top->en.setValue(uint64_t(0));
    sim.cycle(5);
    EXPECT_EQ(top->count.u64(), 3u);
    sim.reset();
    EXPECT_EQ(top->count.u64(), 0u);
    top->en.setValue(uint64_t(1));
    sim.cycle();
    EXPECT_EQ(top->count.u64(), 1u);
    EXPECT_EQ(sim.numCycles(), 10u);
}

TEST_P(SimModes, CounterWrapsAtWidth)
{
    auto top = std::make_unique<Counter>(nullptr, "top", 4);
    auto elab = top->elaborate();
    SimulationTool sim(elab, GetParam());
    top->en.setValue(uint64_t(1));
    sim.cycle(20);
    EXPECT_EQ(top->count.u64(), 4u); // 20 mod 16
}

TEST_P(SimModes, LambdaTickAccumulator)
{
    // FL-style model: arbitrary host code in a tick block.
    class Accum : public Model
    {
      public:
        InPort in_;
        OutPort sum;
        Accum()
            : Model(nullptr, "accum"), in_(this, "in_", 16),
              sum(this, "sum", 16)
        {
            tickFl("logic", [this] {
                sum.setNext(sum.value() + in_.value());
            });
        }
    };
    auto top = std::make_unique<Accum>();
    auto elab = top->elaborate();
    SimulationTool sim(elab, GetParam());

    top->in_.setValue(uint64_t(10));
    sim.cycle(3);
    EXPECT_EQ(top->sum.u64(), 30u);
    top->in_.setValue(uint64_t(5));
    sim.cycle();
    EXPECT_EQ(top->sum.u64(), 35u);
}

TEST_P(SimModes, MixedIrAndLambdaPipeline)
{
    // Lambda tick produces values consumed by IR comb and registered
    // by IR tick: exercises specialization boundaries.
    class Mixed : public Model
    {
      public:
        Wire stage0, stage1;
        OutPort out;
        uint64_t n = 0;
        Mixed()
            : Model(nullptr, "mixed"), stage0(this, "stage0", 32),
              stage1(this, "stage1", 32), out(this, "out", 32)
        {
            tickFl("produce", [this] { stage0.setNext(++n); });
            auto &c = combinational("triple");
            c.assign(stage1, rd(stage0) * lit(32, 3));
            auto &t = tickRtl("capture");
            t.assign(out, rd(stage1));
        }
    };
    auto top = std::make_unique<Mixed>();
    auto elab = top->elaborate();
    SimulationTool sim(elab, GetParam());

    sim.cycle(5);
    // After 5 cycles: stage0 = 5 (just flopped), out = 3 * 4.
    EXPECT_EQ(top->stage0.u64(), 5u);
    EXPECT_EQ(top->out.u64(), 12u);
}

TEST_P(SimModes, WideSignalsFallBackGracefully)
{
    // 80-bit datapath: outside the specializable subset, must still
    // simulate correctly in every mode.
    class WidePass : public Model
    {
      public:
        InPort in_;
        OutPort out;
        WidePass()
            : Model(nullptr, "wide"), in_(this, "in_", 80),
              out(this, "out", 80)
        {
            auto &b = tickRtl("seq");
            b.assign(out, rd(in_) + lit(80, 1));
        }
    };
    auto top = std::make_unique<WidePass>();
    auto elab = top->elaborate();
    SimulationTool sim(elab, GetParam());
    if (specializes(GetParam())) {
        EXPECT_EQ(sim.specStats().numSpecialized, 0);
    }

    Bits wide = Bits::fromWords(80, {~uint64_t(0), 0xff});
    top->in_.setValue(wide);
    sim.cycle();
    Bits expect = wide + Bits(80, 1);
    EXPECT_EQ(top->out.value(), expect);
}

TEST_P(SimModes, SliceAssignmentMergesFields)
{
    class SliceWriter : public Model
    {
      public:
        InPort lo, hi;
        OutPort out;
        SliceWriter()
            : Model(nullptr, "slicer"), lo(this, "lo", 8),
              hi(this, "hi", 8), out(this, "out", 16)
        {
            auto &b = combinational("comb");
            b.assignSlice(out, 0, 8, rd(lo));
            b.assignSlice(out, 8, 8, rd(hi));
        }
    };
    auto top = std::make_unique<SliceWriter>();
    auto elab = top->elaborate();
    SimulationTool sim(elab, GetParam());
    top->lo.setValue(uint64_t(0x34));
    top->hi.setValue(uint64_t(0x12));
    sim.eval();
    EXPECT_EQ(top->out.u64(), 0x1234u);
}

TEST_P(SimModes, SpecializationStatsAreReported)
{
    auto top = std::make_unique<MuxReg>(nullptr, "top", 8, 4);
    auto elab = top->elaborate();
    SimulationTool sim(elab, GetParam());
    const SpecStats &stats = sim.specStats();
    EXPECT_EQ(stats.numBlocks, 2);
    if (!specializes(GetParam())) {
        EXPECT_EQ(stats.numSpecialized, 0);
    } else {
        EXPECT_EQ(stats.numSpecialized, 2);
        EXPECT_GE(stats.codegenSeconds, 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SimModes, ::testing::ValuesIn(allModes()),
    [](const ::testing::TestParamInfo<SimConfig> &info) {
        return modeName(info.param);
    });

// ----------------------------------------------------------------------
// Cross-mode equivalence: every mode must produce the identical cycle-
// by-cycle trace for a pseudo-random composite design.

TEST(SimEquivalence, AllModesProduceIdenticalTraces)
{
    auto run = [](const SimConfig &cfg) {
        auto top = std::make_unique<MuxReg>(nullptr, "top", 8, 4);
        auto elab = top->elaborate();
        SimulationTool sim(elab, cfg);
        std::vector<uint64_t> trace;
        uint64_t seed = 123456789;
        for (int i = 0; i < 50; ++i) {
            seed = seed * 6364136223846793005ull + 1442695040888963407ull;
            for (int p = 0; p < 4; ++p)
                top->in_[p].setValue((seed >> (8 * p)) & 0xff);
            top->sel.setValue((seed >> 33) & 0x3);
            sim.cycle();
            trace.push_back(top->out.u64());
        }
        return trace;
    };

    auto modes = allModes();
    auto golden = run(modes[0]);
    for (size_t i = 1; i < modes.size(); ++i)
        EXPECT_EQ(run(modes[i]), golden) << modeName(modes[i]);
}

TEST(SimEquivalence, EventAndStaticSchedulesAgree)
{
    for (Backend backend : {Backend::Interp, Backend::OptInterp}) {
        std::vector<uint64_t> traces[2];
        int t = 0;
        for (SchedMode sched : {SchedMode::Event, SchedMode::Static}) {
            auto top = std::make_unique<Counter>(nullptr, "top", 8);
            auto elab = top->elaborate();
            SimConfig cfg;
            cfg.backend = backend;
            cfg.sched = sched;
            SimulationTool sim(elab, cfg);
            top->en.setValue(uint64_t(1));
            for (int i = 0; i < 20; ++i) {
                if (i == 10)
                    top->en.setValue(uint64_t(0));
                sim.cycle();
                traces[t].push_back(top->count.u64());
            }
            ++t;
        }
        EXPECT_EQ(traces[0], traces[1]);
    }
}

/**
 * A comb block that fully assigns a net and then patches one field of
 * it with assignSlice reads its own target (the slice's
 * read-modify-write). The event-driven scheduler must settle it: the
 * overwritten intermediate value may not re-trigger the block. The
 * 80-bit block is never specialized, so the boxed hybrid runs it on
 * the boxed evaluator too.
 */
class SlicePatch : public Model
{
  public:
    InPort a, b, wa;
    OutPort out, wout, next;
    SlicePatch()
        : Model(nullptr, "patch"), a(this, "a", 16), b(this, "b", 8),
          wa(this, "wa", 80), out(this, "out", 16),
          wout(this, "wout", 80), next(this, "next", 16)
    {
        auto &narrow = combinational("narrow");
        narrow.assign(out, rd(a));
        narrow.assignSlice(out, 4, 8, rd(b));
        auto &wide = combinational("wide");
        wide.assign(wout, rd(wa));
        wide.assignSlice(wout, 8, 8, rd(b));
        combinational("after").assign(next, rd(out) + lit(16, 1));
    }
};

class SimEventDriven : public ::testing::TestWithParam<std::string>
{};

TEST_P(SimEventDriven, FullAssignThenSliceAssignSettles)
{
    auto top = std::make_unique<SlicePatch>();
    auto elab = top->elaborate();
    SimulationTool sim(elab, SimConfig::fromString(GetParam()));
    const Bits wide = Bits::fromWords(80, {0x1111222233334444u, 0x5566});
    for (uint64_t b : {0xabu, 0x00u, 0x7eu}) {
        top->a.setValue(uint64_t(0x1234));
        top->b.setValue(b);
        top->wa.setValue(wide);
        sim.cycle();
        const uint64_t patched = 0x1004u | (b << 4);
        EXPECT_EQ(top->out.u64(), patched);
        EXPECT_EQ(top->next.u64(), patched + 1);
        Bits expect = wide;
        expect.setSlice(8, Bits(8, b));
        EXPECT_EQ(top->wout.value(), expect);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Boxed, SimEventDriven,
    ::testing::Values(std::string("interp"), std::string("interp+bytecode")),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param == "interp" ? std::string("interp")
                                      : std::string("interp_bytecode");
    });

TEST(SimLifecycle, AccessDetachesOnDestruction)
{
    auto top = std::make_unique<Register>(nullptr, "top", 8);
    auto elab = top->elaborate();
    {
        SimulationTool sim(elab);
        top->in_.setValue(uint64_t(1));
    }
    EXPECT_THROW(top->in_.value(), std::logic_error);
}

TEST(SimLifecycle, CycleHooksFire)
{
    auto top = std::make_unique<Register>(nullptr, "top", 8);
    auto elab = top->elaborate();
    SimulationTool sim(elab);
    int fired = 0;
    sim.onCycleEnd([&](uint64_t) { ++fired; });
    sim.cycle(7);
    EXPECT_EQ(fired, 7);
}

} // namespace
} // namespace cmtl
