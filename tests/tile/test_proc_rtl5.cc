/**
 * ProcRTL5-specific properties: it is a genuine pipeline (higher IPC
 * than the multicycle ProcRTL), translates to Verilog, and handles
 * the classic pipeline hazards the random suites may not isolate.
 */

#include <gtest/gtest.h>

#include "core/sim.h"
#include "core/translate.h"
#include "tile/programs.h"
#include "tile/tile.h"

namespace cmtl {
namespace tile {
namespace {

constexpr uint32_t kDump = 0x1800;

/** Cycles for a program on a tile with the chosen RTL processor. */
template <typename ProcT>
std::pair<uint64_t, uint32_t>
runOnProc(const std::vector<uint32_t> &program)
{
    // Hand-assemble a tile around the specific processor type.
    class MiniTile : public Model
    {
      public:
        ProcT proc;
        CacheCL icache, dcache;
        DotProductCL accel;
        MemArbiter arb;
        stdlib::TestMemory mem;
        MiniTile()
            : Model(nullptr, "mini"), proc(this, "proc"),
              icache(this, "icache"), dcache(this, "dcache"),
              accel(this, "accel"), arb(this, "arb"),
              mem(this, "mem", 2, 1)
        {
            connectReqResp(*this, proc.imem_ifc, icache.proc_ifc);
            connectReqResp(*this, icache.mem_ifc, mem.ifc[0]);
            connectReqResp(*this, proc.dmem_ifc, arb.port(0));
            connectReqResp(*this, accel.mem_ifc, arb.port(1));
            connectReqResp(*this, arb.memPort(), dcache.proc_ifc);
            connectReqResp(*this, dcache.mem_ifc, mem.ifc[1]);
            connectReqResp(*this, proc.acc_ifc, accel.cpu_ifc);
        }
    };
    MiniTile t;
    for (size_t i = 0; i < program.size(); ++i)
        t.mem.writeWord(static_cast<uint64_t>(i) * 4, program[i]);
    auto elab = t.elaborate();
    SimulationTool sim(elab);
    sim.reset();
    uint64_t cycles = 0;
    while (!t.proc.halted.u64() && cycles < 500000) {
        sim.cycle();
        ++cycles;
    }
    EXPECT_TRUE(t.proc.halted.u64());
    sim.cycle(100);
    return {cycles, t.mem.readWord(kDump)};
}

TEST(ProcRtl5, PipelinesBetterThanMulticycle)
{
    // A long dependency-light arithmetic stretch: the pipeline should
    // clearly beat the multicycle implementation.
    Assembler a;
    a.li(11, kDump);
    a.addi(1, 0, 0);
    for (int i = 0; i < 60; ++i)
        a.addi(1, 1, 1);
    a.sw(1, 11, 0);
    a.halt();
    auto program = a.finish();

    auto [c5, r5] = runOnProc<ProcRTL5>(program);
    auto [cm, rm] = runOnProc<ProcRTL>(program);
    EXPECT_EQ(r5, 60u);
    EXPECT_EQ(rm, 60u);
    EXPECT_LT(c5 * 2, cm) << "pipeline IPC should be >2x multicycle";
}

TEST(ProcRtl5, BackToBackDependenciesForwardCorrectly)
{
    // Chains where every instruction depends on the previous one, in
    // every forwarding distance.
    Assembler a;
    a.li(11, kDump);
    a.addi(1, 0, 5);
    a.addi(2, 1, 1); // X->D forward
    a.addi(3, 2, 1);
    a.nop();
    a.addi(4, 3, 1); // M->D forward
    a.nop();
    a.nop();
    a.addi(5, 4, 1); // W->D / regfile
    a.add(6, 5, 5);
    a.sw(6, 11, 0);
    a.halt();
    auto [cycles, result] = runOnProc<ProcRTL5>(a.finish());
    (void)cycles;
    EXPECT_EQ(result, 18u);
}

TEST(ProcRtl5, LoadUseInterlock)
{
    Assembler a;
    a.li(11, kDump);
    a.li(1, 0x1000);
    a.lw(2, 1, 0);     // load 123
    a.addi(3, 2, 1);   // immediate use of load result
    a.lw(4, 1, 4);     // load 7
    a.mul(5, 3, 4);    // use both
    a.sw(5, 11, 0);
    a.halt();
    auto program = a.finish();

    class Mini
    {};
    // Preload the data words through the standard tile path instead:
    auto t = std::make_unique<Tile>("tile", Level::RTL, Level::CL,
                                    Level::CL);
    t->loadProgram(program);
    t->mem().writeWord(0x1000, 123);
    t->mem().writeWord(0x1004, 7);
    auto elab = t->elaborate();
    SimulationTool sim(elab);
    sim.reset();
    uint64_t guard = 0;
    while (!t->halted() && ++guard < 50000)
        sim.cycle();
    ASSERT_TRUE(t->halted());
    sim.cycle(100);
    EXPECT_EQ(t->mem().readWord(kDump), 124u * 7);
}

TEST(ProcRtl5, TightLoopBranchFlushes)
{
    // A 2-instruction loop maximizes wrong-path fetches.
    Assembler a;
    a.li(11, kDump);
    a.addi(1, 0, 50);
    a.addi(2, 0, 0);
    a.label("loop");
    a.addi(2, 2, 3);
    a.addi(1, 1, -1);
    a.bne(1, 0, "loop");
    a.sw(2, 11, 0);
    a.halt();
    auto [cycles, result] = runOnProc<ProcRTL5>(a.finish());
    EXPECT_EQ(result, 150u);
    // Sanity: dozens of iterations complete in bounded time.
    EXPECT_LT(cycles, 4000u);
}

TEST(ProcRtl5, TranslatesToVerilog)
{
    ProcRTL5 proc(nullptr, "proc");
    auto elab = proc.elaborate();
    std::string v = TranslationTool().translate(*elab);
    EXPECT_NE(v.find("module ProcRTL5"), std::string::npos);
    EXPECT_NE(v.find("reg  [31:0] regs [0:15];"), std::string::npos);
    EXPECT_NE(v.find("reg  [31:0] fb_inst [0:3];"), std::string::npos);
}

TEST(ProcRtl5, FullySpecializable)
{
    ProcRTL5 proc(nullptr, "proc");
    auto elab = proc.elaborate();
    SimConfig cfg;
    cfg.backend = Backend::Bytecode;
    SimulationTool sim(elab, cfg);
    EXPECT_EQ(sim.specStats().numSpecialized,
              sim.specStats().numBlocks);
}

} // namespace
} // namespace tile
} // namespace cmtl
