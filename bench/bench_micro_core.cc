/**
 * @file
 * Microbenchmarks of the framework primitives (google-benchmark).
 *
 * Covers the Bits value type (narrow and wide paths), the three IR
 * execution engines on an operator-torture block, the two signal
 * storage backends, and host-code Signal access on a live simulator —
 * the primitives whose relative costs produce the macro-level results
 * in Figures 13-15.
 */

#include <benchmark/benchmark.h>

#include "core/ir_bytecode.h"
#include "core/ir_eval.h"
#include "core/jit_cpp.h"
#include "core/ir_cpp.h"
#include "core/model.h"
#include "core/sim.h"
#include "core/store.h"

namespace {

using namespace cmtl;

// ------------------------------------------------------------- Bits

void
BM_BitsAddNarrow(benchmark::State &state)
{
    Bits a(32, 123456), b(32, 654321);
    for (auto _ : state)
        benchmark::DoNotOptimize(a + b);
}
BENCHMARK(BM_BitsAddNarrow);

void
BM_BitsAddWide(benchmark::State &state)
{
    Bits a = Bits::fromWords(128, {~uint64_t(0), 1});
    Bits b = Bits::fromWords(128, {5, 6});
    for (auto _ : state)
        benchmark::DoNotOptimize(a + b);
}
BENCHMARK(BM_BitsAddWide);

void
BM_BitsMulWide(benchmark::State &state)
{
    Bits a = Bits::fromWords(128, {0x123456789abcdefull, 77});
    Bits b = Bits::fromWords(128, {0xfedcba987654321ull, 88});
    for (auto _ : state)
        benchmark::DoNotOptimize(a * b);
}
BENCHMARK(BM_BitsMulWide);

void
BM_BitsSlice(benchmark::State &state)
{
    Bits a = Bits::fromWords(128, {0x123456789abcdefull, 77});
    for (auto _ : state)
        benchmark::DoNotOptimize(a.slice(37, 48));
}
BENCHMARK(BM_BitsSlice);

// ------------------------------------------------- execution engines

/** The operator-torture ALU from the IR test suite. */
class TortureAlu : public Model
{
  public:
    InPort a, b;
    OutPort res;
    TortureAlu()
        : Model(nullptr, "alu"), a(this, "a", 32), b(this, "b", 32),
          res(this, "res", 32)
    {
        auto &c = combinational("comb");
        IrExpr ea = rd(a), eb = rd(b);
        IrExpr t = c.let("t", (ea * eb) ^ (ea - eb));
        IrExpr shifted = (t << eb.slice(0, 3)) | (t >> ea.slice(0, 3));
        IrExpr cmp = mux(ea < eb, ea + eb, shifted);
        c.if_(ea == eb, [&] { c.assign(res, cmp + 1); },
              [&] { c.assign(res, cmp ^ t); });
    }
};

struct EngineFixture
{
    TortureAlu alu;
    std::shared_ptr<Elaboration> elab = alu.elaborate();
    ArenaStore arena{*elab};
    BoxedStore boxed{*elab};
};

void
BM_EngineBoxedTreeWalk(benchmark::State &state)
{
    EngineFixture f;
    BoxedEvaluator eval(f.boxed);
    uint64_t i = 0;
    for (auto _ : state) {
        f.boxed.write(f.alu.a.netId(), Bits(32, ++i));
        f.boxed.write(f.alu.b.netId(), Bits(32, i * 7));
        eval.run(f.elab->blocks[0]);
    }
}
BENCHMARK(BM_EngineBoxedTreeWalk);

void
BM_EngineSlotTreeWalk(benchmark::State &state)
{
    EngineFixture f;
    SlotEvaluator eval(f.arena);
    // The elab layout never packs, so raw word stores at the slot
    // offset are exact — the same fast path the kernels use.
    uint64_t *w = f.arena.data();
    const int a = f.arena.offset(f.alu.a.netId());
    const int b = f.arena.offset(f.alu.b.netId());
    const uint64_t am = f.arena.mask(f.alu.a.netId());
    const uint64_t bm = f.arena.mask(f.alu.b.netId());
    uint64_t i = 0;
    for (auto _ : state) {
        w[a] = ++i & am;
        w[b] = (i * 7) & bm;
        eval.run(f.elab->blocks[0]);
    }
}
BENCHMARK(BM_EngineSlotTreeWalk);

void
BM_EngineBytecode(benchmark::State &state)
{
    EngineFixture f;
    BcProgram prog = bcCompile(f.elab->blocks[0], f.arena);
    std::vector<uint64_t> scratch(prog.nscratch + 1);
    uint64_t *w = f.arena.data();
    const int a = f.arena.offset(f.alu.a.netId());
    const int b = f.arena.offset(f.alu.b.netId());
    const uint64_t am = f.arena.mask(f.alu.a.netId());
    const uint64_t bm = f.arena.mask(f.alu.b.netId());
    uint64_t i = 0;
    for (auto _ : state) {
        w[a] = ++i & am;
        w[b] = (i * 7) & bm;
        bcRun(prog, f.arena.data(), scratch.data());
    }
}
BENCHMARK(BM_EngineBytecode);

void
BM_EngineCompiledCpp(benchmark::State &state)
{
    if (!CppJit::compilerAvailable()) {
        state.SkipWithError("no host compiler");
        return;
    }
    EngineFixture f;
    std::string source = cppEmitProgram(
        *f.elab, f.arena, std::vector<std::vector<int>>{{0}});
    CppJit jit;
    CppJitLibrary lib = jit.compile(source, 1, CppJitLibrary::Abi::Block);
    CppJitLibrary::BlockFn fn = lib.blocks()[0];
    uint64_t *w = f.arena.data();
    const int a = f.arena.offset(f.alu.a.netId());
    const int b = f.arena.offset(f.alu.b.netId());
    const uint64_t am = f.arena.mask(f.alu.a.netId());
    const uint64_t bm = f.arena.mask(f.alu.b.netId());
    uint64_t i = 0;
    for (auto _ : state) {
        w[a] = ++i & am;
        w[b] = (i * 7) & bm;
        benchmark::DoNotOptimize(fn(f.arena.data()));
    }
}
BENCHMARK(BM_EngineCompiledCpp);

// ------------------------------------------------- storage backends

void
BM_StoreBoxedReadWrite(benchmark::State &state)
{
    EngineFixture f;
    int net = f.alu.a.netId();
    uint64_t i = 0;
    for (auto _ : state) {
        f.boxed.write(net, Bits(32, ++i));
        benchmark::DoNotOptimize(f.boxed.read(net));
    }
}
BENCHMARK(BM_StoreBoxedReadWrite);

void
BM_StoreArenaReadWrite(benchmark::State &state)
{
    EngineFixture f;
    int net = f.alu.a.netId();
    uint64_t *w = f.arena.data();
    const int off = f.arena.offset(net);
    const uint64_t m = f.arena.mask(net);
    uint64_t i = 0;
    for (auto _ : state) {
        w[off] = ++i & m;
        benchmark::DoNotOptimize(w[off]);
    }
}
BENCHMARK(BM_StoreArenaReadWrite);

// ------------------------------------------------ host signal access

/** Signal::u64() on an arena-hosted simulator (the slot view). */
void
BM_SignalReadU64(benchmark::State &state)
{
    TortureAlu alu;
    SimulationTool sim(alu.elaborate(), SimConfig::fromString("optinterp"));
    alu.a.setValue(uint64_t(0x1234));
    alu.b.setValue(uint64_t(0x42));
    sim.eval();
    for (auto _ : state)
        benchmark::DoNotOptimize(alu.res.u64());
}
BENCHMARK(BM_SignalReadU64);

/** Signal::setNext(uint64_t) on a net already registered as a flop. */
void
BM_SignalSetNextU64(benchmark::State &state)
{
    TortureAlu alu;
    SimulationTool sim(alu.elaborate(), SimConfig::fromString("optinterp"));
    uint64_t i = 0;
    alu.a.setNext(i); // the first write registers the flop
    for (auto _ : state) {
        alu.a.setNext(++i);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_SignalSetNextU64);

} // namespace

BENCHMARK_MAIN();
