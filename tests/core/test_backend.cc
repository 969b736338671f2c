/**
 * Unified Backend API: cross-backend golden equivalence.
 *
 * The contract under test: every backend the `SimConfig::fromString`
 * front door can name — tree-walk interpreter, optimized interpreter,
 * bytecode, per-block compiled C++, whole-design compiled C++ with
 * tiered warm-up, and the boxed-host hybrids — simulates the same
 * design to byte-identical state and byte-identical VCD streams, at
 * any supported thread count, including across the bytecode->native
 * tier boundary of cpp-design. Plus: canonical-name round-trips,
 * per-backend host and scheduling choice, report/SimScope naming,
 * SimOptions CLI parsing, and the JIT cache LRU size cap.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/jit_cpp.h"
#include "core/psim.h"
#include "core/scope.h"
#include "core/sim.h"
#include "core/stats.h"
#include "core/vcd.h"
#include "net/traffic.h"
#include "stdlib/options.h"
#include "tile/multitile.h"

namespace cmtl {
namespace {

using net::MeshTrafficTop;
using net::NetLevel;

bool
needsCompiler(const std::string &backend)
{
    return backend.find("cpp") != std::string::npos;
}

/** All canonical backend names the front door accepts. */
std::vector<std::string>
allBackends()
{
    return {"interp",     "optinterp",       "bytecode",
            "cpp-block",  "cpp-design",      "interp+bytecode",
            "interp+cpp-block"};
}

// ------------------------------------------------ name round-trips

TEST(BackendNames, FromStringToStringRoundTrips)
{
    for (const std::string &name : allBackends())
        EXPECT_EQ(SimConfig::fromString(name).toString(), name) << name;
}

TEST(BackendNames, UnknownNameThrows)
{
    EXPECT_THROW(SimConfig::fromString("pypy"), std::invalid_argument);
    EXPECT_THROW(SimConfig::fromString(""), std::invalid_argument);
}

/** Two comb blocks driving each other: schedulable only event-driven. */
class CombLoop : public Model
{
  public:
    Wire a, b;
    CombLoop() : Model(nullptr, "loop"), a(this, "a", 1), b(this, "b", 1)
    {
        combinational("fwd").assign(b, ~rd(a));
        combinational("bwd").assign(a, ~rd(b));
    }
};

TEST(BackendNames, EveryBackendRoundTripsAndPicksItsHost)
{
    const Backend all[] = {Backend::OptInterp,      Backend::Bytecode,
                           Backend::CppBlock,       Backend::CppDesign,
                           Backend::Interp,         Backend::InterpBytecode,
                           Backend::InterpCppBlock};
    for (Backend b : all) {
        SimConfig cfg;
        cfg.backend = b;
        const std::string name = cfg.toString();
        EXPECT_EQ(SimConfig::fromString(name).backend, b) << name;
        const bool boxed = b == Backend::Interp ||
                           b == Backend::InterpBytecode ||
                           b == Backend::InterpCppBlock;
        EXPECT_EQ(backendBoxedHost(b), boxed) << name;

        // SchedMode::Auto is event-driven exactly on the boxed host:
        // only an event-driven schedule accepts a comb cycle.
        if (needsCompiler(name) && !CppJit::compilerAvailable())
            continue;
        CombLoop loop;
        auto elab = loop.elaborate();
        if (boxed) {
            EXPECT_NO_THROW(SimulationTool(elab, cfg)) << name;
        } else {
            EXPECT_THROW(SimulationTool(elab, cfg), std::logic_error)
                << name;
        }
    }
    // The boxed host has no arena for ParSim to replicate.
    auto top = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 4,
                                                4, 0.2, 3);
    auto elab = top->elaborate();
    for (const char *name : {"interp", "interp+bytecode"}) {
        SimConfig cfg = SimConfig::fromString(name);
        cfg.threads = 2;
        EXPECT_THROW(ParSimulationTool(elab, cfg), std::logic_error)
            << name;
    }
    // The default is the arena-hosted interpreter.
    EXPECT_EQ(SimConfig{}.backend, Backend::OptInterp);
    // The retired aliases are unknown names now.
    EXPECT_THROW(SimConfig::fromString("cpp"), std::invalid_argument);
    EXPECT_THROW(SimConfig::fromString("interp+cpp"),
                 std::invalid_argument);
}

// -------------------------------------------- report/scope naming

TEST(BackendNames, SimulatorReportAndScopeNameTheBackend)
{
    auto top = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 4,
                                                4, 0.2, 3);
    SimulationTool sim(top->elaborate(),
                       SimConfig::fromString("optinterp"));
    EXPECT_NE(simulatorReport(sim).find("backend optinterp"),
              std::string::npos);

    SimScope scope(sim);
    sim.cycle(8);
    std::string snap = scope.jsonSnapshot();
    scope.detach();
    EXPECT_NE(snap.find("\"backend\":\"optinterp\""), std::string::npos)
        << snap;
}

// --------------------------------------- cross-backend equivalence

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
backendCfg(const std::string &backend, int threads)
{
    SimConfig cfg = SimConfig::fromString(backend);
    cfg.threads = threads;
    return cfg;
}

class BackendEquiv
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{
  protected:
    void
    SetUp() override
    {
        auto [backend, threads] = GetParam();
        if (needsCompiler(backend) && !CppJit::compilerAvailable())
            GTEST_SKIP() << "no host compiler";
        // The parallel kernel requires dense arena storage; boxed
        // (interp-hosted) backends exist only on the sequential one.
        if (threads > 1 &&
            backendBoxedHost(backendCfg(backend, threads).backend))
            GTEST_SKIP() << "boxed backends are sequential-only";
    }
};

TEST_P(BackendEquiv, MeshRtlStateAndVcdMatchGolden)
{
    auto [backend, threads] = GetParam();
    const int nrouters = 16, cycles = 200;
    auto makeTop = [&] {
        return std::make_unique<MeshTrafficTop>("top", NetLevel::RTL,
                                                nrouters, 4, 0.3, 11);
    };
    // Unique per parameterization: ctest may run tests in parallel.
    const std::string tag =
        backend + "_t" + std::to_string(threads) + "_" +
        std::to_string(::getpid());
    const std::string golden_path =
        ::testing::TempDir() + "backend_golden_" + tag + ".vcd";
    const std::string path =
        ::testing::TempDir() + "backend_run_" + tag + ".vcd";

    // Golden: the boxed tree-walk interpreter, the semantic reference.
    auto gt = makeTop();
    auto golden = makeSimulator(gt->elaborate(), backendCfg("interp", 1));
    {
        VcdWriter vcd(*golden, golden_path);
        golden->reset();
        golden->cycle(cycles);
        vcd.close();
    }

    auto tt = makeTop();
    auto sim = makeSimulator(tt->elaborate(),
                             backendCfg(backend, threads));
    {
        VcdWriter vcd(*sim, path);
        sim->reset();
        sim->cycle(cycles);
        vcd.close();
    }

    std::string ctx = backend + " threads=" + std::to_string(threads);
    EXPECT_EQ(sim->numCycles(), golden->numCycles());
    expectSameState(*golden, *sim, ctx);
    std::string a = slurp(golden_path), b = slurp(path);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b) << "VCD streams differ: " << ctx;
    std::remove(golden_path.c_str());
    std::remove(path.c_str());
}

TEST_P(BackendEquiv, MultiTileStateMatchesGolden)
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

    auto sys_a = makeSys();
    auto sys_b = makeSys();
    auto golden =
        makeSimulator(sys_a->elaborate(), backendCfg("interp", 1));
    auto sim =
        makeSimulator(sys_b->elaborate(), backendCfg(backend, threads));

    golden->reset();
    sim->reset();
    const int cycles = 2000;
    golden->cycle(cycles);
    sim->cycle(cycles);

    std::string ctx = backend + " threads=" + std::to_string(threads);
    EXPECT_EQ(sim->numCycles(), golden->numCycles());
    expectSameState(*golden, *sim, ctx);
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendEquiv,
    ::testing::Combine(::testing::ValuesIn(allBackends()),
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

// --------------------------------------------- mid-run tier swap

/**
 * Force a genuine mid-run bytecode->native swap: with the on-disk
 * cache disabled the background g++ run takes real wall time, so the
 * first cycles provably execute on the bytecode warm-up tier. The
 * simulation must agree with the reference every cycle, the swap must
 * land at a cycle boundary > 0, and the cycle count must be exactly
 * the number of cycles driven.
 */
TEST(BackendTierSwap, MidRunSwapKeepsStateAndCycleCount)
{
    if (!CppJit::compilerAvailable())
        GTEST_SKIP() << "no host compiler";

    auto ta = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 16,
                                               4, 0.3, 5);
    auto tb = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 16,
                                               4, 0.3, 5);
    auto golden =
        makeSimulator(ta->elaborate(), backendCfg("optinterp", 1));

    SimConfig cfg = SimConfig::fromString("cpp-design");
    cfg.jit_cache = false; // force a real (slow) background compile
    SimulationTool sim(tb->elaborate(), cfg);
    ASSERT_TRUE(sim.tierPending()) << "compile finished suspiciously "
                                      "fast; cannot exercise the swap";
    ASSERT_TRUE(sim.specStats().tiered);
    ASSERT_EQ(sim.specStats().tierSwapCycle, -1);

    golden->reset();
    sim.reset();
    uint64_t driven = sim.numCycles(); // reset() itself runs a cycle
    uint64_t warm = 0;
    // Warm-up tier: lockstep until the background compile lands.
    while (sim.tierPending() && warm < 2000000) {
        golden->cycle(32);
        sim.cycle(32);
        driven += 32;
        warm += 32;
        expectSameState(*golden, sim, "warm-up tier");
    }
    ASSERT_FALSE(sim.tierPending()) << "compile never finished";
    ASSERT_GT(warm, 0u) << "no cycles ran on the warm-up tier";

    // Native tier: the swap happened at a cycle boundary mid-run.
    int64_t swap = sim.specStats().tierSwapCycle;
    EXPECT_GT(swap, 0);
    EXPECT_LE(swap, static_cast<int64_t>(driven) + 32);

    golden->cycle(200);
    sim.cycle(200);
    driven += 200;
    EXPECT_EQ(sim.numCycles(), driven);
    EXPECT_EQ(sim.numCycles(), golden->numCycles());
    expectSameState(*golden, sim, "native tier");
}

/** Same forcing on the parallel kernel: per-island fused modules. */
TEST(BackendTierSwap, ParSimMidRunSwapBitIdentical)
{
    if (!CppJit::compilerAvailable())
        GTEST_SKIP() << "no host compiler";

    auto ta = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 16,
                                               4, 0.3, 9);
    auto tb = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, 16,
                                               4, 0.3, 9);
    auto golden =
        makeSimulator(ta->elaborate(), backendCfg("optinterp", 1));

    SimConfig cfg = backendCfg("cpp-design", 4);
    cfg.jit_cache = false;
    ParSimulationTool sim(tb->elaborate(), cfg);
    ASSERT_TRUE(sim.tierPending());

    golden->reset();
    sim.reset();
    uint64_t driven = sim.numCycles(); // reset() itself runs a cycle
    uint64_t warm = 0;
    while (sim.tierPending() && warm < 2000000) {
        golden->cycle(32);
        sim.cycle(32);
        driven += 32;
        warm += 32;
        expectSameState(*golden, sim, "parsim warm-up tier");
    }
    ASSERT_FALSE(sim.tierPending()) << "compile never finished";
    EXPECT_GT(sim.specStats().tierSwapCycle, 0);
    // Per-island fused codegen: every island gets its own translation
    // unit with at least a flop module, so the adopted tier carries at
    // least nislands compiled units (and a real compile, not a hit —
    // the cache was disabled above).
    EXPECT_GE(sim.specStats().numGroups, sim.plan().nislands);
    EXPECT_FALSE(sim.specStats().cacheHit);
    EXPECT_GT(sim.specStats().compileSeconds, 0.0);

    golden->cycle(200);
    sim.cycle(200);
    driven += 200;
    EXPECT_EQ(sim.numCycles(), driven);
    expectSameState(*golden, sim, "parsim native tier");
}

// ------------------------------------------------ JIT cache LRU cap

class JitCacheLru : public ::testing::Test
{
  protected:
    std::string dir_;

    void
    SetUp() override
    {
        dir_ = ::testing::TempDir() + "cmtl_lru_" +
               std::to_string(::getpid());
        ::mkdir(dir_.c_str(), 0755);
    }

    void
    TearDown() override
    {
        // Best-effort cleanup; leftover files only waste tmp space.
        for (const char *f : {"cmtl_a.so", "cmtl_b.so", "cmtl_c.so",
                              "other.so", "cmtl_d.txt"})
            std::remove((dir_ + "/" + f).c_str());
        ::rmdir(dir_.c_str());
    }

    std::string
    makeFile(const std::string &name, size_t bytes, int age_seconds)
    {
        std::string path = dir_ + "/" + name;
        std::ofstream(path) << std::string(bytes, 'x');
        struct timeval now;
        ::gettimeofday(&now, nullptr);
        struct timeval times[2] = {now, now};
        times[0].tv_sec -= age_seconds;
        times[1].tv_sec -= age_seconds;
        ::utimes(path.c_str(), times);
        return path;
    }

    bool
    exists(const std::string &name) const
    {
        struct stat st;
        return ::stat((dir_ + "/" + name).c_str(), &st) == 0;
    }
};

TEST_F(JitCacheLru, EvictsOldestEntriesUntilUnderCap)
{
    makeFile("cmtl_a.so", 1000, 300); // oldest
    makeFile("cmtl_b.so", 1000, 200);
    std::string keep = makeFile("cmtl_c.so", 1000, 100);
    CppJit::evictCache(dir_, 2500, keep);
    EXPECT_FALSE(exists("cmtl_a.so")); // only the oldest goes
    EXPECT_TRUE(exists("cmtl_b.so"));
    EXPECT_TRUE(exists("cmtl_c.so"));
}

TEST_F(JitCacheLru, KeepsTheJustPublishedLibraryAndForeignFiles)
{
    makeFile("cmtl_a.so", 1000, 300);
    makeFile("other.so", 1000, 400);   // not ours: never touched
    makeFile("cmtl_d.txt", 1000, 400); // not a library: never touched
    std::string keep = makeFile("cmtl_c.so", 1000, 100);
    CppJit::evictCache(dir_, 0, keep);
    EXPECT_FALSE(exists("cmtl_a.so"));
    EXPECT_TRUE(exists("cmtl_c.so")) << "evicted the published library";
    EXPECT_TRUE(exists("other.so"));
    EXPECT_TRUE(exists("cmtl_d.txt"));
}

TEST_F(JitCacheLru, UnderCapIsUntouched)
{
    makeFile("cmtl_a.so", 100, 300);
    makeFile("cmtl_b.so", 100, 200);
    CppJit::evictCache(dir_, 1 << 20, "");
    EXPECT_TRUE(exists("cmtl_a.so"));
    EXPECT_TRUE(exists("cmtl_b.so"));
}

TEST(JitCacheCap, EnvOverridesDefault)
{
    ::unsetenv("CMTL_JIT_CACHE_MAX_MB");
    EXPECT_EQ(CppJit::cacheMaxBytes(), 256ull << 20);
    ::setenv("CMTL_JIT_CACHE_MAX_MB", "7", 1);
    EXPECT_EQ(CppJit::cacheMaxBytes(), 7ull << 20);
    ::setenv("CMTL_JIT_CACHE_MAX_MB", "garbage", 1);
    EXPECT_EQ(CppJit::cacheMaxBytes(), 256ull << 20);
    ::unsetenv("CMTL_JIT_CACHE_MAX_MB");
}

TEST(JitCacheCap, PublishTrimsTheCacheDirectory)
{
    if (!CppJit::compilerAvailable())
        GTEST_SKIP() << "no host compiler";
    std::string dir = ::testing::TempDir() + "cmtl_lru_e2e_" +
                      std::to_string(::getpid());
    ::setenv("CMTL_JIT_CACHE_MAX_MB", "0", 1);
    const char *src_a = "#include <cstdint>\n// variant a\n"
                        "extern \"C\" void cmtl_grp_0(uint64_t *) {}\n";
    const char *src_b = "#include <cstdint>\n// variant b\n"
                        "extern \"C\" void cmtl_grp_0(uint64_t *) {}\n";
    CppJit jit(dir, /*use_cache=*/true);
    std::string so_a = jit.cachePathFor(src_a);
    std::string so_b = jit.cachePathFor(src_b);
    {
        CppJitLibrary lib_a =
            jit.compile(src_a, 1, CppJitLibrary::Abi::Unit);
    }
    struct stat st;
    EXPECT_EQ(::stat(so_a.c_str(), &st), 0) << "publish failed";
    {
        // Cap 0: publishing B must evict A (LRU) but keep B itself.
        CppJitLibrary lib_b =
            jit.compile(src_b, 1, CppJitLibrary::Abi::Unit);
    }
    EXPECT_NE(::stat(so_a.c_str(), &st), 0) << "A not evicted";
    EXPECT_EQ(::stat(so_b.c_str(), &st), 0) << "B wrongly evicted";
    ::unsetenv("CMTL_JIT_CACHE_MAX_MB");
    std::remove(so_b.c_str());
    ::rmdir(dir.c_str());
}

// ------------------------------------------------ SimOptions parse

std::vector<char *>
argvOf(std::vector<std::string> &args)
{
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return argv;
}

TEST(SimOptionsParse, CommonOptionsAndPositionals)
{
    std::vector<std::string> args = {"prog",      "--backend=cpp-design",
                                     "--threads", "4",
                                     "rtl",       "64",
                                     "--profile=json"};
    auto argv = argvOf(args);
    auto opts = cmtl::stdlib::SimOptions::parse(
        static_cast<int>(argv.size()), argv.data());
    EXPECT_TRUE(opts.backend_set);
    EXPECT_EQ(opts.cfg.toString(), "cpp-design");
    // The CLI clamps to the hardware thread count, so the expected
    // value depends on the host running the test.
    unsigned hw = std::thread::hardware_concurrency();
    int want = (hw > 0 && hw < 4) ? static_cast<int>(hw) : 4;
    EXPECT_EQ(opts.cfg.threads, want);
    EXPECT_EQ(opts.threads, want);
    EXPECT_EQ(opts.level, "rtl");
    EXPECT_TRUE(opts.profile);
    EXPECT_TRUE(opts.profile_json);
    EXPECT_EQ(opts.intArg(16), 64);
    ASSERT_EQ(opts.positional.size(), 1u);
}

TEST(SimOptionsParse, ThreadsClampToHardwareConcurrency)
{
    // An absurd request must come back clamped to the host (the
    // warning goes to stderr); programmatic SimConfig::threads is
    // intentionally NOT clamped, so only the CLI path is tested.
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        GTEST_SKIP() << "hardware_concurrency unknown on this host";
    std::vector<std::string> args = {"prog", "--threads=4096"};
    auto argv = argvOf(args);
    auto opts = cmtl::stdlib::SimOptions::parse(
        static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(opts.threads, static_cast<int>(hw));
    EXPECT_EQ(opts.cfg.threads, static_cast<int>(hw));
}

TEST(SimOptionsParse, DefaultsWhenNothingGiven)
{
    ::unsetenv("CMTL_BENCH_FULL");
    std::vector<std::string> args = {"prog"};
    auto argv = argvOf(args);
    auto opts = cmtl::stdlib::SimOptions::parse(
        static_cast<int>(argv.size()), argv.data());
    EXPECT_FALSE(opts.backend_set);
    EXPECT_EQ(opts.cfg.toString(), "optinterp");
    EXPECT_EQ(opts.threads, 1);
    EXPECT_FALSE(opts.profile);
    EXPECT_FALSE(opts.full);
    EXPECT_EQ(opts.intArg(16), 16);
}

TEST(SimOptionsParseDeath, UnknownBackendExits2)
{
    std::vector<std::string> args = {"prog", "--backend=pypy"};
    auto argv = argvOf(args);
    EXPECT_EXIT(cmtl::stdlib::SimOptions::parse(
                    static_cast<int>(argv.size()), argv.data()),
                ::testing::ExitedWithCode(2), "unknown backend");
}

TEST(SimOptionsParseDeath, UnknownFlagExits2)
{
    // Silent ignores mask typos like --thread=4; strict parsing turns
    // them into a diagnostic pointing at --help.
    std::vector<std::string> args = {"prog", "--thread=4"};
    auto argv = argvOf(args);
    EXPECT_EXIT(cmtl::stdlib::SimOptions::parse(
                    static_cast<int>(argv.size()), argv.data()),
                ::testing::ExitedWithCode(2),
                "unknown option '--thread=4'.*--help");
}

TEST(SimOptionsParseDeath, HelpPrintsTheOptionTableAndExits0)
{
    std::vector<std::string> args = {"prog", "--help"};
    auto argv = argvOf(args);
    EXPECT_EXIT(
        {
            // --help prints to stdout; route it to stderr so the death
            // test's matcher sees it.
            ::dup2(2, 1);
            cmtl::stdlib::SimOptions::parse(
                static_cast<int>(argv.size()), argv.data());
        },
        ::testing::ExitedWithCode(0), "--checkpoint=<path\\[:n\\]>");
}

TEST(SimOptionsParseDeath, BadCyclesValueExits2)
{
    std::vector<std::string> args = {"prog", "--cycles=soon"};
    auto argv = argvOf(args);
    EXPECT_EXIT(cmtl::stdlib::SimOptions::parse(
                    static_cast<int>(argv.size()), argv.data()),
                ::testing::ExitedWithCode(2), "non-negative integer");
}

TEST(SimOptionsParse, CheckpointVcdAndResumeOptions)
{
    std::vector<std::string> args = {
        "prog", "--cycles=8000", "--vcd=out.vcd",
        "--checkpoint=mesh.snap:250", "--resume=mesh.snap.5000"};
    auto argv = argvOf(args);
    auto opts = cmtl::stdlib::SimOptions::parse(
        static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(opts.cycles, 8000u);
    EXPECT_EQ(opts.vcd, "out.vcd");
    EXPECT_EQ(opts.checkpoint_path, "mesh.snap");
    EXPECT_EQ(opts.checkpoint_every, 250u);
    EXPECT_EQ(opts.resume, "mesh.snap.5000");
}

TEST(SimOptionsParse, ListenAndJobsOptions)
{
    std::vector<std::string> args = {"prog", "--listen=/tmp/sim.sock",
                                     "--jobs=4"};
    auto argv = argvOf(args);
    auto opts = cmtl::stdlib::SimOptions::parse(
        static_cast<int>(argv.size()), argv.data());
    EXPECT_EQ(opts.listen, "/tmp/sim.sock");
    EXPECT_EQ(opts.jobs, 4);
}

TEST(SimOptionsParse, ListenAndJobsDefaultOff)
{
    std::vector<std::string> args = {"prog"};
    auto argv = argvOf(args);
    auto opts = cmtl::stdlib::SimOptions::parse(
        static_cast<int>(argv.size()), argv.data());
    EXPECT_TRUE(opts.listen.empty());
    EXPECT_EQ(opts.jobs, 0);
}

TEST(SimOptionsParseDeath, EmptyListenPathExits2)
{
    std::vector<std::string> args = {"prog", "--listen="};
    auto argv = argvOf(args);
    EXPECT_EXIT(cmtl::stdlib::SimOptions::parse(
                    static_cast<int>(argv.size()), argv.data()),
                ::testing::ExitedWithCode(2), "socket path");
}

TEST(SimOptionsParseDeath, NonPositiveJobsExits2)
{
    std::vector<std::string> args = {"prog", "--jobs=0"};
    auto argv = argvOf(args);
    EXPECT_EXIT(cmtl::stdlib::SimOptions::parse(
                    static_cast<int>(argv.size()), argv.data()),
                ::testing::ExitedWithCode(2), "positive integer");
}

TEST(SimOptionsParse, CheckpointIntervalDefaultsAndColonPaths)
{
    std::vector<std::string> args = {"prog", "--checkpoint=dir:v2/m.snap"};
    auto argv = argvOf(args);
    auto opts = cmtl::stdlib::SimOptions::parse(
        static_cast<int>(argv.size()), argv.data());
    // The suffix after the last ':' is not all digits, so the colon
    // belongs to the path and the interval takes its default.
    EXPECT_EQ(opts.checkpoint_path, "dir:v2/m.snap");
    EXPECT_EQ(opts.checkpoint_every, 1000u);
}

} // namespace
} // namespace cmtl
