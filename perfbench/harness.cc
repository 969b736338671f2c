#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>

#include "core/layout.h"
#include "core/partition.h"
#include "core/psim.h"
#include "core/scope.h"
#include "core/timing.h"
#include "refcpp/refnet.h"
#include "tile/multitile.h"
#include "trace.h"

namespace perfbench {

using namespace cmtl;
namespace fs = std::filesystem;

namespace {

// --- workload constants ----------------------------------------------
constexpr int kMeshRouters = 64; // 8x8, the paper's Figure 14 mesh
constexpr int kMeshEntries = 4;
// Cold setup on the mesh workloads builds the same routers at 2x2: a
// cold 8x8 compile costs ~40 s of g++, too much for every run.
constexpr int kColdMeshRouters = 4;
constexpr int kMvmultN = 16; // ~9k simulated cycles per tile job
constexpr int kTiles = 4;
constexpr uint64_t kJobCycleLimit = 1000000; // deadlock guard
constexpr uint64_t kDrainCycles = 500; // in-flight stores after halt

// --- measurement constants -------------------------------------------
constexpr double kRefInjection = 0.30;
constexpr uint64_t kRefSeed = 1;
constexpr uint64_t kRefChunk = 2048; // ~45 ms of RefMeshCL
constexpr uint64_t kRefWarmup = 8192;
/** SimScope times one block execution in this many. A scope lives for
 *  one chunk, so the period must leave samples in the shortest chunk. */
constexpr uint32_t kScopeSamplePeriod = 8;
/** Untimed seconds a ParSim lane runs before it is measured. */
constexpr double kParSimSettleSeconds = 1.5;
/** Fresh ParSim instances the psim2 lane is measured on (mesh). */
constexpr int kParSimEpochs = 2;
/** Mesh warm-up after reset, and the tier-wait step. */
constexpr uint64_t kMeshWarmup = 256;

const std::vector<std::string> kBackends = {"optinterp", "bytecode",
                                            "cpp-block", "cpp-design"};

/** Median of @p v (0 when empty). */
double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool
statsEqual(const net::NetStats &a, const net::NetStats &b)
{
    return a.cycles == b.cycles && a.generated == b.generated &&
           a.injected == b.injected && a.received == b.received &&
           a.latency_sum == b.latency_sum && a.latency_max == b.latency_max;
}

bool
isCpp(const SimConfig &cfg)
{
    return cfg.backend == Backend::CppBlock ||
           cfg.backend == Backend::CppDesign;
}

// --- the design under test -------------------------------------------

struct Design
{
    const WorkloadSpec *spec = nullptr;
    uint64_t seed = 1;
    int nrouters = kMeshRouters;
    tile::Workload job;

    std::unique_ptr<Model>
    build() const
    {
        if (spec->mesh) {
            return std::make_unique<net::MeshTrafficTop>(
                "top", net::NetLevel::RTL, nrouters, kMeshEntries,
                spec->injection, seed);
        }
        using tile::Level;
        auto sys = std::make_unique<tile::MultiTileSystem>(
            "sys",
            std::vector<std::array<Level, 3>>(
                kTiles, {Level::RTL, Level::RTL, Level::RTL}),
            /*cl_network=*/true);
        sys->loadProgram(job.image);
        tile::loadMvmultData(sys->memNode(), job, seed);
        return sys;
    }
};

Design
makeDesign(const WorkloadSpec &spec, uint64_t seed)
{
    Design d;
    d.spec = &spec;
    d.seed = seed;
    if (!spec.mesh)
        d.job = tile::makeMvmultMultiTile(kMvmultN, /*use_accel=*/false);
    return d;
}

/**
 * A model, its elaboration and one simulator. The simulator refers to
 * both, so it is always destroyed first: declared last, and released
 * first when an instance is overwritten.
 */
struct Instance
{
    std::unique_ptr<Model> top;
    std::shared_ptr<Elaboration> elab;
    std::unique_ptr<Simulator> sim;

    Instance() = default;
    Instance(Instance &&) = default;
    Instance &
    operator=(Instance &&other) noexcept
    {
        release();
        top = std::move(other.top);
        elab = std::move(other.elab);
        sim = std::move(other.sim);
        return *this;
    }

    net::MeshTrafficTop *
    mesh() const
    {
        return dynamic_cast<net::MeshTrafficTop *>(top.get());
    }
    tile::MultiTileSystem *
    system() const
    {
        return dynamic_cast<tile::MultiTileSystem *>(top.get());
    }
    /** Free everything, simulator first. */
    void
    release()
    {
        sim.reset();
        elab.reset();
        top.reset();
    }
};

/** Per-step seconds of one construction, from its spans. */
struct SetupParts
{
    double construct = 0.0;
    double elaborate = 0.0;
    double make = 0.0;
    double ready = 0.0;
};

Instance
buildInstance(const Design &design, const SimConfig &cfg,
              bool parsim_direct, SpanRecorder &rec,
              SetupParts *parts = nullptr)
{
    SetupParts local;
    SetupParts &p = parts ? *parts : local;
    Instance inst;
    {
        SpanScope s(rec, "model.construct");
        inst.top = design.build();
        p.construct = s.close();
    }
    {
        SpanScope s(rec, "model.elaborate");
        inst.elab = inst.top->elaborate();
        p.elaborate = s.close();
    }
    {
        SpanScope s(rec, "sim.make");
        if (parsim_direct)
            inst.sim = std::make_unique<ParSimulationTool>(inst.elab, cfg);
        else
            inst.sim = makeSimulator(inst.elab, cfg);
        p.make = s.close();
    }
    return inst;
}

/**
 * Poll a tiered simulator until its native tier is live. eval() is
 * where a finished background compile is adopted without advancing
 * simulated time.
 */
double
waitReady(Simulator &sim, SpanRecorder &rec)
{
    SpanScope s(rec, "sim.ready_wait");
    while (sim.tierPending()) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        sim.eval();
    }
    return s.close();
}

/** The workload's fixed chunk length for a lane's config. */
uint64_t
chunkCycles(const WorkloadSpec &spec, const SimConfig &cfg)
{
    if (cfg.threads > 1)
        return spec.chunk[4];
    switch (cfg.backend) {
      case Backend::OptInterp: return spec.chunk[0];
      case Backend::Bytecode: return spec.chunk[1];
      case Backend::CppBlock: return spec.chunk[2];
      default: return spec.chunk[3];
    }
}

// --- the interleaved reference ----------------------------------------

/**
 * RefMeshCL at a fixed operating point (8x8, injection 0.30, seed 1).
 * A reference chunk runs after every measured slice; a slice is
 * normalized by the mean rate of the chunks before and after it.
 */
class Reference
{
  public:
    explicit Reference(SpanRecorder &rec)
        : rec_(rec), ref_(kMeshRouters, kMeshEntries, kRefInjection,
                          kRefSeed)
    {
        ref_.cycle(kRefWarmup);
        prev_ = chunk();
    }

    /** Run the chunk after a slice; return the slice's adjacent rate. */
    double
    afterSlice()
    {
        double rate = chunk();
        double adjacent = 0.5 * (prev_ + rate);
        prev_ = rate;
        return adjacent;
    }

    const std::vector<double> &rates() const { return rates_; }
    const refcpp::RefMeshCL &model() const { return ref_; }

  private:
    double
    chunk()
    {
        SpanScope s(rec_, "ref.chunk");
        ref_.cycle(kRefChunk);
        double rate = static_cast<double>(kRefChunk) / s.close();
        rates_.push_back(rate);
        return rate;
    }

    SpanRecorder &rec_;
    refcpp::RefMeshCL ref_;
    double prev_ = 0.0;
    std::vector<double> rates_;
};

// --- SimScope accumulation --------------------------------------------

/** SimScope observations summed over every scoped unit of a lane. */
struct ScopeTotals
{
    double settle = 0.0, tick = 0.0, flop = 0.0;
    std::vector<double> block_seconds;
    uint64_t comb_calls = 0;
    uint64_t gated_steps = 0;
    uint64_t cycles = 0;
    std::vector<double> island_compute, island_barrier;
    uint64_t boundary_bytes = 0;
    uint64_t gated_supersteps = 0;

    void
    add(const SimScope &scope, const Elaboration &elab)
    {
        const ScopeProbe &p = scope.probe();
        settle += p.settle_seconds;
        tick += p.tick_seconds;
        flop += p.flop_seconds;
        block_seconds.resize(p.block_seconds.size());
        for (size_t b = 0; b < p.block_seconds.size(); ++b) {
            block_seconds[b] += p.block_seconds[b];
            if (!isTick(elab.blocks[b].kind))
                comb_calls += p.block_calls[b];
        }
        gated_steps += p.gated_steps;
        cycles += scope.cycles();
        size_t n = p.island_settle_seconds.size();
        island_compute.resize(n);
        island_barrier.resize(n);
        for (size_t i = 0; i < n; ++i) {
            island_compute[i] += p.island_settle_seconds[i] +
                                 p.island_tick_seconds[i] +
                                 p.island_flop_seconds[i];
            island_barrier[i] += p.island_barrier_seconds[i];
            boundary_bytes += p.island_boundary_bytes[i];
            gated_supersteps += p.island_gated_supersteps[i];
        }
    }
};

// --- lanes --------------------------------------------------------------

/**
 * Measured simulation: cycles, host seconds, and the reference cycles
 * RefMeshCL would have run meanwhile (each slice's seconds times its
 * adjacent reference rate), so cycles / ref_cycles is the ratio.
 */
struct Sample
{
    double cycles = 0.0;
    double seconds = 0.0;
    double ref_cycles = 0.0;

    void
    add(const Sample &o)
    {
        cycles += o.cycles;
        seconds += o.seconds;
        ref_cycles += o.ref_cycles;
    }
    double ratio() const { return cycles / ref_cycles; }
    double rate() const { return cycles / seconds; }
};

/** One simulator configuration measured in the interleaved loop. */
struct Lane
{
    std::string label;  //!< "cpp-design", "psim1.bytecode", ...
    std::string metric; //!< ratio metric its unscoped units feed
    std::string cps_metric; //!< raw-rate metric, or empty
    SimConfig cfg;
    bool parsim_direct = false; //!< ParSimulationTool even at 1 thread
    /** ParSim: budget shares, each on a fresh mesh instance. */
    int epochs = 1;
    bool scoped = false; //!< traced run: alternate SimScope'd units
    uint64_t chunk = 0;  //!< cycles per measured chunk / job slice
    /** Mesh: the lane's simulator while measured. Multitile: the
     *  current job's system. */
    Instance inst;
    /** Mesh: one per chunk. Multitile: one per completed job. */
    std::vector<Sample> samples, scoped_samples;
    StatsLog log;
    net::NetStats final_stats; //!< mesh: at the lane's last cycle
    ScopeTotals scope;
    bool broken = false;
    std::string cache; //!< "hit", "miss" or "-"
    // Multitile: the job in progress.
    Sample job;
    std::unique_ptr<SimScope> job_scope;
    int jobs_started = 0;

    bool pgo() const
    {
        return cfg.backend == Backend::CppDesign &&
               cfg.layout == LayoutPolicy::Profile && cfg.jit_tiered;
    }
    /** ParSim workers spin between cycles, so a ParSim lane must not
     *  be alive while another lane is measured. */
    bool parsim() const { return parsim_direct || cfg.threads > 1; }
};

struct RunContext
{
    const RunOptions &opts;
    const WorkloadSpec &spec;
    Design design;
    SpanRecorder rec;
    OpLedger ops;
    std::string cache_dir;
    std::string cold_root;
    std::vector<Metric> metrics;
    std::vector<std::string> notes; //!< simulated results, printed
    std::vector<double> setup_samples, cold_samples;

    RunContext(const RunOptions &o, const WorkloadSpec &s)
        : opts(o), spec(s), design(makeDesign(s, o.seed)), rec(o.trace)
    {
        cache_dir = o.work_dir + "/jit-cache";
        cold_root = o.work_dir + "/jit-cold";
    }

    void
    metric(const std::string &name, const std::string &unit, double v)
    {
        metrics.push_back({name, unit, v});
    }
};

std::vector<Lane>
makeLanes(const RunContext &ctx)
{
    std::vector<Lane> lanes;
    auto add = [&](const std::string &label, const std::string &metric,
                   const std::string &cps, SimConfig cfg, bool direct,
                   bool scoped) {
        Lane lane;
        lane.label = label;
        lane.metric = metric;
        lane.cps_metric = cps;
        lane.cfg = cfg;
        lane.parsim_direct = direct;
        lane.scoped = scoped;
        lanes.push_back(std::move(lane));
    };
    const std::string &dir = ctx.cache_dir;
    for (const std::string &b : kBackends) {
        add(b, "speed." + b, "cps." + b, makeConfig(b, 1, dir), false,
            ctx.opts.trace);
    }
    if (!ctx.opts.trace)
        return lanes;
    add("psim2", "speed.psim2", "cps.psim2", makeConfig("bytecode", 2, dir),
        false, true);
    // Thread placement varies per ParSim instance, so the 2-thread lane
    // is measured over several.
    lanes.back().epochs = kParSimEpochs;
    // Ablations: one feature flipped from the default at a time.
    for (const std::string b : {"bytecode", "cpp-block"}) {
        SimConfig cfg = makeConfig(b, 1, dir);
        cfg.gating = false;
        add("gating_off." + b, "ablate.gating_off.speed." + b, "", cfg,
            false, false);
    }
    for (const std::string b : {"bytecode", "cpp-design"}) {
        SimConfig cfg = makeConfig(b, 1, dir);
        cfg.layout = LayoutPolicy::Profile;
        add("layout_profile." + b, "ablate.layout_profile.speed." + b, "",
            cfg, false, false);
    }
    {
        SimConfig cfg = makeConfig("cpp-block", 1, dir);
        cfg.dead_elim = true;
        add("dead_elim.cpp-block", "ablate.dead_elim.speed.cpp-block", "",
            cfg, false, false);
    }
    for (const std::string &b : kBackends) {
        add("psim1." + b, "ablate.psim1.speed." + b, "",
            makeConfig(b, 1, dir), true, false);
    }
    return lanes;
}

std::vector<double>
ratios(const std::vector<Sample> &samples)
{
    std::vector<double> out;
    for (const Sample &x : samples)
        out.push_back(x.ratio());
    return out;
}

std::vector<double>
rates(const std::vector<Sample> &samples)
{
    std::vector<double> out;
    for (const Sample &x : samples)
        out.push_back(x.rate());
    return out;
}

/**
 * The lane's reported ratio: the median over its units (mesh chunks,
 * or whole multitile jobs from reset to halt). A median, because a
 * job that starts on freshly spawned ParSim threads or a chunk that
 * lands in a slow host phase is an outlier, not a trend.
 */
double
laneRatio(const Lane &lane, bool scoped = false)
{
    return median(ratios(scoped ? lane.scoped_samples : lane.samples));
}

// --- timed constructions -----------------------------------------------

struct Construction
{
    double seconds = 0.0;
    SetupParts parts;
    SpecStats spec;
    LayoutStats layout;
    int blocks = 0;
    int nets = 0;
};

/** Construct to ready (warm cache); counts a miss as a failure. */
Construction
warmConstruction(RunContext &ctx, const SimConfig &cfg)
{
    Construction c;
    SpanScope setup(ctx.rec, "setup.warm");
    Instance inst = buildInstance(ctx.design, cfg, false, ctx.rec, &c.parts);
    c.parts.ready = waitReady(*inst.sim, ctx.rec);
    c.seconds = setup.close();
    c.spec = inst.sim->specStats();
    c.layout = inst.sim->layoutStats();
    c.blocks = static_cast<int>(inst.elab->blocks.size());
    c.nets = static_cast<int>(inst.elab->nets.size());
    if (isCpp(cfg)) {
        ctx.ops.record(c.spec.cacheHit,
                       "warm " + cfg.toString() +
                           " construction missed the JIT cache");
    }
    return c;
}

/** A private, empty JIT cache directory, removed on destruction. */
class ScratchCache
{
  public:
    ScratchCache(const std::string &root, const std::string &tag)
    {
        static int seq = 0;
        path_ = root + "/" + std::to_string(::getpid()) + "-" + tag + "-" +
                std::to_string(seq++);
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~ScratchCache()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    ScratchCache(const ScratchCache &) = delete;
    ScratchCache &operator=(const ScratchCache &) = delete;
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/**
 * Cold construction in a fresh cache. With @p cycle_to_swap the tiered
 * simulator is reset and run until the native tier lands, so the swap
 * cycle is the one a user would see.
 */
Construction
coldConstruction(RunContext &ctx, const Design &design,
                 const std::string &backend, bool cycle_to_swap)
{
    ScratchCache scratch(ctx.cold_root, backend);
    SimConfig cfg = makeConfig(backend, 1, scratch.path());
    Construction c;
    SpanScope setup(ctx.rec, "setup.cold");
    Instance inst = buildInstance(design, cfg, false, ctx.rec, &c.parts);
    if (cycle_to_swap) {
        SpanScope s(ctx.rec, "sim.cycle_to_swap");
        inst.sim->reset();
        while (inst.sim->tierPending())
            inst.sim->cycle(kMeshWarmup);
        c.parts.ready = s.close();
    } else {
        c.parts.ready = waitReady(*inst.sim, ctx.rec);
    }
    c.seconds = setup.close();
    c.spec = inst.sim->specStats();
    ctx.ops.record(!c.spec.cacheHit,
                   "cold " + backend + " construction hit a cache");
    return c;
}

// --- lane setup and measured units ----------------------------------------

/** Reset a fresh simulator and bring its native tier live. */
void
resetToReady(RunContext &ctx, const Lane &lane, Simulator &sim)
{
    if (!lane.pgo())
        waitReady(sim, ctx.rec);
    sim.reset();
    if (lane.pgo()) {
        // The profile-guided tier starts compiling once it has run its
        // warm-up cycles; wait for it without advancing further, so the
        // lane's checkpoints stay comparable with the others'.
        uint64_t warm = lane.cfg.pgo_warm_cycles;
        sim.cycle((warm + kMeshWarmup - 1) / kMeshWarmup * kMeshWarmup);
        waitReady(sim, ctx.rec);
    }
}

/**
 * Log the mesh lane's stats at its current cycle. A later instance of
 * the same lane that logs the same cycle must agree with the first.
 */
void
logStats(RunContext &ctx, Lane &lane)
{
    uint64_t cycle = lane.inst.sim->numCycles();
    const net::NetStats &stats = lane.inst.mesh()->stats();
    auto [it, fresh] = lane.log.emplace(cycle, stats);
    if (!fresh) {
        ctx.ops.record(statsEqual(it->second, stats),
                       lane.label + ": a fresh instance diverged at cycle " +
                           std::to_string(cycle));
    }
}

/**
 * Bring a constructed lane to its measured state: native tier live,
 * reset and warmed up. A multitile lane frees the simulator: its jobs
 * build their own.
 */
void
prepareLane(RunContext &ctx, Lane &lane)
{
    SpanScope s(ctx.rec, "lane.prepare." + lane.label);
    Simulator &sim = *lane.inst.sim;
    resetToReady(ctx, lane, sim);
    lane.cache = !isCpp(lane.cfg)              ? "-"
                 : sim.specStats().cacheHit ? "hit"
                                            : "miss";
    lane.chunk = chunkCycles(ctx.spec, lane.cfg);
    if (!ctx.spec.mesh) {
        lane.inst.release();
        return;
    }
    sim.cycle(kMeshWarmup);
    logStats(ctx, lane);
    if (lane.parsim()) {
        // New worker threads start out sharing CPUs and run at about
        // half speed until the scheduler spreads them (~1 s). The
        // untimed chunks still log, keeping checkpoints aligned.
        Stopwatch settle;
        while (settle.elapsed() < kParSimSettleSeconds) {
            sim.cycle(lane.chunk);
            logStats(ctx, lane);
        }
    }
}

/**
 * Set up lanes: construct every simulator first, so tiered cpp-design
 * compiles run in the background while cpp-block compiles in the
 * foreground, then prepare each. A failure breaks only its lane.
 */
void
setupLanes(RunContext &ctx, const std::vector<Lane *> &group)
{
    SpanScope s(ctx.rec, "lanes.setup");
    for (int pass = 0; pass < 2; ++pass) {
        for (Lane *lane : group) {
            if (lane->broken)
                continue;
            try {
                if (pass == 0)
                    lane->inst = buildInstance(ctx.design, lane->cfg,
                                               lane->parsim_direct, ctx.rec);
                else
                    prepareLane(ctx, *lane);
            } catch (const std::exception &e) {
                ctx.ops.record(false, lane->label + " setup: " + e.what());
                lane->broken = true;
                lane->inst.release();
            }
        }
    }
}

/** Run @p cycles (or until @p stop) as one slice, then a reference chunk. */
template <typename Stop>
Sample
slice(RunContext &ctx, const Lane &lane, Reference &ref, uint64_t cycles,
      Stop stop)
{
    Sample x;
    Simulator &sim = *lane.inst.sim;
    uint64_t start = sim.numCycles();
    {
        SpanScope s(ctx.rec, "slice." + lane.label);
        for (uint64_t i = 0; i < cycles; ++i) {
            sim.cycle();
            if (stop())
                break;
        }
        x.seconds = s.close();
    }
    x.cycles = static_cast<double>(sim.numCycles() - start);
    x.ref_cycles = x.seconds * ref.afterSlice();
    return x;
}

std::unique_ptr<SimScope>
attachScope(Simulator &sim)
{
    return std::make_unique<SimScope>(
        sim, SimScope::Options{SimScope::Timing::Sampled, kScopeSamplePeriod});
}

/** One measured chunk of a persistent mesh simulator. */
void
meshUnit(RunContext &ctx, Lane &lane, Reference &ref, bool scoped)
{
    Simulator &sim = *lane.inst.sim;
    std::unique_ptr<SimScope> scope;
    if (scoped)
        scope = attachScope(sim);
    Sample x = slice(ctx, lane, ref, lane.chunk, [] { return false; });
    if (scope) {
        lane.scope.add(*scope, *lane.inst.elab);
        scope->detach();
    }
    (scoped ? lane.scoped_samples : lane.samples).push_back(x);
    logStats(ctx, lane);
}

/** Cycles-to-halt every multitile job must reproduce. */
struct JobCheck
{
    uint64_t cycles_to_halt = 0;
    std::string first_lane;
};

/** Drain a halted job, then check cycles-to-halt and every output. */
void
checkJob(RunContext &ctx, Lane &lane, JobCheck &check)
{
    Simulator &sim = *lane.inst.sim;
    tile::MultiTileSystem &sys = *lane.inst.system();
    uint64_t cycles = sim.numCycles();
    if (check.first_lane.empty()) {
        check.cycles_to_halt = cycles;
        check.first_lane = lane.label;
    }
    ctx.ops.record(cycles == check.cycles_to_halt,
                   lane.label + ": halted at cycle " +
                       std::to_string(cycles) + ", " + check.first_lane +
                       " at " + std::to_string(check.cycles_to_halt));
    sim.cycle(kDrainCycles);
    const tile::Workload &w = ctx.design.job;
    std::vector<uint32_t> expect = tile::expectedMvmult(w, ctx.design.seed);
    int wrong = 0;
    for (int t = 0; t < sys.numTiles(); ++t) {
        uint32_t base = w.out_addr + static_cast<uint32_t>(t * w.n * 4);
        for (int r = 0; r < w.n; ++r) {
            if (sys.memNode().readWord(base + static_cast<uint32_t>(r) * 4) !=
                expect[r])
                ++wrong;
        }
    }
    ctx.ops.record(wrong == 0, lane.label + ": " + std::to_string(wrong) +
                                   " wrong mvmult output words");
}

/**
 * One slice of the lane's multitile job. A job is a fresh system run
 * from reset to halt; its first slice builds it (untimed), and the
 * slice that halts it drains, checks and records the whole job. In a
 * traced run every other job runs under SimScope.
 */
void
jobUnit(RunContext &ctx, Lane &lane, Reference &ref, JobCheck &check)
{
    if (!lane.inst.sim) {
        SpanScope s(ctx.rec, "job.start." + lane.label);
        lane.inst = buildInstance(ctx.design, lane.cfg, lane.parsim_direct,
                                  ctx.rec);
        resetToReady(ctx, lane, *lane.inst.sim);
        if (lane.scoped && lane.jobs_started % 2 == 1)
            lane.job_scope = attachScope(*lane.inst.sim);
        lane.job = Sample{};
        ++lane.jobs_started;
    }
    Simulator &sim = *lane.inst.sim;
    tile::MultiTileSystem &sys = *lane.inst.system();
    uint64_t left = kJobCycleLimit - std::min(kJobCycleLimit, sim.numCycles());
    lane.job.add(slice(ctx, lane, ref, std::min(lane.chunk, left),
                       [&] { return sys.allHalted(); }));
    bool halted = sys.allHalted();
    if (!halted && sim.numCycles() < kJobCycleLimit)
        return;
    SpanScope s(ctx.rec, "job.check." + lane.label);
    bool scoped = lane.job_scope != nullptr;
    if (scoped) {
        lane.scope.add(*lane.job_scope, *lane.inst.elab);
        lane.job_scope.reset();
    }
    if (ctx.ops.record(halted, lane.label + ": job did not halt within " +
                                   std::to_string(kJobCycleLimit) +
                                   " cycles")) {
        (scoped ? lane.scoped_samples : lane.samples).push_back(lane.job);
        checkJob(ctx, lane, check);
    }
    lane.inst.release();
}

/** True once a lane holds the units its metrics need. */
bool
laneDone(const RunContext &ctx, const Lane &lane)
{
    if (lane.broken)
        return true;
    size_t want = ctx.spec.mesh ? 2 : 1;
    return lane.samples.size() >= want &&
           (!lane.scoped || lane.scoped_samples.size() >= want);
}

/**
 * Rounds over @p group, one unit per lane per round, each followed by
 * a reference chunk, until @p seconds have passed and every lane holds
 * the units it needs. @p each_round runs before every round, outside
 * the budget.
 */
void
runRounds(RunContext &ctx, const std::vector<Lane *> &group, Reference &ref,
          double seconds, JobCheck &check,
          const std::function<void()> &each_round = {})
{
    // The budget counts measured time only, not the round hook's.
    Stopwatch clock;
    double hook_seconds = 0.0;
    for (;;) {
        bool done = clock.elapsed() - hook_seconds >= seconds;
        for (const Lane *lane : group)
            done = done && laneDone(ctx, *lane);
        if (done)
            break;
        if (each_round) {
            Stopwatch hook;
            each_round();
            hook_seconds += hook.elapsed();
        }
        for (size_t i = 0; i < group.size(); ++i) {
            Lane &lane = *group[i];
            if (lane.broken)
                continue;
            try {
                if (ctx.spec.mesh) {
                    bool scoped = lane.scoped &&
                                  lane.scoped_samples.size() <
                                      lane.samples.size();
                    meshUnit(ctx, lane, ref, scoped);
                } else {
                    jobUnit(ctx, lane, ref, check);
                }
                ctx.ops.record(true, "");
            } catch (const std::exception &e) {
                ctx.ops.record(false, lane.label + ": " + e.what());
                lane.broken = true;
                lane.job_scope.reset();
                lane.inst.release();
            }
        }
    }
    // A multitile job still running when the budget ends is dropped.
    for (Lane *lane : group) {
        if (!ctx.spec.mesh) {
            lane->job_scope.reset();
            lane->inst.release();
        }
    }
}

/** Check a mesh lane's conservation, keep its stats, free it. */
void
finishMeshLane(RunContext &ctx, Lane &lane)
{
    if (!lane.broken) {
        net::MeshTrafficTop &top = *lane.inst.mesh();
        lane.final_stats = top.stats();
        ctx.ops.record(messagesConserved(top.stats(), top.inFlight(),
                                         top.queuedAtSources()),
                       lane.label + ": messages not conserved");
    }
    lane.inst.release();
}

/**
 * The timed constructions behind setup_s and, in a traced run,
 * cold_setup_s. They run one per round of the sequential lanes (cold
 * ones spread evenly over the budget), so they sample the same host
 * phases as the speeds do. The mesh workloads compile their routers
 * at 2x2 when cold.
 */
class SetupSampler
{
  public:
    static constexpr size_t kMinWarm = 7;

    SetupSampler(RunContext &ctx, double seconds)
        : ctx_(ctx), cold_(ctx.design), seconds_(seconds),
          cold_target_(ctx.opts.trace ? 7 : 0)
    {
        if (ctx.spec.mesh)
            cold_.nrouters = kColdMeshRouters;
    }

    void
    round()
    {
        warm();
        if (cold_count_ < cold_target_ &&
            clock_.elapsed() >= seconds_ * static_cast<double>(cold_count_) /
                                    static_cast<double>(cold_target_))
            cold();
    }

    /** Top up to the minimum sample counts. */
    void
    finish()
    {
        while (warm_.size() < kMinWarm)
            warm();
        while (cold_count_ < cold_target_)
            cold();
    }

    /** Warm cpp-design constructions, in order. */
    const std::vector<Construction> &warmConstructions() const
    {
        return warm_;
    }

  private:
    void
    warm()
    {
        warm_.push_back(warmConstruction(
            ctx_, makeConfig("cpp-design", 1, ctx_.cache_dir)));
        ctx_.setup_samples.push_back(warm_.back().seconds);
    }

    void
    cold()
    {
        ctx_.cold_samples.push_back(
            coldConstruction(ctx_, cold_, "cpp-design", false).seconds);
        ++cold_count_;
    }

    RunContext &ctx_;
    Design cold_;
    double seconds_;
    size_t cold_target_;
    Stopwatch clock_;
    std::vector<Construction> warm_;
    size_t cold_count_ = 0;
};

/**
 * The budget's split: one share per sequential lane, one per epoch of
 * a ParSim lane.
 */
double
shareSeconds(const RunContext &ctx, const std::vector<Lane> &lanes)
{
    double shares = 0.0;
    for (const Lane &lane : lanes)
        shares += lane.epochs;
    return ctx.opts.seconds / shares;
}

/**
 * Measure every lane for its share of the budget. Sequential lanes
 * interleave with each other, slice by slice; each ParSim lane then
 * runs alone, because idle ParSim workers spin and would slow
 * whichever lane is being measured.
 */
void
measureLanes(RunContext &ctx, std::vector<Lane> &lanes, Reference &ref,
             SetupSampler &setups)
{
    SpanScope s(ctx.rec, "measure");
    JobCheck check;
    double share = shareSeconds(ctx, lanes);
    std::vector<Lane *> sequential, parsim;
    for (Lane &lane : lanes)
        (lane.parsim() ? parsim : sequential).push_back(&lane);
    runRounds(ctx, sequential, ref,
              share * static_cast<double>(sequential.size()), check,
              [&] { setups.round(); });
    setups.finish();
    if (ctx.spec.mesh) {
        for (Lane *lane : sequential)
            finishMeshLane(ctx, *lane);
    }
    for (Lane *lane : parsim) {
        if (!ctx.spec.mesh) {
            // Every job is a fresh instance already.
            runRounds(ctx, {lane}, ref, share * lane->epochs, check);
            continue;
        }
        for (int epoch = 0; epoch < lane->epochs; ++epoch) {
            setupLanes(ctx, {lane});
            runRounds(ctx, {lane}, ref, share, check);
            finishMeshLane(ctx, *lane);
        }
    }
    if (!ctx.spec.mesh) {
        ctx.notes.push_back(
            "multitile mvmult n=" + std::to_string(kMvmultN) + " x " +
            std::to_string(kTiles) + " RTL tiles: " +
            std::to_string(check.cycles_to_halt) +
            " simulated cycles to halt (every job, every backend)");
    }
}

/** Mesh correctness: every lane's stats agree at common cycles. */
void
checkMeshLanes(RunContext &ctx, std::vector<Lane> &lanes)
{
    SpanScope s(ctx.rec, "check");
    // Verify in order of the last logged cycle: each verified lane's log
    // joins the reference, so lanes that ran further are compared over
    // the stretch the shorter ones cover. Every log descends from
    // optinterp's, the slowest lane.
    std::vector<Lane *> order;
    for (Lane &lane : lanes) {
        if (!lane.broken)
            order.push_back(&lane);
    }
    auto last = [](const Lane *l) { return l->log.rbegin()->first; };
    std::stable_sort(order.begin(), order.end(),
                     [&](const Lane *a, const Lane *b) {
                         bool ao = a->label == "optinterp";
                         bool bo = b->label == "optinterp";
                         if (ao != bo)
                             return ao;
                         return last(a) < last(b);
                     });
    StatsLog verified;
    for (Lane *lane : order) {
        if (verified.empty()) {
            verified = lane->log;
            continue;
        }
        size_t common = 0;
        std::vector<std::string> diffs =
            compareStatsLogs(verified, lane->log, &common);
        std::string what = lane->label + ": ";
        what += common == 0 ? "no checkpoint shared with optinterp"
                            : diffs.empty() ? "" : diffs.front();
        if (ctx.ops.record(diffs.empty() && common > 0, what))
            verified.insert(lane->log.begin(), lane->log.end());
    }
    // Report the longest-running lane's simulated results.
    const Lane *longest = nullptr;
    for (const Lane &lane : lanes) {
        if (!lane.broken &&
            (!longest || lane.final_stats.cycles > longest->final_stats.cycles))
            longest = &lane;
    }
    if (longest) {
        const net::NetStats &st = longest->final_stats;
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "8x8 RTL mesh, injection %.2f: throughput %.4f "
                      "msgs/terminal/cycle, average latency %.2f cycles "
                      "over %llu cycles (%s)",
                      ctx.spec.injection, st.throughput(kMeshRouters),
                      st.avgLatency(),
                      static_cast<unsigned long long>(st.cycles),
                      longest->label.c_str());
        ctx.notes.push_back(buf);
    }
}

// --- per-layer (traced run) --------------------------------------------

double
share(double part, double whole)
{
    return whole > 0.0 ? part / whole : 0.0;
}

void
measurePerLayer(RunContext &ctx, std::vector<Lane> &lanes,
                const Reference &ref,
                const std::vector<Construction> &warm_design)
{
    SpanScope s(ctx.rec, "per_layer");
    const Design &d = ctx.design;

    // core/model: spans of the warm cpp-design constructions.
    std::vector<double> elab, construct, make, ready;
    for (const Construction &c : warm_design) {
        elab.push_back(c.parts.elaborate);
        construct.push_back(c.parts.construct);
        make.push_back(c.parts.make);
        ready.push_back(c.parts.ready);
    }
    ctx.metric("model.elaborate_s", "s", median(elab));
    ctx.metric("model.blocks", "count", warm_design.front().blocks);
    ctx.metric("model.nets", "count", warm_design.front().nets);
    ctx.metric("setup.construct_s", "s", median(construct));
    ctx.metric("setup.make_simulator_s", "s", median(make));
    ctx.metric("setup.ready_wait_s", "s", median(ready));
    ctx.metric("cold_setup_s", "s", median(ctx.cold_samples));

    // core/partition and core/layout, on one elaboration.
    Instance inst;
    inst.top = d.build();
    inst.elab = inst.top->elaborate();
    std::vector<double> part_s, layout_s;
    PartitionPlan plan;
    LayoutStats lstats;
    for (int k = 0; k < 5; ++k) {
        {
            SpanScope p(ctx.rec, "partition");
            plan = partitionDesign(*inst.elab, 2);
            part_s.push_back(p.close());
        }
        SpanScope l(ctx.rec, "layout.elab_order");
        lstats = ArenaLayout::elabOrder(*inst.elab).stats();
        layout_s.push_back(l.close());
    }
    ctx.metric("partition.s", "s", median(part_s));
    ctx.metric("partition.cut_tokens", "count", plan.cutTokens);
    ctx.metric("partition.seed_cut_tokens", "count", plan.seedCutTokens);
    ctx.metric("layout.s", "s", median(layout_s));
    ctx.metric("layout.words_per_phase", "count", lstats.words_per_phase);
    ctx.metric("layout.flop_memcpy_ranges", "count",
               warm_design.front().layout.flop_memcpy_ranges);
    ctx.metric("layout.packed_nets", "count", lstats.packed_nets);

    // core/ir_bytecode and core/ir_cpp: codegen of warm constructions.
    std::vector<double> bc_codegen, block_codegen, design_codegen;
    for (int k = 0; k < 5; ++k) {
        bc_codegen.push_back(
            warmConstruction(ctx, makeConfig("bytecode", 1, ctx.cache_dir))
                .spec.codegenSeconds);
    }
    Construction block;
    for (int k = 0; k < 3; ++k) {
        block = warmConstruction(ctx,
                                 makeConfig("cpp-block", 1, ctx.cache_dir));
        block_codegen.push_back(block.spec.codegenSeconds);
    }
    for (const Construction &c : warm_design)
        design_codegen.push_back(c.spec.codegenSeconds);
    ctx.metric("ir_bytecode.codegen_s", "s", median(bc_codegen));
    ctx.metric("ir_cpp.codegen_s.cpp-block", "s", median(block_codegen));
    ctx.metric("ir_cpp.codegen_s.cpp-design", "s", median(design_codegen));
    ctx.metric("ir_cpp.tu_bytes.cpp-block", "bytes",
               static_cast<double>(block.spec.emittedTuBytes));
    ctx.metric("ir_cpp.tu_bytes.cpp-design", "bytes",
               static_cast<double>(
                   warm_design.front().spec.emittedTuBytes));

    // core/jit_cpp: the workload's own design, compiled cold.
    Construction cold_design = coldConstruction(ctx, d, "cpp-design", true);
    Construction cold_block = coldConstruction(ctx, d, "cpp-block", false);
    ctx.metric("jit_cpp.compile_s.cpp-block", "s",
               cold_block.spec.compileSeconds);
    ctx.metric("jit_cpp.compile_s.cpp-design", "s",
               cold_design.spec.compileSeconds);
    ctx.metric("jit_cpp.wrap_s", "s", cold_design.spec.wrapSeconds);
    ctx.metric("jit_cpp.tier_swap_cycle", "cycles",
               static_cast<double>(cold_design.spec.tierSwapCycle));

    // core/sim: SimScope phase shares and gating effectiveness.
    auto laneNamed = [&](const std::string &label) -> Lane & {
        for (Lane &lane : lanes) {
            if (lane.label == label)
                return lane;
        }
        throw std::logic_error("no lane " + label);
    };
    for (const std::string &b : kBackends) {
        const ScopeTotals &t = laneNamed(b).scope;
        double phases = t.settle + t.tick + t.flop;
        ctx.metric("sim.settle_share." + b, "ratio", share(t.settle, phases));
        ctx.metric("sim.tick_share." + b, "ratio", share(t.tick, phases));
        ctx.metric("sim.flop_share." + b, "ratio", share(t.flop, phases));
        double top = 0.0, total = 0.0;
        for (double v : t.block_seconds) {
            top = std::max(top, v);
            total += v;
        }
        ctx.metric("sim.top_block_share." + b, "ratio", share(top, total));
    }
    for (const std::string b : {"bytecode", "cpp-block"}) {
        const ScopeTotals &t = laneNamed(b).scope;
        ctx.metric("sim.gated_skip_ratio." + b, "ratio",
                   share(static_cast<double>(t.gated_steps),
                         static_cast<double>(t.gated_steps + t.comb_calls)));
    }

    // core/psim: the 2-thread lane's islands, per 1000 simulated cycles.
    {
        const ScopeTotals &t = laneNamed("psim2").scope;
        double kcycles = static_cast<double>(t.cycles) / 1000.0;
        double compute = 0.0, barrier = 0.0;
        for (double v : t.island_compute)
            compute = std::max(compute, v);
        for (double v : t.island_barrier)
            barrier = std::max(barrier, v);
        ctx.metric("psim.compute_s", "s/kcycle", share(compute, kcycles));
        ctx.metric("psim.barrier_s", "s/kcycle", share(barrier, kcycles));
        ctx.metric("psim.compute_barrier_ratio", "ratio",
                   share(compute, barrier));
        ctx.metric("psim.boundary_bytes_per_cycle", "B/cycle",
                   share(static_cast<double>(t.boundary_bytes),
                         static_cast<double>(t.cycles)));
        ctx.metric("psim.gated_supersteps", "1/kcycle",
                   share(static_cast<double>(t.gated_supersteps), kcycles));
    }

    // refcpp and raw rates.
    ctx.metric("ref.cps", "1/s", median(ref.rates()));
    for (const Lane &lane : lanes) {
        if (!lane.cps_metric.empty())
            ctx.metric(lane.cps_metric, "1/s", median(rates(lane.samples)));
    }
    // Lane ratios the untraced run does not gate: the ablations, and
    // optinterp and psim2, whose ratios drift with the host much more
    // than RefMeshCL's does (see README.md). Then the SimScope overhead.
    std::vector<double> overhead;
    for (const Lane &lane : lanes) {
        if (lane.metric.rfind("ablate.", 0) == 0 ||
            lane.metric == "speed.optinterp" || lane.metric == "speed.psim2")
            ctx.metric(lane.metric, "ratio", laneRatio(lane));
        if (lane.scoped && !lane.scoped_samples.empty())
            overhead.push_back(laneRatio(lane, true) /
                               laneRatio(lane));
    }
    ctx.metric("trace.overhead", "ratio", median(overhead));
}

// --- host record ----------------------------------------------------------

std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", std::isfinite(v) ? v : 0.0);
    return buf;
}

std::string
jsonArray(const std::vector<double> &v)
{
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%s%.6g", i ? "," : "", v[i]);
        out += buf;
    }
    return out + "]";
}

/**
 * The run record: host, toolchain, revision, cache state, and every
 * sample behind the reported medians.
 */
std::string
hostRecord(const RunContext &ctx, const std::vector<Lane> &lanes,
           const Reference &ref, size_t cache_entries_before)
{
    std::string lanes_json;
    for (const Lane &lane : lanes) {
        if (!lanes_json.empty())
            lanes_json += ",";
        lanes_json += jsonQuote(lane.label) + ":{\"cache\":" +
                      jsonQuote(lane.cache) +
                      ",\"chunk_cycles\":" + std::to_string(lane.chunk) +
                      ",\"ratio\":" + jsonNumber(laneRatio(lane)) +
                      ",\"ratios\":" + jsonArray(ratios(lane.samples)) +
                      ",\"rates\":" + jsonArray(rates(lane.samples)) +
                      ",\"scoped_ratios\":" +
                      jsonArray(ratios(lane.scoped_samples)) +
                      "}";
    }
    return std::string("{\"workload\":") + jsonQuote(ctx.spec.name) +
           ",\"seed\":" + std::to_string(ctx.opts.seed) +
           ",\"seconds\":" + std::to_string(ctx.opts.seconds) +
           ",\"trace\":" + (ctx.opts.trace ? "true" : "false") +
           ",\"host_cpus\":" +
           std::to_string(std::thread::hardware_concurrency()) +
           ",\"compiler\":" + jsonQuote(CppJit::compilerVersion()) +
           ",\"build_type\":" + jsonQuote(PERFBENCH_BUILD_TYPE) +
           ",\"revision\":" + jsonQuote(ctx.opts.revision) +
           ",\"jit_cache\":{\"dir\":" + jsonQuote(ctx.cache_dir) +
           ",\"entries_before_run\":" + std::to_string(cache_entries_before) +
           "},\"setup_s\":" + jsonArray(ctx.setup_samples) +
           ",\"cold_setup_s\":" + jsonArray(ctx.cold_samples) +
           ",\"ref_cps\":" + jsonArray(ref.rates()) +
           ",\"lanes\":{" + lanes_json + "}}";
}

size_t
countCacheEntries(const std::string &dir)
{
    size_t n = 0;
    std::error_code ec;
    for (const auto &e : fs::directory_iterator(dir, ec)) {
        if (e.path().extension() == ".so")
            ++n;
    }
    return n;
}

double
peakRssMb()
{
    struct rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace

// --- public helpers ---------------------------------------------------------

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"setup_s", "s"},
        {"speed.bytecode", "ratio"},
        {"speed.cpp-block", "ratio"},
        {"speed.cpp-design", "ratio"},
        {"peak_rss_mb", "MB"},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = [] {
        std::vector<MetricSpec> v = {
            {"model.elaborate_s", "s"},
            {"model.blocks", "count"},
            {"model.nets", "count"},
            {"setup.construct_s", "s"},
            {"setup.make_simulator_s", "s"},
            {"setup.ready_wait_s", "s"},
            {"cold_setup_s", "s"},
            {"partition.s", "s"},
            {"partition.cut_tokens", "count"},
            {"partition.seed_cut_tokens", "count"},
            {"layout.s", "s"},
            {"layout.words_per_phase", "count"},
            {"layout.flop_memcpy_ranges", "count"},
            {"layout.packed_nets", "count"},
            {"ir_bytecode.codegen_s", "s"},
            {"ir_cpp.codegen_s.cpp-block", "s"},
            {"ir_cpp.codegen_s.cpp-design", "s"},
            {"ir_cpp.tu_bytes.cpp-block", "bytes"},
            {"ir_cpp.tu_bytes.cpp-design", "bytes"},
            {"jit_cpp.compile_s.cpp-block", "s"},
            {"jit_cpp.compile_s.cpp-design", "s"},
            {"jit_cpp.wrap_s", "s"},
            {"jit_cpp.tier_swap_cycle", "cycles"},
        };
        for (const std::string &b : kBackends) {
            for (const char *phase : {"settle", "tick", "flop", "top_block"})
                v.push_back({std::string("sim.") + phase + "_share." + b,
                             "ratio"});
        }
        v.push_back({"sim.gated_skip_ratio.bytecode", "ratio"});
        v.push_back({"sim.gated_skip_ratio.cpp-block", "ratio"});
        v.push_back({"psim.compute_s", "s/kcycle"});
        v.push_back({"psim.barrier_s", "s/kcycle"});
        v.push_back({"psim.compute_barrier_ratio", "ratio"});
        v.push_back({"psim.boundary_bytes_per_cycle", "B/cycle"});
        v.push_back({"psim.gated_supersteps", "1/kcycle"});
        v.push_back({"ref.cps", "1/s"});
        for (const std::string &b : kBackends)
            v.push_back({"cps." + b, "1/s"});
        v.push_back({"cps.psim2", "1/s"});
        v.push_back({"speed.optinterp", "ratio"});
        v.push_back({"speed.psim2", "ratio"});
        for (const char *b : {"bytecode", "cpp-block"})
            v.push_back({std::string("ablate.gating_off.speed.") + b,
                         "ratio"});
        for (const char *b : {"bytecode", "cpp-design"})
            v.push_back({std::string("ablate.layout_profile.speed.") + b,
                         "ratio"});
        v.push_back({"ablate.dead_elim.speed.cpp-block", "ratio"});
        for (const std::string &b : kBackends)
            v.push_back({"ablate.psim1.speed." + b, "ratio"});
        v.push_back({"trace.overhead", "ratio"});
        return v;
    }();
    return specs;
}

const std::vector<WorkloadSpec> &
workloads()
{
    static const std::vector<WorkloadSpec> specs = {
        {"mesh-sat", true, 0.30, {32, 128, 512, 2048, 256}},
        {"mesh-light", true, 0.02, {64, 256, 2048, 4096, 256}},
        {"multitile-mvmult", false, 0.0, {2048, 4096, 8192, 16384, 4096}},
    };
    return specs;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : workloads()) {
        if (w.name == name)
            return &w;
    }
    return nullptr;
}

bool
OpLedger::record(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok)
        failures_.push_back(what);
    return ok;
}

std::vector<std::string>
compareStatsLogs(const StatsLog &ref, const StatsLog &got, size_t *common)
{
    std::vector<std::string> diffs;
    *common = 0;
    for (const auto &[cycle, stats] : got) {
        auto it = ref.find(cycle);
        if (it == ref.end())
            continue;
        ++*common;
        if (!statsEqual(it->second, stats)) {
            char buf[256];
            std::snprintf(
                buf, sizeof buf,
                "NetStats differ at cycle %llu: generated %llu/%llu "
                "injected %llu/%llu received %llu/%llu latency_sum "
                "%llu/%llu",
                static_cast<unsigned long long>(cycle),
                static_cast<unsigned long long>(stats.generated),
                static_cast<unsigned long long>(it->second.generated),
                static_cast<unsigned long long>(stats.injected),
                static_cast<unsigned long long>(it->second.injected),
                static_cast<unsigned long long>(stats.received),
                static_cast<unsigned long long>(it->second.received),
                static_cast<unsigned long long>(stats.latency_sum),
                static_cast<unsigned long long>(it->second.latency_sum));
            diffs.push_back(buf);
        }
    }
    return diffs;
}

bool
messagesConserved(const net::NetStats &stats, uint64_t in_flight,
                  uint64_t queued)
{
    return stats.generated == stats.received + in_flight + queued;
}

SimConfig
makeConfig(const std::string &backend, int threads,
           const std::string &cache_dir)
{
    SimConfig cfg = SimConfig::fromString(backend);
    cfg.threads = threads;
    cfg.jit_cache_dir = cache_dir;
    return cfg;
}

double
coldMeshSetup(int nrouters, double injection, uint64_t seed,
              const std::string &scratch_root, bool *compiled)
{
    WorkloadSpec spec{"cold-mesh", true, injection};
    RunOptions opts;
    RunContext ctx(opts, spec);
    ctx.design = makeDesign(spec, seed);
    ctx.design.nrouters = nrouters;
    ctx.cold_root = scratch_root;
    Construction c = coldConstruction(ctx, ctx.design, "cpp-design", false);
    *compiled = !c.spec.cacheHit;
    return c.seconds;
}

RunResult
runWorkload(const RunOptions &opts)
{
    const WorkloadSpec *spec = findWorkload(opts.workload);
    if (!spec)
        throw std::invalid_argument("unknown workload " + opts.workload);
    RunContext ctx(opts, *spec);
    fs::create_directories(ctx.cache_dir);
    fs::create_directories(ctx.cold_root);
    size_t cache_before = countCacheEntries(ctx.cache_dir);
    SpanScope run(ctx.rec, "run");

    // Lanes first: setting them up fills the warm cache (untimed).
    // ParSim mesh lanes are set up when measured (see measureLanes).
    std::vector<Lane> lanes = makeLanes(ctx);
    {
        std::vector<Lane *> first;
        for (Lane &lane : lanes) {
            if (!(spec->mesh && lane.parsim()))
                first.push_back(&lane);
        }
        setupLanes(ctx, first);
    }

    Reference ref(ctx.rec);
    double sequential = 0.0;
    for (const Lane &lane : lanes)
        sequential += lane.parsim() ? 0.0 : shareSeconds(ctx, lanes);
    SetupSampler setups(ctx, sequential);
    measureLanes(ctx, lanes, ref, setups);
    if (spec->mesh)
        checkMeshLanes(ctx, lanes);
    {
        net::NetStats rs = ref.model().stats();
        char buf[192];
        std::snprintf(buf, sizeof buf,
                      "reference RefMeshCL 8x8, injection %.2f: "
                      "throughput %.4f, average latency %.2f cycles",
                      kRefInjection, rs.throughput(kMeshRouters),
                      rs.avgLatency());
        ctx.notes.push_back(buf);
    }

    if (opts.trace) {
        measurePerLayer(ctx, lanes, ref, setups.warmConstructions());
    } else {
        ctx.metric("setup_s", "s", median(ctx.setup_samples));
        for (const Lane &lane : lanes)
            ctx.metric(lane.metric, "ratio", laneRatio(lane));
        ctx.metric("peak_rss_mb", "MB", peakRssMb());
    }
    run.close();

    // Every listed metric, in the listed order.
    const std::vector<MetricSpec> &want =
        opts.trace ? perLayerMetrics() : endToEndMetrics();
    RunResult result;
    for (const MetricSpec &m : want) {
        auto it = std::find_if(ctx.metrics.begin(), ctx.metrics.end(),
                               [&](const Metric &x) { return x.name == m.name; });
        if (it == ctx.metrics.end() || it->unit != m.unit)
            throw std::logic_error("metric " + m.name + " not produced");
        result.metrics.push_back(*it);
    }

    std::string host = hostRecord(ctx, lanes, ref, cache_before);
    std::fprintf(stderr, "host: %s\n", host.c_str());
    for (const std::string &f : ctx.ops.failures())
        std::fprintf(stderr, "FAILED: %s\n", f.c_str());
    for (const std::string &n : ctx.notes)
        std::printf("simulated: %s\n", n.c_str());
    std::printf("simulated: the model is unvalidated against hardware; "
                "the repository holds no reference results.\n");
    if (opts.trace) {
        std::string path = opts.work_dir + "/trace-" + spec->name + "-seed" +
                           std::to_string(opts.seed) + ".json";
        if (!ctx.rec.writeChromeTrace(path, host))
            throw std::runtime_error("cannot write " + path);
        std::printf("trace: %s (%zu spans)\n", path.c_str(),
                    ctx.rec.spans().size());
        for (const auto &[name, self] : ctx.rec.selfSecondsByName()) {
            if (self >= 0.05)
                std::printf("self time: %-32s %9.3f s\n", name.c_str(), self);
        }
    }
    result.attempted = ctx.ops.attempted();
    result.failed = ctx.ops.failed();
    result.correct = result.failed == 0;
    return result;
}

std::string
resultJson(const RunResult &result)
{
    std::string out = std::string("{\"correct\": ") +
                      (result.correct ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(result.attempted) +
                      ", \"failed\": " + std::to_string(result.failed) +
                      ", \"metrics\": {";
    for (size_t i = 0; i < result.metrics.size(); ++i) {
        const Metric &m = result.metrics[i];
        char value[64];
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        out += (i ? ", " : "") + jsonQuote(m.name) + ": {\"value\": " +
               value + ", \"unit\": " + jsonQuote(m.unit) + "}";
    }
    return out + "}}";
}

} // namespace perfbench
