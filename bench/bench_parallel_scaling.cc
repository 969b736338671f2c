/**
 * @file
 * ParSim thread-scaling baseline.
 *
 * Sweeps the parallel kernel across thread counts {1,2,4,8,16} on the
 * parallelism-relevant workloads — mesh RTL networks near saturation
 * at 8x8, 32x32 and (with --full) 64x64 terminals, plus the multi-tile
 * system over the CL mesh — and records the machine-readable perf
 * baseline in BENCH_parallel_scaling.json. Speedups are self-relative
 * (ParSim at N threads vs the sequential SimulationTool on the same
 * design and backend), the honest number for a bulk-synchronous
 * kernel: it includes every barrier and boundary-push cost.
 *
 * Points whose thread count exceeds the host's hardware threads are
 * marked "oversubscribed": true and carry NO speedup field — a number
 * measured with spin-barrier workers time-slicing against each other
 * is an overhead datapoint, not a scaling claim. Each parallel point
 * also records the partition quality both ways (refined cut_tokens vs
 * the chunked seed's cut_tokens_chunked), the barrier wait and the
 * supersteps skipped by activity gating, so scaling regressions can be
 * attributed to partitioning, synchronization or wasted compute.
 */

#include <thread>

#include "common.h"
#include "core/psim.h"
#include "core/stats.h"
#include "net/traffic.h"
#include "tile/multitile.h"

namespace {

using namespace cmtl;
using namespace cmtl::bench;
using net::MeshTrafficTop;
using net::NetLevel;

SimConfig
cfgFor(Backend backend, int threads)
{
    SimConfig cfg;
    cfg.backend = backend;
    cfg.threads = threads;
    return cfg;
}

std::unique_ptr<Simulator>
makeMesh(int nrouters, Backend backend, int threads)
{
    static std::unique_ptr<MeshTrafficTop> top;
    top = std::make_unique<MeshTrafficTop>("top", NetLevel::RTL, nrouters,
                                           4, 0.30, 1);
    return makeSimulator(top->elaborate(), cfgFor(backend, threads));
}

std::unique_ptr<Simulator>
makeMultiTile(Backend backend, int threads)
{
    using namespace tile;
    static std::unique_ptr<MultiTileSystem> sys;
    static Workload w = makeMvmultMultiTile(8, false);
    sys = std::make_unique<MultiTileSystem>(
        "sys",
        std::vector<std::array<Level, 3>>(
            4, {Level::RTL, Level::RTL, Level::RTL}),
        /*cl_network=*/true);
    sys->loadProgram(w.image);
    loadMvmultData(sys->memNode(), w);
    return makeSimulator(sys->elaborate(), cfgFor(backend, threads));
}

struct Scenario
{
    std::string name;
    Backend backend;
    std::function<std::unique_ptr<Simulator>(Backend, int)> make;
    uint64_t probe_cycles; //!< SimScope'd fixed-length phase probe
};

std::string
backendName(Backend backend)
{
    SimConfig cfg;
    cfg.backend = backend;
    return cfg.toString();
}

std::function<std::unique_ptr<Simulator>(Backend, int)>
meshFactory(int nrouters)
{
    return [nrouters](Backend backend, int threads) {
        return makeMesh(nrouters, backend, threads);
    };
}

} // namespace

int
main(int argc, char **argv)
{
    SimOptions opts = SimOptions::parse(argc, argv);
    bool full = opts.full;
    double budget = full ? 4.0 : 1.0;
    std::vector<int> thread_counts = {1, 2, 4, 8, 16};
    int host_cpus =
        static_cast<int>(std::thread::hardware_concurrency());

    std::vector<Scenario> scenarios = {
        {"mesh_rtl_8x8", Backend::OptInterp, meshFactory(64), 192},
        {"mesh_rtl_8x8_bytecode", Backend::Bytecode, meshFactory(64),
         192},
        {"mesh_rtl_32x32", Backend::Bytecode, meshFactory(1024), 96},
        {"multitile_4rtl_mesh", Backend::Bytecode, makeMultiTile, 192},
    };
    if (full) {
        scenarios.push_back(
            {"mesh_rtl_64x64", Backend::Bytecode, meshFactory(4096), 48});
    }
    if (opts.backend_set) {
        // --backend=<b>: sweep just that backend on the small mesh and
        // the multi-tile system.
        std::string b = backendName(opts.cfg.backend);
        scenarios = {
            {"mesh_rtl_8x8_" + b, opts.cfg.backend, meshFactory(64), 192},
            {"multitile_4rtl_mesh_" + b, opts.cfg.backend, makeMultiTile,
             192},
        };
    }

    std::printf("ParSim thread scaling (host cpus: %d)\n", host_cpus);
    if (host_cpus < thread_counts.back()) {
        std::printf("NOTE: thread counts above %d host cpus are marked "
                    "oversubscribed (no speedup claim)\n",
                    host_cpus);
    }

    JsonWriter json("BENCH_parallel_scaling.json");
    json.beginObject();
    json.field("bench", "parallel_scaling");
    json.field("host_cpus", host_cpus);
    json.field("full", full);
    json.key("scenarios").beginArray();

    for (const Scenario &sc : scenarios) {
        rule('=');
        std::printf("%s (backend %s)\n", sc.name.c_str(),
                    backendName(sc.backend).c_str());
        rule('=');
        std::printf("%8s %14s %10s %10s %10s %12s\n", "threads",
                    "cycles/s", "speedup", "islands", "cut", "gated");

        json.beginObject();
        json.field("name", sc.name);
        json.field("backend", backendName(sc.backend));
        json.key("points").beginArray();

        double base_rate = 0.0;
        for (int threads : thread_counts) {
            bool oversubscribed = host_cpus > 0 && threads > host_cpus;
            RateResult r = measureRate(
                [&] { return sc.make(sc.backend, threads); }, budget);
            if (threads == 1)
                base_rate = r.cycles_per_second;
            double speedup =
                base_rate > 0 ? r.cycles_per_second / base_rate : 0.0;

            // Partition shape and per-phase breakdown at this thread
            // count (threads=1 is the sequential kernel: one island,
            // no barriers). The probe run is short and SimScope'd:
            // island compute vs barrier-wait vs boundary traffic vs
            // gated (skipped) supersteps.
            int nislands = 1, nlevels = 1, cut = 0, cut_chunked = 0;
            int refine_passes = 0;
            double imbalance = 1.0;
            std::unique_ptr<Simulator> probe =
                sc.make(sc.backend, threads);
            if (auto *par =
                    dynamic_cast<ParSimulationTool *>(probe.get())) {
                nislands = par->plan().nislands;
                nlevels = par->plan().nlevels;
                cut = par->plan().cutTokens;
                cut_chunked = par->plan().seedCutTokens;
                refine_passes = par->plan().refinePasses;
                imbalance = par->plan().imbalance();
                if (threads == thread_counts[1])
                    std::printf("%s", simulatorReport(*par).c_str());
            }
            SimScope scope(*probe);
            probe->cycle(sc.probe_cycles);
            SimScope::PhaseBreakdown pb = scope.phaseBreakdown();
            std::string metrics = scope.jsonSnapshot();
            scope.detach();

            if (oversubscribed) {
                std::printf("%8d %14.0f %10s %10d %10d %12llu\n",
                            threads, r.cycles_per_second, "oversub",
                            nislands, cut,
                            static_cast<unsigned long long>(
                                pb.gated_supersteps));
            } else {
                std::printf("%8d %14.0f %9.2fx %10d %10d %12llu\n",
                            threads, r.cycles_per_second, speedup,
                            nislands, cut,
                            static_cast<unsigned long long>(
                                pb.gated_supersteps));
            }
            std::printf(
                "         phase: compute %.4fs  barrier %.4fs  "
                "boundary %llu B (%llu cycles)\n",
                pb.settle_seconds + pb.tick_seconds + pb.flop_seconds,
                pb.barrier_seconds,
                static_cast<unsigned long long>(pb.boundary_bytes),
                static_cast<unsigned long long>(sc.probe_cycles));

            json.beginObject();
            json.field("threads", threads);
            json.field("cycles_per_second", r.cycles_per_second);
            if (oversubscribed) {
                // No speedup claim for a point that time-sliced its
                // spin-barrier workers on too few cores.
                json.field("oversubscribed", true);
            } else {
                json.field("oversubscribed", false);
                json.field("speedup_vs_1thread", speedup);
            }
            json.field("setup_seconds", r.setup_seconds);
            json.field("measured_cycles", r.measured_cycles);
            json.field("islands", nislands);
            json.field("settle_supersteps", nlevels);
            json.field("cut_tokens", cut);
            json.field("cut_tokens_chunked", cut_chunked);
            json.field("refine_passes", refine_passes);
            json.field("imbalance", imbalance);
            json.field("probe_cycles", sc.probe_cycles);
            json.field("barrier_seconds", pb.barrier_seconds);
            json.field("gated_supersteps", pb.gated_supersteps);
            json.key("metrics").rawValue(metrics);
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    std::printf("wrote BENCH_parallel_scaling.json\n");
    return 0;
}
