/**
 * @file
 * The end-to-end CMTL benchmark: workloads, measurement, checks.
 *
 * Every host-speed number is a ratio: simulated cycles per host second
 * divided by the hand-written RefMeshCL's cycles per second, measured
 * in reference chunks interleaved with the measured ones. Raw rates of
 * back-to-back processes drift with the host; the interleaved ratio
 * cancels most of that drift (see README.md for the measurements).
 *
 * The benchmark times calls into public CMTL functions only; it
 * changes nothing in the simulator.
 */
#ifndef CMTL_PERFBENCH_HARNESS_H
#define CMTL_PERFBENCH_HARNESS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/sim.h"
#include "net/traffic.h"

namespace perfbench {

/** A metric's name and unit, as BENCHMARK.json lists it. */
struct MetricSpec
{
    std::string name;
    std::string unit;
};

/** Metrics of an untraced run, in print order. */
const std::vector<MetricSpec> &endToEndMetrics();
/** Metrics of a traced run, in print order. */
const std::vector<MetricSpec> &perLayerMetrics();

/** One workload the benchmark can run. */
struct WorkloadSpec
{
    std::string name;
    bool mesh = true;       //!< 8x8 RTL mesh, else the multitile job
    double injection = 0.0; //!< mesh only: per terminal per cycle
    /**
     * Cycles per measured chunk (mesh) or job slice (multitile) for
     * optinterp, bytecode, cpp-block, cpp-design and 2-thread ParSim,
     * about 0.1 s each on a 4-CPU x86 host. Fixed rather than
     * calibrated per run: how much of a chunk runs on caches another
     * lane evicted depends on its length, so a noisy calibration that
     * flips a chunk between two sizes moves the ratio between runs.
     */
    uint64_t chunk[5] = {};
};

const std::vector<WorkloadSpec> &workloads();
/** nullptr when @p name is not a workload. */
const WorkloadSpec *findWorkload(const std::string &name);

/**
 * Failed and attempted operations. An operation is a timed
 * construction, a measured unit of simulation or a correctness
 * comparison; it fails on an exception, a mismatch, or a warm
 * construction that missed the JIT cache.
 */
class OpLedger
{
  public:
    /** Count one operation; a false @p ok records @p what as failed. */
    bool record(bool ok, const std::string &what);
    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failures_.size(); }
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    uint64_t attempted_ = 0;
    std::vector<std::string> failures_;
};

/** Network statistics observed at unit boundaries, by cycle. */
using StatsLog = std::map<uint64_t, cmtl::net::NetStats>;

/**
 * Compare @p got against @p ref at every cycle both logged. Returns
 * one description per differing cycle; fills @p common with the number
 * of cycles compared.
 */
std::vector<std::string> compareStatsLogs(const StatsLog &ref,
                                          const StatsLog &got,
                                          size_t *common);

/** Messages are conserved: generated = received + in flight + queued. */
bool messagesConserved(const cmtl::net::NetStats &stats,
                       uint64_t in_flight, uint64_t queued);

/**
 * Simulator config for canonical backend @p backend at @p threads.
 * The JIT cache directory is always explicit, so no construction
 * falls back to $CMTL_JIT_CACHE or the per-user /tmp default.
 */
cmtl::SimConfig makeConfig(const std::string &backend, int threads,
                           const std::string &cache_dir);

/**
 * Construct the RTL mesh at @p nrouters with cpp-design in a fresh
 * private JIT cache directory under @p scratch_root, wait until the
 * native tier is live, and remove the directory. Returns the seconds
 * from model construction to ready; @p compiled reports whether the
 * construction compiled (a cache miss, as a cold cache must give).
 */
double coldMeshSetup(int nrouters, double injection, uint64_t seed,
                     const std::string &scratch_root, bool *compiled);

/** Command-line options of one run. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Build directory: warm JIT cache, cold scratch, trace files. */
    std::string work_dir = ".bench_build";
    /** Source revision recorded with the run. */
    std::string revision = "unknown";
};

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

struct RunResult
{
    bool correct = false;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
};

/** Run one workload; progress and the host record go to stderr. */
RunResult runWorkload(const RunOptions &opts);

/** The run's one-line result object. */
std::string resultJson(const RunResult &result);

} // namespace perfbench

#endif // CMTL_PERFBENCH_HARNESS_H
