/**
 * @file
 * SimScope: the CMTL observability layer.
 *
 * A user-style tool over the model/tool split (like VcdWriter and
 * ActivityTool): it attaches to a running simulator — either kernel —
 * and collects the measurements every perf argument needs to rest on:
 *
 *  - per-block self time (exact, or sampled one-out-of-N for lower
 *    overhead), ranked and mapped back to hierarchical model paths;
 *  - per-phase timing: settle/tick/flop on the sequential kernel,
 *    per-island compute + barrier-wait + boundary-exchange bytes on
 *    the bulk-synchronous ParSim kernel, so load imbalance and
 *    synchronization overhead become visible;
 *  - val/rdy channel tracing: transfers, occupancy, backpressure
 *    stall cycles and a waiting-latency histogram per channel;
 *  - a unified MetricsRegistry (counters / gauges / histograms) with
 *    a one-line JSON snapshot consumed by StatsTool, the benches
 *    (BENCH_*.json "metrics" sections) and the examples' --profile
 *    flag.
 *
 * Overhead model: while detached the kernels pay one pointer test per
 * phase and per scheduled step (measured ≤2% on the Figure-14 RTL
 * mesh). While attached in exact mode every block execution brackets
 * two steady_clock reads; sampled mode reduces that to one out of
 * sample_period executions, scaling the recorded time accordingly.
 *
 * Lifetime: detach() (or destruction) must happen before the
 * simulator is destroyed. The per-cycle channel sampler stays
 * registered on the simulator but becomes inert after detach().
 */

#ifndef CMTL_CORE_SCOPE_H
#define CMTL_CORE_SCOPE_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim.h"

namespace cmtl {

/**
 * Power-of-two-bucketed histogram: bucket 0 counts zeros, bucket k
 * counts values in [2^(k-1), 2^k - 1].
 */
class ScopeHistogram
{
  public:
    void record(uint64_t value);

    uint64_t count() const { return count_; }
    uint64_t sum() const { return sum_; }
    uint64_t min() const { return count_ ? min_ : 0; }
    uint64_t max() const { return max_; }
    double
    mean() const
    {
        return count_ ? static_cast<double>(sum_) /
                            static_cast<double>(count_)
                      : 0.0;
    }
    /** Bucket counts, trimmed to the highest non-empty bucket. */
    std::vector<uint64_t> buckets() const;

    /** {"count":..,"sum":..,"min":..,"max":..,"buckets":[..]} */
    std::string toJson() const;

  private:
    uint64_t counts_[65] = {};
    uint64_t count_ = 0;
    uint64_t sum_ = 0;
    uint64_t min_ = ~0ull;
    uint64_t max_ = 0;
};

/**
 * Structured metrics container: named counters (monotonic integers),
 * gauges (point-in-time doubles) and histograms, serializable as one
 * JSON object. SimScope exports everything it collects into one of
 * these; user code may add its own entries through
 * SimScope::metrics().
 */
class MetricsRegistry
{
  public:
    void
    addCounter(const std::string &name, uint64_t delta = 1)
    {
        counters_[name] += delta;
    }
    void
    setCounter(const std::string &name, uint64_t value)
    {
        counters_[name] = value;
    }
    void
    setGauge(const std::string &name, double value)
    {
        gauges_[name] = value;
    }
    ScopeHistogram &
    histogram(const std::string &name)
    {
        return histograms_[name];
    }

    const std::map<std::string, uint64_t> &counters() const
    {
        return counters_;
    }
    const std::map<std::string, double> &gauges() const { return gauges_; }
    const std::map<std::string, ScopeHistogram> &histograms() const
    {
        return histograms_;
    }

    /** Merge every entry of @p other into this registry. */
    void merge(const MetricsRegistry &other);

    /** {"counters":{..},"gauges":{..},"histograms":{..}} */
    std::string toJson() const;

  private:
    std::map<std::string, uint64_t> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, ScopeHistogram> histograms_;
};

/** The profiling/metrics tool. One per simulator at a time. */
class SimScope
{
  public:
    enum class Timing { Exact, Sampled };

    struct Options
    {
        Timing timing = Timing::Exact;
        /** Sampled mode: time one out of this many block executions. */
        uint32_t sample_period = 64;
    };

    /** Attach to @p sim; collection starts immediately. */
    explicit SimScope(Simulator &sim) : SimScope(sim, Options{}) {}
    SimScope(Simulator &sim, Options opt);
    ~SimScope();
    SimScope(const SimScope &) = delete;
    SimScope &operator=(const SimScope &) = delete;

    /** Stop collecting and restore the kernel's fast path. */
    void detach();
    bool attached() const;

    /** Cycles observed while attached. */
    uint64_t cycles() const;

    // --- val/rdy channel tracing -----------------------------------

    /** Per-channel transaction statistics (sampled at cycle end). */
    struct ChannelStats
    {
        std::string name;
        int msg_net = -1;
        int val_net = -1;
        int rdy_net = -1;
        uint64_t cycles = 0;       //!< cycles observed
        uint64_t transfers = 0;    //!< val && rdy
        uint64_t stall_cycles = 0; //!< val && !rdy (backpressure)
        uint64_t idle_cycles = 0;  //!< !val
        /** Stalled cycles between val assertion and the transfer
         *  (0 = fired the cycle val rose). */
        ScopeHistogram latency;
        uint64_t pending_age = 0; //!< internal: current wait length

        /** Fraction of observed cycles with val asserted. */
        double
        occupancy() const
        {
            return cycles ? static_cast<double>(cycles - idle_cycles) /
                                static_cast<double>(cycles)
                          : 0.0;
        }
    };

    /** Trace one channel given its three endpoint signals. */
    void traceValRdy(const std::string &name, const Signal &msg,
                     const Signal &val, const Signal &rdy);

    /**
     * Discover and trace every val/rdy bundle in the design: any
     * <prefix>_msg/_val/_rdy signal triple on one model (the naming
     * contract of stdlib/valrdy.h). Connected endpoints share nets and
     * are traced once, under the shallowest model's name. Returns the
     * number of channels traced.
     */
    int traceAllValRdy();

    const std::vector<ChannelStats> &channels() const;

    // --- results ---------------------------------------------------

    /** One entry of the hot-block ranking. */
    struct BlockCost
    {
        std::string path; //!< hierarchical block name
        double seconds = 0.0;
        uint64_t calls = 0;
    };

    /** The @p n most expensive blocks by cumulative self time. */
    std::vector<BlockCost> hotBlocks(size_t n = 10) const;

    /** Aggregated phase timing (either kernel). */
    struct PhaseBreakdown
    {
        double settle_seconds = 0.0;
        double tick_seconds = 0.0;
        double flop_seconds = 0.0;
        double barrier_seconds = 0.0;  //!< ParSim only
        uint64_t boundary_bytes = 0;   //!< ParSim only
        /** Work units skipped by activity gating: comb blocks on the
         *  sequential kernel, island supersteps on ParSim. */
        uint64_t gated_supersteps = 0;
        int nislands = 1;
    };
    PhaseBreakdown phaseBreakdown() const;

    /** Raw probe (per-island vectors etc.), always valid. */
    const ScopeProbe &probe() const { return probe_; }

    /** User-extensible registry merged into snapshots. */
    MetricsRegistry &metrics() { return user_metrics_; }

    /** Export every collected metric into @p reg (scope.* names). */
    void exportMetrics(MetricsRegistry &reg) const;

    /**
     * One-line JSON snapshot: {"scope_version":1,"kernel":..,
     * "timing":..,"cycles":..,"phases":{..},"blocks":[..],
     * "channels":[..],"metrics":{..}}.
     */
    std::string jsonSnapshot() const;

    /** Human-readable report: phases, hot blocks, channels. */
    std::string report(size_t nblocks = 10) const;

  private:
    struct State; //!< shared with the cycle hook (outlives the tool)

    Simulator &sim_;
    ScopeProbe probe_;
    std::shared_ptr<State> state_;
    MetricsRegistry user_metrics_;
    bool parsim_ = false;
};

} // namespace cmtl

#endif // CMTL_CORE_SCOPE_H
