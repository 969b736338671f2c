/**
 * @file
 * Uniform-random traffic generation and measurement harness.
 *
 * Drives any of the three network implementations (FL/CL/RTL — they
 * share the same terminal interface) with open-loop Bernoulli traffic
 * and measures latency and throughput. The generator is deliberately
 * factored into TerminalTrafficGen so the hand-written C++ reference
 * network (src/refcpp) consumes the *identical* traffic stream,
 * enabling cycle-exact cross-validation, as the paper did between its
 * PyMTL and C++ mesh models.
 */

#ifndef CMTL_NET_TRAFFIC_H
#define CMTL_NET_TRAFFIC_H

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "net/fl_network.h"
#include "net/mesh.h"

namespace cmtl {
namespace net {

/** Deterministic per-terminal traffic source (xorshift64*). */
struct TerminalTrafficGen
{
    uint64_t state;

    void
    init(uint64_t seed, int terminal)
    {
        state = seed * 6364136223846793005ull +
                static_cast<uint64_t>(terminal) * 0x9e3779b97f4a7c15ull +
                1;
        next();
        next();
    }

    uint64_t
    next()
    {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return state * 0x2545f4914f6cdd1dull;
    }

    /** One Bernoulli draw against a fixed-point injection rate. */
    bool
    genThisCycle(uint64_t rate_fp32)
    {
        return (next() >> 32) < rate_fp32;
    }

    int pickDest(int nrouters) { return static_cast<int>(next() % nrouters); }
};

/** Fixed-point (Q32) encoding of an injection rate in [0, 1]. */
inline uint64_t
rateToFp32(double rate)
{
    return static_cast<uint64_t>(rate * 4294967296.0);
}

/**
 * Spatial/temporal traffic pattern (Dally & Towles terminology).
 *
 *  - Uniform: independent uniform destination per message.
 *  - Tornado: each coordinate shifts by half the mesh dimension —
 *    worst case for dimension-ordered routing on a mesh.
 *  - Hotspot: a fixed fraction of traffic converges on node 0, the
 *    rest is uniform.
 *  - BitComplement: terminal t sends to its coordinate mirror
 *    (nrouters-1-t on a square row-major mesh).
 *  - Bursty: uniform destinations, but injection is on/off modulated
 *    (25% duty cycle) at 4x the nominal rate so the *offered load*
 *    matches uniform while the instantaneous load stresses buffering.
 *
 * Every pattern derives its state from the cycle counter, the
 * terminal id and the per-terminal RNGs, so checkpoints need no
 * extra harness state and the snapshot format is pattern-agnostic.
 */
enum class TrafficPattern
{
    Uniform,
    Tornado,
    Hotspot,
    BitComplement,
    Bursty,
};

inline const char *
trafficPatternName(TrafficPattern pattern)
{
    switch (pattern) {
      case TrafficPattern::Uniform: return "uniform";
      case TrafficPattern::Tornado: return "tornado";
      case TrafficPattern::Hotspot: return "hotspot";
      case TrafficPattern::BitComplement: return "bit-complement";
      case TrafficPattern::Bursty: return "bursty";
    }
    return "?";
}

/** Parse a pattern name; returns false (out untouched) on unknown. */
bool trafficPatternFromName(const std::string &name,
                            TrafficPattern *out);

/** All patterns, in a stable sweep order. */
const std::vector<TrafficPattern> &allTrafficPatterns();

/**
 * Which network implementation a harness instantiates. CLSpec is the
 * IR-expressed cycle-level mesh (cycle-exact with CL) used where the
 * paper relies on SimJIT-CL specializing the CL model.
 */
enum class NetLevel { FL, CL, CLSpec, RTL };

inline const char *
netLevelName(NetLevel level)
{
    switch (level) {
      case NetLevel::FL: return "FL";
      case NetLevel::CL: return "CL";
      case NetLevel::CLSpec: return "CLSpec";
      case NetLevel::RTL: return "RTL";
    }
    return "?";
}

/** Aggregate network performance statistics. */
struct NetStats
{
    uint64_t cycles = 0;
    uint64_t generated = 0; //!< messages created (offered load)
    uint64_t injected = 0;  //!< messages accepted by the network
    uint64_t received = 0;
    uint64_t latency_sum = 0; //!< generation-to-ejection
    uint64_t latency_max = 0;

    double
    avgLatency() const
    {
        return received ? static_cast<double>(latency_sum) /
                              static_cast<double>(received)
                        : 0.0;
    }

    /** Received messages per terminal per cycle. */
    double
    throughput(int nterminals) const
    {
        return cycles ? static_cast<double>(received) /
                            static_cast<double>(cycles) / nterminals
                      : 0.0;
    }
};

/**
 * Top-level model: a network of the requested level plus traffic
 * sources/sinks on every terminal.
 */
class MeshTrafficTop : public Model
{
  public:
    /**
     * @param injection_rate per-terminal Bernoulli injection
     *        probability per cycle (offered load for every pattern;
     *        Bursty redistributes it in time, not in volume)
     */
    MeshTrafficTop(const std::string &name, NetLevel level, int nrouters,
                   int nentries, double injection_rate, uint64_t seed,
                   TrafficPattern pattern = TrafficPattern::Uniform);

    /** Zero the measurement counters (e.g. after warmup). */
    void resetStats();

    const NetStats &stats() const { return stats_; }
    int numTerminals() const { return nrouters_; }
    NetLevel level() const { return level_; }
    TrafficPattern pattern() const { return pattern_; }
    /** Messages inside the network (survives resetStats). */
    uint64_t inFlight() const { return inflight_; }
    /** Messages generated but not yet accepted by the network. */
    uint64_t queuedAtSources() const;

    // Harness state lives outside nets (RNGs, source queues,
    // counters), so checkpoints must carry it explicitly.
    void snapSave(SnapWriter &w) const override;
    void snapLoad(SnapReader &r) override;

  private:
    bool genThisCycle(int t);
    int pickDestFor(int t);

    BitStructLayout msg_;
    NetLevel level_;
    int nrouters_;
    uint64_t rate_fp_;
    TrafficPattern pattern_;
    uint64_t burst_rate_fp_; //!< on-phase rate for Bursty
    uint64_t now_ = 0;

    std::unique_ptr<NetworkFL> fl_;
    std::unique_ptr<MeshNetworkCL> cl_;
    std::unique_ptr<MeshNetworkCLSpec> cl_spec_;
    std::unique_ptr<MeshNetworkRTL> rtl_;
    std::deque<InValRdy> *net_in_ = nullptr;
    std::deque<OutValRdy> *net_out_ = nullptr;

    std::vector<TerminalTrafficGen> gens_;
    /** Per terminal: (one-word message, generation cycle). */
    std::vector<std::deque<std::pair<uint64_t, uint64_t>>> srcq_;
    NetStats stats_;
    uint64_t inflight_ = 0;
};

} // namespace net
} // namespace cmtl

#endif // CMTL_NET_TRAFFIC_H
