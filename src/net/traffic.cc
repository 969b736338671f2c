#include "traffic.h"

#include <algorithm>
#include <stdexcept>

#include "core/snap.h"

namespace cmtl {
namespace net {

namespace {
constexpr int kNumMsgIds = 16;
constexpr int kPayloadBits = 16;
constexpr uint64_t kTimeMask = (uint64_t(1) << kPayloadBits) - 1;

// Hotspot: this fraction of messages target node 0.
constexpr uint64_t kHotspotFrac = uint64_t(0.25 * 4294967296.0);
constexpr int kHotspotNode = 0;

// Bursty: 32-on / 96-off phases (25% duty), staggered per terminal.
constexpr uint64_t kBurstPeriod = 128;
constexpr uint64_t kBurstOn = 32;
} // namespace

bool
trafficPatternFromName(const std::string &name, TrafficPattern *out)
{
    for (TrafficPattern pattern : allTrafficPatterns()) {
        if (name == trafficPatternName(pattern)) {
            *out = pattern;
            return true;
        }
    }
    return false;
}

const std::vector<TrafficPattern> &
allTrafficPatterns()
{
    static const std::vector<TrafficPattern> all = {
        TrafficPattern::Uniform,       TrafficPattern::Tornado,
        TrafficPattern::Hotspot,       TrafficPattern::BitComplement,
        TrafficPattern::Bursty,
    };
    return all;
}

MeshTrafficTop::MeshTrafficTop(const std::string &name, NetLevel level,
                               int nrouters, int nentries,
                               double injection_rate, uint64_t seed,
                               TrafficPattern pattern)
    : Model(nullptr, name),
      msg_(makeNetMsg(nrouters, kNumMsgIds, kPayloadBits)),
      level_(level), nrouters_(nrouters),
      rate_fp_(rateToFp32(injection_rate)), pattern_(pattern),
      burst_rate_fp_(
          std::min(rateToFp32(injection_rate) * (kBurstPeriod / kBurstOn),
                   uint64_t(1) << 32))
{
    switch (level) {
      case NetLevel::FL:
        fl_ = std::make_unique<NetworkFL>(this, "net", nrouters,
                                          kNumMsgIds, kPayloadBits,
                                          nentries);
        net_in_ = &fl_->in_;
        net_out_ = &fl_->out;
        break;
      case NetLevel::CL:
        cl_ = std::make_unique<MeshNetworkCL>(this, "net", nrouters,
                                              kNumMsgIds, kPayloadBits,
                                              nentries);
        net_in_ = &cl_->in_;
        net_out_ = &cl_->out;
        break;
      case NetLevel::CLSpec:
        cl_spec_ = std::make_unique<MeshNetworkCLSpec>(
            this, "net", nrouters, kNumMsgIds, kPayloadBits, nentries);
        net_in_ = &cl_spec_->in_;
        net_out_ = &cl_spec_->out;
        break;
      case NetLevel::RTL:
        rtl_ = std::make_unique<MeshNetworkRTL>(this, "net", nrouters,
                                                kNumMsgIds, kPayloadBits,
                                                nentries);
        net_in_ = &rtl_->in_;
        net_out_ = &rtl_->out;
        break;
    }

    gens_.resize(nrouters);
    for (int t = 0; t < nrouters; ++t)
        gens_[t].init(seed, t);
    srcq_.resize(nrouters);

    // Messages stay one word end to end (packWord), with the payload
    // field resolved once here.
    if (msg_.nbits() > 64)
        throw std::invalid_argument("MeshTrafficTop: network message "
                                    "wider than 64 bits");
    tickFl("traffic", [this, payload = msg_.field("payload")] {
        // Ejection: sinks are always ready; measure completed
        // transfers.
        for (int t = 0; t < nrouters_; ++t) {
            OutValRdy &o = (*net_out_)[t];
            if (o.fire()) {
                uint64_t sent = payload.extract(o.msg.u64());
                uint64_t lat = (now_ - sent) & kTimeMask;
                --inflight_;
                ++stats_.received;
                stats_.latency_sum += lat;
                stats_.latency_max = std::max(stats_.latency_max, lat);
            }
            o.rdy.setNext(uint64_t(1));
        }
        // Injection bookkeeping: a source head accepted last cycle
        // leaves its queue.
        for (int t = 0; t < nrouters_; ++t) {
            InValRdy &i = (*net_in_)[t];
            if (i.fire()) {
                srcq_[t].pop_front();
                ++inflight_;
                ++stats_.injected;
            }
        }
        // Generation: open-loop Bernoulli arrivals.
        for (int t = 0; t < nrouters_; ++t) {
            if (genThisCycle(t)) {
                int dest = pickDestFor(t);
                uint64_t msg = msg_.packWord(
                    {static_cast<uint64_t>(dest),
                     static_cast<uint64_t>(t),
                     stats_.generated & (kNumMsgIds - 1),
                     now_ & kTimeMask});
                srcq_[t].emplace_back(msg, now_);
                ++stats_.generated;
            }
        }
        // Drive injection interfaces.
        for (int t = 0; t < nrouters_; ++t) {
            InValRdy &i = (*net_in_)[t];
            bool have = !srcq_[t].empty();
            i.val.setNext(uint64_t(have ? 1 : 0));
            if (have)
                i.msg.setNext(srcq_[t].front().first);
        }
        ++now_;
        ++stats_.cycles;
    });
}

bool
MeshTrafficTop::genThisCycle(int t)
{
    if (pattern_ != TrafficPattern::Bursty)
        return gens_[t].genThisCycle(rate_fp_);
    // Stagger burst phases across terminals so the network never sees
    // every source firing in lockstep; the draw is consumed in the
    // off phase too, keeping each terminal's RNG stream one-per-cycle
    // like every other pattern.
    bool on = (now_ + uint64_t(t) * 37) % kBurstPeriod < kBurstOn;
    return gens_[t].genThisCycle(on ? burst_rate_fp_ : 0);
}

int
MeshTrafficTop::pickDestFor(int t)
{
    switch (pattern_) {
      case TrafficPattern::Tornado: {
        int dim = meshDim(nrouters_);
        int x = t % dim;
        int y = t / dim;
        return ((y + dim / 2) % dim) * dim + (x + dim / 2) % dim;
      }
      case TrafficPattern::BitComplement:
        // Coordinate mirror; on a square row-major mesh this is the
        // index complement.
        return nrouters_ - 1 - t;
      case TrafficPattern::Hotspot:
        if ((gens_[t].next() >> 32) < kHotspotFrac)
            return kHotspotNode;
        return gens_[t].pickDest(nrouters_);
      case TrafficPattern::Uniform:
      case TrafficPattern::Bursty:
        break;
    }
    return gens_[t].pickDest(nrouters_);
}

void
MeshTrafficTop::resetStats()
{
    stats_ = NetStats{};
}

uint64_t
MeshTrafficTop::queuedAtSources() const
{
    uint64_t total = 0;
    for (const auto &q : srcq_)
        total += q.size();
    return total;
}

void
MeshTrafficTop::snapSave(SnapWriter &w) const
{
    w.u64(now_);
    w.u64(inflight_);
    w.u64(stats_.cycles);
    w.u64(stats_.generated);
    w.u64(stats_.injected);
    w.u64(stats_.received);
    w.u64(stats_.latency_sum);
    w.u64(stats_.latency_max);
    w.u32(static_cast<uint32_t>(gens_.size()));
    for (const TerminalTrafficGen &gen : gens_)
        w.u64(gen.state);
    w.u32(static_cast<uint32_t>(srcq_.size()));
    for (const auto &queue : srcq_) {
        w.u32(static_cast<uint32_t>(queue.size()));
        for (const auto &entry : queue) {
            w.bits(Bits(msg_.nbits(), entry.first));
            w.u64(entry.second);
        }
    }
}

void
MeshTrafficTop::snapLoad(SnapReader &r)
{
    now_ = r.u64();
    inflight_ = r.u64();
    stats_.cycles = r.u64();
    stats_.generated = r.u64();
    stats_.injected = r.u64();
    stats_.received = r.u64();
    stats_.latency_sum = r.u64();
    stats_.latency_max = r.u64();
    uint32_t ngens = r.u32();
    if (ngens != gens_.size())
        throw SnapError("MeshTrafficTop: snapshot has " +
                        std::to_string(ngens) +
                        " traffic generator(s), model has " +
                        std::to_string(gens_.size()));
    for (TerminalTrafficGen &gen : gens_)
        gen.state = r.u64();
    uint32_t nqueues = r.u32();
    if (nqueues != srcq_.size())
        throw SnapError("MeshTrafficTop: snapshot has " +
                        std::to_string(nqueues) +
                        " source queue(s), model has " +
                        std::to_string(srcq_.size()));
    for (auto &queue : srcq_) {
        queue.clear();
        uint32_t n = r.u32();
        for (uint32_t i = 0; i < n; ++i) {
            uint64_t msg = r.bits().toUint64();
            uint64_t born = r.u64();
            queue.emplace_back(msg, born);
        }
    }
}

} // namespace net
} // namespace cmtl
