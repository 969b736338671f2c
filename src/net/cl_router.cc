#include "cl_router.h"

#include "core/snap.h"

namespace cmtl {
namespace net {

RouterCL::RouterCL(Model *parent, const std::string &name, int id,
                   int nrouters, int nmsgs, int payload_nbits,
                   int nentries)
    : Model(parent, name), msg_(makeNetMsg(nrouters, nmsgs, payload_nbits)),
      id_(id), dim_(meshDim(nrouters)), nentries_(nentries),
      inq_(kMeshPorts), staged_(kMeshPorts), outbuf_(kMeshPorts),
      rr_(kMeshPorts, 0)
{
    for (int p = 0; p < kMeshPorts; ++p) {
        in_.emplace_back(this, "in_" + std::to_string(p), msg_.nbits());
        out.emplace_back(this, "out" + std::to_string(p), msg_.nbits());
    }

    tickCl("router_logic", [this, dest_f = msg_.field("dest")] {
        // 1. Output registers that fired drain.
        for (int o = 0; o < kMeshPorts; ++o) {
            if (out[o].fire())
                outbuf_[o].reset();
        }
        // 2. Sample arrivals into the staging stage.
        for (int p = 0; p < kMeshPorts; ++p) {
            if (in_[p].fire())
                staged_[p].push_back(in_[p].msg.value());
        }
        // 3. Switch traversal: per free output, round-robin over the
        //    inputs whose head routes to it. Head routes are
        //    snapshotted first so each input queue is popped at most
        //    once per cycle (one read port per buffer).
        int head_route[kMeshPorts];
        for (int p = 0; p < kMeshPorts; ++p) {
            if (inq_[p].empty()) {
                head_route[p] = -1;
            } else {
                uint64_t dest = msg_.get(inq_[p].front(), dest_f).toUint64();
                head_route[p] =
                    xyRoute(id_, static_cast<int>(dest), dim_);
            }
        }
        for (int o = 0; o < kMeshPorts; ++o) {
            if (outbuf_[o])
                continue;
            for (int k = 0; k < kMeshPorts; ++k) {
                int p = (rr_[o] + k) % kMeshPorts;
                if (head_route[p] != o)
                    continue;
                outbuf_[o] = inq_[p].front();
                inq_[p].pop_front();
                head_route[p] = -1;
                rr_[o] = (p + 1) % kMeshPorts;
                break;
            }
        }
        // 4. Stage advance: this cycle's arrivals become eligible.
        for (int p = 0; p < kMeshPorts; ++p) {
            while (!staged_[p].empty()) {
                inq_[p].push_back(staged_[p].front());
                staged_[p].pop_front();
            }
        }
        // 5. Drive interfaces for the next cycle.
        for (int o = 0; o < kMeshPorts; ++o) {
            out[o].val.setNext(uint64_t(outbuf_[o] ? 1 : 0));
            if (outbuf_[o])
                out[o].msg.setNext(*outbuf_[o]);
        }
        for (int p = 0; p < kMeshPorts; ++p) {
            bool room = inq_[p].size() <
                        static_cast<size_t>(nentries_);
            in_[p].rdy.setNext(uint64_t(room ? 1 : 0));
        }
    });
}

void
RouterCL::snapSave(SnapWriter &w) const
{
    auto putDeques = [&w](const std::vector<std::deque<Bits>> &deques) {
        for (const auto &dq : deques) {
            w.u32(static_cast<uint32_t>(dq.size()));
            for (const Bits &msg : dq)
                w.bits(msg);
        }
    };
    putDeques(inq_);
    putDeques(staged_);
    for (const auto &slot : outbuf_) {
        w.u8(slot ? 1 : 0);
        if (slot)
            w.bits(*slot);
    }
    for (int ptr : rr_)
        w.u32(static_cast<uint32_t>(ptr));
}

void
RouterCL::snapLoad(SnapReader &r)
{
    auto getDeques = [&r](std::vector<std::deque<Bits>> &deques) {
        for (auto &dq : deques) {
            dq.clear();
            uint32_t n = r.u32();
            for (uint32_t i = 0; i < n; ++i)
                dq.push_back(r.bits());
        }
    };
    getDeques(inq_);
    getDeques(staged_);
    for (auto &slot : outbuf_) {
        if (r.u8())
            slot = r.bits();
        else
            slot.reset();
    }
    for (int &ptr : rr_)
        ptr = static_cast<int>(r.u32());
}

std::string
RouterCL::lineTrace() const
{
    std::string occ;
    for (int p = 0; p < kMeshPorts; ++p)
        occ += std::to_string(inq_[p].size());
    return "r" + std::to_string(id_) + ":" + occ;
}

} // namespace net
} // namespace cmtl
