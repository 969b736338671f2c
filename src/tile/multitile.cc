#include "multitile.h"

#include <cmath>

namespace cmtl {
namespace tile {

namespace {

constexpr int kPayloadBits = 61; //!< tag (1) + mem request (60)
constexpr int kNumMsgIds = 16;

/** Network payload format: {port tag, request/response body}. */
BitStructLayout
payloadFmt()
{
    return BitStructLayout("BridgePayload", {{"tag", 1}, {"body", 60}});
}

int
terminalsFor(int ntiles)
{
    int need = ntiles + 1;
    int dim = 1;
    while (dim * dim < need)
        ++dim;
    return dim * dim;
}

} // namespace

// --------------------------------------------------------- TileMemBridge

TileMemBridge::TileMemBridge(Model *parent, const std::string &name,
                             int tile_id, const BitStructLayout &net_msg,
                             int mem_node)
    : Model(parent, name), imem_in(this, "imem_in", memIfcTypes()),
      dmem_in(this, "dmem_in", memIfcTypes()),
      net_out(this, "net_out", net_msg.nbits()),
      net_in(this, "net_in", net_msg.nbits()), msg_(net_msg),
      tile_id_(tile_id), mem_node_(mem_node)
{
    imem_ = std::make_unique<stdlib::ChildReqRespQueueAdapter>(imem_in,
                                                               4);
    dmem_ = std::make_unique<stdlib::ChildReqRespQueueAdapter>(dmem_in,
                                                               4);
    out_ = std::make_unique<stdlib::OutQueueAdapter>(net_out, 4);
    in_ = std::make_unique<stdlib::InQueueAdapter>(net_in, 4);

    // Field handles resolved once; the payload fits one word.
    const BitStructLayout payload = payloadFmt();
    tickFl("bridge_logic", [this, payload, pay_f = msg_.field("payload"),
                            tag_f = payload.field("tag"),
                            body_f = payload.field("body")] {
        imem_->xtick();
        dmem_->xtick();
        out_->xtick();
        in_->xtick();

        // Unwrap responses: the tag routes each to its refill port.
        while (!in_->empty()) {
            const uint64_t pay = msg_.get(in_->pop(), pay_f).toUint64();
            Bits resp(33, body_f.extract(pay));
            bool is_dmem = tag_f.extract(pay) != 0;
            (is_dmem ? dmem_ : imem_)->pushResp(resp);
        }

        // Wrap one request per cycle, round-robin between ports.
        if (!out_->full()) {
            for (int k = 0; k < 2; ++k) {
                int p = (rr_ + k) % 2;
                auto &ad = p == 0 ? imem_ : dmem_;
                if (ad->req_q.empty())
                    continue;
                const uint64_t pay = payload.packWord(
                    {p == 1 ? 1u : 0u, ad->getReq().toUint64()});
                out_->push(msg_.pack({static_cast<uint64_t>(mem_node_),
                                      static_cast<uint64_t>(tile_id_), 0,
                                      pay}));
                rr_ = (p + 1) % 2;
                break;
            }
        }
    });
}

// ---------------------------------------------------------------- MemNode

MemNode::MemNode(Model *parent, const std::string &name,
                 const BitStructLayout &net_msg, int latency)
    : Model(parent, name), net_out(this, "net_out", net_msg.nbits()),
      net_in(this, "net_in", net_msg.nbits()), msg_(net_msg),
      mem_types_(memIfcTypes()), latency_(latency)
{
    out_ = std::make_unique<stdlib::OutQueueAdapter>(net_out, 8);
    in_ = std::make_unique<stdlib::InQueueAdapter>(net_in, 8);

    // Field handles resolved once; payload, request and response each
    // fit one word.
    const BitStructLayout payload = payloadFmt();
    tickFl("mem_logic", [this, payload, src_f = msg_.field("src"),
                         pay_f = msg_.field("payload"),
                         tag_f = payload.field("tag"),
                         body_f = payload.field("body"),
                         type_f = mem_types_.req.field("type"),
                         addr_f = mem_types_.req.field("addr"),
                         data_f = mem_types_.req.field("data")] {
        ++now_;
        in_->xtick();
        out_->xtick();

        // Accept one request per cycle.
        if (!in_->empty()) {
            Bits m = in_->pop();
            uint64_t src = msg_.get(m, src_f).toUint64();
            const uint64_t pay = msg_.get(m, pay_f).toUint64();
            const uint64_t body = body_f.extract(pay);
            uint64_t type = type_f.extract(body);
            uint32_t addr = static_cast<uint32_t>(addr_f.extract(body));
            uint32_t data = static_cast<uint32_t>(data_f.extract(body));

            uint64_t resp;
            if (type == static_cast<uint64_t>(MemReqType::Read)) {
                uint32_t value = (addr & ~3u) == (kWhoAmIAddr & ~3u)
                                     ? static_cast<uint32_t>(src)
                                     : readWord(addr);
                resp = mem_types_.resp.packWord({0, value});
            } else {
                writeWord(addr, data);
                resp = mem_types_.resp.packWord({1, 0});
            }
            ++num_requests_;

            // Echo the port tag; the source field stays zero.
            const uint64_t rpay =
                payload.packWord({tag_f.extract(pay), resp});
            pending_.push_back(
                Pending{now_ + static_cast<uint64_t>(latency_) - 1,
                        msg_.pack({src, 0, 0, rpay})});
        }
        if (!pending_.empty() && pending_.front().due <= now_ &&
            !out_->full()) {
            out_->push(pending_.front().msg);
            pending_.pop_front();
        }
    });
}

uint32_t
MemNode::readWord(uint32_t addr) const
{
    auto it = words_.find(addr >> 2);
    return it == words_.end() ? 0 : it->second;
}

void
MemNode::writeWord(uint32_t addr, uint32_t value)
{
    words_[addr >> 2] = value;
}

// --------------------------------------------------------- MultiTileSystem

MultiTileSystem::MultiTileSystem(
    const std::string &name,
    std::vector<std::array<Level, 3>> tile_levels, bool cl_network,
    int mem_latency)
    : Model(nullptr, name),
      msg_(net::makeNetMsg(terminalsFor(
                               static_cast<int>(tile_levels.size())),
                           kNumMsgIds, kPayloadBits))
{
    const int ntiles = static_cast<int>(tile_levels.size());
    const int terminals = terminalsFor(ntiles);
    const int mem_terminal = ntiles;

    std::deque<InValRdy> *nin;
    std::deque<OutValRdy> *nout;
    if (cl_network) {
        cl_net_ = std::make_unique<net::MeshNetworkCL>(
            this, "net", terminals, kNumMsgIds, kPayloadBits, 4);
        nin = &cl_net_->in_;
        nout = &cl_net_->out;
    } else {
        fl_net_ = std::make_unique<net::NetworkFL>(
            this, "net", terminals, kNumMsgIds, kPayloadBits, 4);
        nin = &fl_net_->in_;
        nout = &fl_net_->out;
    }

    for (int i = 0; i < ntiles; ++i) {
        tiles_.push_back(std::make_unique<Tile>(
            this, "tile" + std::to_string(i), tile_levels[i][0],
            tile_levels[i][1], tile_levels[i][2],
            Tile::ExternalMemory{}));
        bridges_.push_back(std::make_unique<TileMemBridge>(
            this, "bridge" + std::to_string(i), i, msg_, mem_terminal));
        connectReqResp(*this, tiles_[i]->imemPort(),
                       bridges_[i]->imem_in);
        connectReqResp(*this, tiles_[i]->dmemPort(),
                       bridges_[i]->dmem_in);
        connectValRdy(*this, bridges_[i]->net_out, (*nin)[i]);
        connectValRdy(*this, (*nout)[i], bridges_[i]->net_in);
    }

    mem_node_ = std::make_unique<MemNode>(this, "memnode", msg_,
                                          mem_latency);
    connectValRdy(*this, mem_node_->net_out, (*nin)[mem_terminal]);
    connectValRdy(*this, (*nout)[mem_terminal], mem_node_->net_in);
}

void
MultiTileSystem::loadProgram(const std::vector<uint32_t> &image)
{
    for (size_t i = 0; i < image.size(); ++i)
        mem_node_->writeWord(static_cast<uint32_t>(i) * 4, image[i]);
}

// -------------------------------------------------------------- workload

Workload
makeMvmultMultiTile(int n, bool use_accel)
{
    Workload w;
    w.n = n;
    w.matrix_addr = 0x2000;
    w.vector_addr = w.matrix_addr + static_cast<uint32_t>(n) * n * 4;
    w.out_addr = w.vector_addr + static_cast<uint32_t>(n) * 4;

    // Register conventions follow programs.cc.
    Assembler a;
    // r12 = tile id (from the who-am-I register).
    a.li(12, kWhoAmIAddr);
    a.lw(12, 12, 0);
    // r7 = out_addr + id * n*4.
    a.li(13, static_cast<uint32_t>(n) * 4);
    a.mul(12, 12, 13);
    a.li(7, w.out_addr);
    a.add(7, 7, 12);
    a.li(1, w.matrix_addr);
    a.li(2, w.vector_addr);
    a.li(10, static_cast<uint32_t>(n));
    a.addi(3, 0, 0);
    if (use_accel) {
        a.accx(0, 10, 1);
        a.accx(0, 2, 3);
        a.label("row");
        a.accx(0, 1, 2);
        a.accx(4, 0, 0);
        a.sw(4, 7, 0);
        a.addi(1, 1, n * 4);
    } else {
        a.label("row");
        a.addi(4, 0, 0);
        a.add(9, 2, 0);
        a.addi(8, 10, 0);
        a.label("inner");
        a.lw(5, 1, 0);
        a.lw(6, 9, 0);
        a.mul(5, 5, 6);
        a.add(4, 4, 5);
        a.addi(1, 1, 4);
        a.addi(9, 9, 4);
        a.addi(8, 8, -1);
        a.bne(8, 0, "inner");
        a.sw(4, 7, 0);
    }
    a.addi(7, 7, 4);
    a.addi(3, 3, 1);
    a.bne(3, 10, "row");
    a.halt();
    w.image = a.finish();
    return w;
}

void
loadMvmultData(MemNode &mem, const Workload &workload, uint64_t seed)
{
    const uint32_t n = static_cast<uint32_t>(workload.n);
    for (uint32_t i = 0; i < n * n; ++i)
        mem.writeWord(workload.matrix_addr + i * 4,
                      mvmultElement(seed, i));
    for (uint32_t i = 0; i < n; ++i)
        mem.writeWord(workload.vector_addr + i * 4,
                      mvmultElement(seed + 1, i));
}

} // namespace tile
} // namespace cmtl
