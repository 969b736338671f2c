#include "model.h"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

namespace cmtl {

// ---------------------------------------------------------------- Signal

Signal::Signal(Model *owner, std::string name, int nbits, SignalDir dir)
    : owner_(owner), name_(std::move(name)), nbits_(nbits), dir_(dir)
{
    if (nbits < 1)
        throw std::invalid_argument("signal '" + name_ + "': width < 1");
    if (owner_)
        owner_->registerSignal(this);
}

std::string
Signal::fullName() const
{
    return owner_ ? owner_->fullName() + "." + name_ : name_;
}

Bits
Signal::valueSlow() const
{
    if (!access_)
        throw std::logic_error("read of '" + fullName() +
                               "' outside a simulation");
    return access_->read(*this);
}

void
Signal::setValue(const Bits &v)
{
    if (!access_)
        throw std::logic_error("write of '" + fullName() +
                               "' outside a simulation");
    access_->write(*this, v);
}

void
Signal::setValue(uint64_t v)
{
    setValue(Bits(nbits_, v));
}

void
Signal::setNextSlow(const Bits &v)
{
    if (!access_)
        throw std::logic_error("write of '" + fullName() +
                               "' outside a simulation");
    access_->writeNext(*this, v);
}

// -------------------------------------------------------------- MemArray

MemArray::MemArray(Model *owner, std::string name, int nbits, int depth)
    : owner_(owner), name_(std::move(name)), nbits_(nbits), depth_(depth)
{
    if (nbits < 1 || nbits > 64)
        throw std::invalid_argument("array '" + name_ +
                                    "': element width must be 1..64");
    if (depth < 2 || (depth & (depth - 1)) != 0)
        throw std::invalid_argument(
            "array '" + name_ + "': depth must be a power of two >= 2");
    if (owner_)
        owner_->registerArray(this);
}

std::string
MemArray::fullName() const
{
    return owner_ ? owner_->fullName() + "." + name_ : name_;
}

// ----------------------------------------------------------------- Model

Model::Model(Model *parent, std::string name)
    : parent_(parent), name_(std::move(name)), reset(this, "reset", 1)
{
    if (parent_)
        parent_->children_.push_back(this);
}

std::string
Model::fullName() const
{
    return parent_ ? parent_->fullName() + "." + name_ : name_;
}

void
Model::connect(Signal &a, Signal &b)
{
    if (a.nbits() != b.nbits()) {
        throw std::invalid_argument(
            "connect width mismatch: " + a.fullName() + " (" +
            std::to_string(a.nbits()) + "b) vs " + b.fullName() + " (" +
            std::to_string(b.nbits()) + "b)");
    }
    connections_.emplace_back(&a, &b);
}

void
Model::tickFl(const std::string &name, std::function<void()> fn)
{
    lambda_blocks_.push_back(
        LambdaDecl{BlockKind::TickFl, name, std::move(fn), {}, {}});
}

void
Model::tickCl(const std::string &name, std::function<void()> fn)
{
    lambda_blocks_.push_back(
        LambdaDecl{BlockKind::TickCl, name, std::move(fn), {}, {}});
}

BlockBuilder &
Model::tickRtl(const std::string &name)
{
    ir_blocks_.push_back(IrBlock{name, /*sequential=*/true, {}, {}});
    builders_.emplace_back(&ir_blocks_.back());
    return builders_.back();
}

BlockBuilder &
Model::combinational(const std::string &name)
{
    ir_blocks_.push_back(IrBlock{name, /*sequential=*/false, {}, {}});
    builders_.emplace_back(&ir_blocks_.back());
    return builders_.back();
}

void
Model::combLambda(const std::string &name, std::function<void()> fn,
                  std::vector<Signal *> reads, std::vector<Signal *> writes)
{
    lambda_blocks_.push_back(LambdaDecl{BlockKind::CombLambda, name,
                                        std::move(fn), std::move(reads),
                                        std::move(writes)});
}

// ------------------------------------------------------------ Elaborator

namespace {

/** Union-find over dense signal indices. */
class UnionFind
{
  public:
    explicit UnionFind(size_t n) : parent_(n)
    {
        std::iota(parent_.begin(), parent_.end(), 0);
    }

    int
    find(int x)
    {
        while (parent_[x] != x) {
            parent_[x] = parent_[parent_[x]];
            x = parent_[x];
        }
        return x;
    }

    void unite(int a, int b) { parent_[find(a)] = find(b); }

  private:
    std::vector<int> parent_;
};

int
hierarchyDepth(const Model *m)
{
    int depth = 0;
    while (m->parent()) {
        ++depth;
        m = m->parent();
    }
    return depth;
}

} // namespace

/** Performs elaboration of a model hierarchy (framework internal). */
class Elaborator
{
  public:
    std::shared_ptr<Elaboration>
    run(Model *top)
    {
        auto elab = std::make_shared<Elaboration>();
        elab->top = top;
        collectModels(top, elab->models);

        // Collect signals and assign dense ids.
        std::unordered_map<const Signal *, int> sig_idx;
        for (Model *m : elab->models) {
            for (Signal *sig : m->ownSignals()) {
                sig_idx[sig] = static_cast<int>(elab->signals.size());
                elab->signals.push_back(sig);
            }
        }

        // Resolve connectivity (including implicit reset chaining).
        UnionFind uf(elab->signals.size());
        for (Model *m : elab->models) {
            for (const auto &[a, b] : m->ownConnections())
                uf.unite(sig_idx.at(a), sig_idx.at(b));
            if (m->parent())
                uf.unite(sig_idx.at(&m->reset),
                         sig_idx.at(&m->parent()->reset));
        }

        // Build nets from union-find roots.
        std::unordered_map<int, int> root_to_net;
        for (size_t i = 0; i < elab->signals.size(); ++i) {
            Signal *sig = elab->signals[i];
            int root = uf.find(static_cast<int>(i));
            auto [it, inserted] =
                root_to_net.try_emplace(root,
                                        static_cast<int>(elab->nets.size()));
            if (inserted) {
                Net net;
                net.id = it->second;
                net.nbits = sig->nbits();
                elab->nets.push_back(std::move(net));
            }
            Net &net = elab->nets[it->second];
            if (net.nbits != sig->nbits())
                throw std::logic_error("net width mismatch at " +
                                       sig->fullName());
            net.signals.push_back(sig);
            sig->setNetId(net.id);
        }

        // Collect memory arrays.
        for (Model *m : elab->models) {
            for (MemArray *array : m->ownArrays()) {
                array->setArrayId(static_cast<int>(elab->arrays.size()));
                elab->arrays.push_back(array);
            }
        }

        // Name each net after its shallowest member signal.
        for (Net &net : elab->nets) {
            Signal *best = net.signals.front();
            for (Signal *sig : net.signals) {
                if (hierarchyDepth(sig->owner()) <
                    hierarchyDepth(best->owner()))
                    best = sig;
            }
            net.name = best->fullName();
        }

        collectBlocks(elab.get());
        scheduleBlocks(elab.get());
        return elab;
    }

  private:
    void
    collectModels(Model *m, std::vector<Model *> &out)
    {
        out.push_back(m);
        for (Model *c : m->children())
            collectModels(c, out);
    }

    void
    collectBlocks(Elaboration *elab)
    {
        for (Model *m : elab->models) {
            for (const auto &decl : m->lambda_blocks_) {
                ElabBlock blk;
                blk.kind = decl.kind;
                blk.name = m->fullName() + "." + decl.name;
                blk.model = m;
                blk.fn = decl.fn;
                for (Signal *sig : decl.reads)
                    blk.reads.push_back(sig->netId());
                for (Signal *sig : decl.writes)
                    blk.writes.push_back(sig->netId());
                dedupNets(blk.reads);
                dedupNets(blk.writes);
                elab->blocks.push_back(std::move(blk));
            }
            for (const IrBlock &ir : m->ownIrBlocks()) {
                ElabBlock blk;
                blk.kind =
                    ir.sequential ? BlockKind::TickIr : BlockKind::CombIr;
                blk.name = m->fullName() + "." + ir.name;
                blk.model = m;
                blk.ir = &ir;
                std::vector<Signal *> reads, writes;
                irCollectAccess(ir, reads, writes);
                for (Signal *sig : reads)
                    blk.reads.push_back(sig->netId());
                for (Signal *sig : writes) {
                    blk.writes.push_back(sig->netId());
                    if (ir.sequential)
                        elab->nets[sig->netId()].floppedStatic = true;
                }
                std::vector<MemArray *> areads, awrites;
                irCollectArrays(ir, areads, awrites);
                for (MemArray *array : areads)
                    blk.reads.push_back(
                        elab->arrayToken(array->arrayId()));
                for (MemArray *array : awrites)
                    blk.writes.push_back(
                        elab->arrayToken(array->arrayId()));
                dedupNets(blk.reads);
                dedupNets(blk.writes);
                if (!ir.sequential) {
                    std::vector<int> both;
                    std::set_intersection(
                        blk.reads.begin(), blk.reads.end(),
                        blk.writes.begin(), blk.writes.end(),
                        std::back_inserter(both));
                    blk.readsOwnWrites = !both.empty();
                }
                elab->blocks.push_back(std::move(blk));
            }
        }
    }

    static void
    dedupNets(std::vector<int> &v)
    {
        std::sort(v.begin(), v.end());
        v.erase(std::unique(v.begin(), v.end()), v.end());
    }

    void
    scheduleBlocks(Elaboration *elab)
    {
        const int nblocks = static_cast<int>(elab->blocks.size());
        std::vector<int> comb_blocks;
        for (int i = 0; i < nblocks; ++i) {
            const ElabBlock &blk = elab->blocks[i];
            if (isTick(blk.kind))
                elab->tickOrder.push_back(i);
            else
                comb_blocks.push_back(i);
        }

        // net -> comb blocks reading it (event-driven sensitivity).
        // Array tokens share the id space above nets.size().
        elab->netReaders.assign(elab->nets.size() + elab->arrays.size(),
                                {});
        for (int i : comb_blocks) {
            for (int net : elab->blocks[i].reads)
                elab->netReaders[net].push_back(i);
        }

        // Topological order of comb blocks: edge writer -> reader.
        std::unordered_map<int, std::vector<int>> writers; // net -> blocks
        for (int i : comb_blocks) {
            for (int net : elab->blocks[i].writes)
                writers[net].push_back(i);
        }
        std::unordered_map<int, std::vector<int>> edges;
        std::unordered_map<int, int> indeg;
        for (int i : comb_blocks)
            indeg[i] = 0;
        for (int i : comb_blocks) {
            for (int net : elab->blocks[i].reads) {
                auto it = writers.find(net);
                if (it == writers.end())
                    continue;
                for (int w : it->second) {
                    if (w == i)
                        continue;
                    edges[w].push_back(i);
                    ++indeg[i];
                }
            }
        }
        std::vector<int> ready;
        for (int i : comb_blocks) {
            if (indeg[i] == 0)
                ready.push_back(i);
        }
        while (!ready.empty()) {
            int blk = ready.back();
            ready.pop_back();
            elab->combOrder.push_back(blk);
            for (int next : edges[blk]) {
                if (--indeg[next] == 0)
                    ready.push_back(next);
            }
        }
        if (elab->combOrder.size() != comb_blocks.size())
            elab->hasCombCycle = true;
    }
};

std::shared_ptr<Elaboration>
Model::elaborate()
{
    if (parent_)
        throw std::logic_error("elaborate() must be called on the top model");
    return Elaborator().run(this);
}

} // namespace cmtl
