/**
 * @file
 * Model base class and elaboration.
 *
 * CMTL models are described concurrent-structurally, mirroring PyMTL:
 * interfaces are port-based, logic lives in concurrent blocks, and
 * components compose structurally via connect(). A model's constructor
 * performs *elaboration-time configuration* (ports, wires, submodels,
 * connectivity — arbitrary C++ is allowed here) and declares *run-time
 * simulation logic*:
 *
 *  - tickFl()/tickCl(): sequential lambda blocks with arbitrary host
 *    code (the analog of PyMTL's @s.tick_fl/@s.tick_cl);
 *  - tickRtl()/combinational(): IR blocks built through a BlockBuilder
 *    (the analog of @s.tick_rtl/@s.combinational — the translatable,
 *    specializable subset);
 *  - combLambda(): a combinational lambda with an explicit sensitivity
 *    list, for FL conveniences.
 *
 * Following the model/tool split, elaborate() produces an Elaboration
 * — an in-memory representation of the flattened design — which tools
 * (SimulationTool, TranslationTool, Lint, VcdWriter) consume.
 */

#ifndef CMTL_CORE_MODEL_H
#define CMTL_CORE_MODEL_H

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ir.h"
#include "signal.h"

namespace cmtl {

class Model;
class SnapWriter; // snap.h
class SnapReader; // snap.h

/** Kind of a concurrent block after elaboration. */
enum class BlockKind { TickFl, TickCl, CombLambda, TickIr, CombIr };

/** True for blocks that execute at the clock edge. */
inline bool
isTick(BlockKind k)
{
    return k == BlockKind::TickFl || k == BlockKind::TickCl ||
           k == BlockKind::TickIr;
}

/** A concurrent block of an elaborated design. */
struct ElabBlock
{
    BlockKind kind;
    std::string name; //!< hierarchical, e.g. "top.router0.comb_route"
    Model *model = nullptr;
    std::function<void()> fn;    //!< lambda blocks
    const IrBlock *ir = nullptr; //!< IR blocks
    std::vector<int> reads;      //!< net ids read (comb scheduling)
    std::vector<int> writes;     //!< net ids written
    /** Comb IR block that reads a net it also writes (e.g. a slice
     *  assign, whose read-modify-write reads its target). */
    bool readsOwnWrites = false;
};

/**
 * A synchronous-write, asynchronous-read memory array (SRAM/regfile).
 *
 * Depth must be a power of two; read indices are masked to the depth.
 * Writes are only legal from sequential (tickRtl) blocks and take
 * effect at the clock edge; reads from combinational blocks observe
 * the post-edge contents. With a single writing block this matches
 * Verilog `reg [w-1:0] mem [0:d-1]` semantics; multiple tick blocks
 * writing one array would be tick-order dependent and are rejected by
 * the linter.
 */
class MemArray
{
  public:
    MemArray(Model *owner, std::string name, int nbits, int depth);
    MemArray(const MemArray &) = delete;
    MemArray &operator=(const MemArray &) = delete;

    Model *owner() const { return owner_; }
    const std::string &name() const { return name_; }
    std::string fullName() const;
    int nbits() const { return nbits_; }
    int depth() const { return depth_; }
    uint64_t indexMask() const { return static_cast<uint64_t>(depth_) - 1; }

    /** Dense array id; valid after elaboration (-1 before). */
    int arrayId() const { return array_id_; }
    void setArrayId(int id) { array_id_ = id; }

  private:
    Model *owner_;
    std::string name_;
    int nbits_;
    int depth_;
    int array_id_ = -1;
};

/** A net: an equivalence class of connected signals. */
struct Net
{
    int id = -1;
    int nbits = 0;
    std::string name;             //!< shallowest member signal's full name
    bool floppedStatic = false;   //!< written by a non-blocking IR assign
    std::vector<Signal *> signals;
};

/**
 * In-memory representation of an elaborated design.
 *
 * This is the interface between models and tools: simulators,
 * translators, linters and visualizers all consume an Elaboration.
 */
class Elaboration
{
  public:
    Model *top = nullptr;
    std::vector<Model *> models;   //!< pre-order hierarchy walk
    std::vector<Signal *> signals; //!< all signals, dense ids
    std::vector<Net> nets;
    std::vector<MemArray *> arrays;
    std::vector<ElabBlock> blocks;

    /**
     * Scheduling token for an array: arrays share the net id space
     * above nets.size() so sensitivity tracking covers them.
     */
    int
    arrayToken(int array_id) const
    {
        return static_cast<int>(nets.size()) + array_id;
    }

    std::vector<int> tickOrder; //!< block indices, declaration order
    std::vector<int> combOrder; //!< block indices, topological order
    bool hasCombCycle = false;  //!< static scheduling impossible
    /** For event-driven scheduling: net id -> comb blocks reading it. */
    std::vector<std::vector<int>> netReaders;

    const Net &netOf(const Signal &sig) const { return nets[sig.netId()]; }
};

/**
 * Base class of all CMTL hardware models.
 */
class Model
{
  public:
    /**
     * @param parent enclosing model, or nullptr for a top-level model
     * @param name instance name within the parent
     */
    Model(Model *parent, std::string name);
    virtual ~Model() = default;
    Model(const Model &) = delete;
    Model &operator=(const Model &) = delete;

    /**
     * Type name used by the Verilog translator as the module name.
     * Parameterized models should encode their parameters, e.g.
     * "Mux_8_4".
     */
    virtual std::string typeName() const { return "Model_" + name_; }

    Model *parent() const { return parent_; }
    const std::string &instName() const { return name_; }
    /** Hierarchical instance name, e.g. "top.router0". */
    std::string fullName() const;
    const std::vector<Model *> &children() const { return children_; }

    /** Structurally connect two signals (same width required). */
    void connect(Signal &a, Signal &b);

    // --- Concurrent block declaration (call from constructors) -----

    /** Functional-level sequential block (arbitrary host code). */
    void tickFl(const std::string &name, std::function<void()> fn);
    /** Cycle-level sequential block (arbitrary host code). */
    void tickCl(const std::string &name, std::function<void()> fn);
    /** RTL sequential block; assignments are non-blocking. */
    BlockBuilder &tickRtl(const std::string &name);
    /** Combinational IR block; assignments are blocking. */
    BlockBuilder &combinational(const std::string &name);
    /**
     * Combinational lambda with an explicit sensitivity list.
     * @param reads  signals whose changes re-trigger the block
     * @param writes signals the block may write
     */
    void combLambda(const std::string &name, std::function<void()> fn,
                    std::vector<Signal *> reads,
                    std::vector<Signal *> writes);

    /** Per-cycle line-trace fragment (optional override). */
    virtual std::string lineTrace() const { return ""; }

    /**
     * Serialize host-side lambda-block state (SimSnap, snap.h).
     * Models whose tickFl/tickCl/combLambda blocks carry state outside
     * nets and arrays — RNGs, software queues, counters — override
     * both so checkpoints capture the complete simulation; snapLoad
     * must read exactly the bytes snapSave wrote. The defaults
     * serialize nothing (fine for pure-IR models).
     */
    virtual void snapSave(SnapWriter &) const {}
    virtual void snapLoad(SnapReader &) {}

    /**
     * Elaborate the hierarchy rooted at this model. Call once, on the
     * top-level model, after construction.
     */
    std::shared_ptr<Elaboration> elaborate();

    // --- Framework internals ----------------------------------------
    void registerSignal(Signal *sig) { signals_.push_back(sig); }
    void registerArray(MemArray *array) { arrays_.push_back(array); }
    const std::vector<Signal *> &ownSignals() const { return signals_; }
    const std::vector<MemArray *> &ownArrays() const { return arrays_; }
    const std::vector<std::pair<Signal *, Signal *>> &
    ownConnections() const
    {
        return connections_;
    }
    const std::deque<IrBlock> &ownIrBlocks() const { return ir_blocks_; }

  private:
    friend class Elaborator;

    struct LambdaDecl
    {
        BlockKind kind;
        std::string name;
        std::function<void()> fn;
        std::vector<Signal *> reads;
        std::vector<Signal *> writes;
    };

    Model *parent_;
    std::string name_;
    std::vector<Model *> children_;
    std::vector<Signal *> signals_;
    std::vector<MemArray *> arrays_;
    std::vector<std::pair<Signal *, Signal *>> connections_;
    std::vector<LambdaDecl> lambda_blocks_;
    std::deque<IrBlock> ir_blocks_;
    std::deque<BlockBuilder> builders_;

  public:
    /**
     * Implicit reset input, auto-connected through the hierarchy at
     * elaboration time (like PyMTL's implicit s.reset). Declared last
     * so the registration containers above are constructed first.
     */
    InPort reset;
};

} // namespace cmtl

#endif // CMTL_CORE_MODEL_H
