/**
 * @file
 * Signals: ports and wires of a CMTL model.
 *
 * A Signal is declared as a value member of a Model (or inside a
 * std::deque for port lists) and registers itself with its owning model
 * on construction. After elaboration every signal belongs to a *net*
 * (an equivalence class of structurally connected signals) identified
 * by a dense net id; after a simulator is constructed, reads and writes
 * on the signal are routed through the simulator's SignalAccess
 * backend, which differs per execution mode (boxed dictionary storage
 * for the CPython-analog interpreter, dense arena slots otherwise).
 *
 * Slot-bound fast path. An arena-hosted sequential simulator publishes
 * a SignalAccess::SlotView: the arena base, the words per phase and
 * per-net word/shift tables. u64(), value() and both setNext()
 * overloads read and write the net's arena word inline through it —
 * no virtual call, no Bits construction for u64()/setNext(uint64_t) —
 * the host-code analog of a tracing JIT's attribute cache. These stay
 * on the virtual path:
 *  - every access on a simulator that publishes no view (null words):
 *    the boxed hosts ("interp" and the hybrids, whose storage owner
 *    differs per net) and ParSim (whose writes route to the owning
 *    island's replica);
 *  - nets wider than 64 bits (offset -1 in the view);
 *  - setNext() on a net not yet registered as flopped: the first
 *    non-blocking write registers it through the simulator;
 *  - setValue(): a blocking write must mark the net's readers dirty.
 * The view is republished (a handful of pointer stores, no walk over
 * the signals) when the simulator's arena moves — the mid-run PGO
 * arena migration.
 */

#ifndef CMTL_CORE_SIGNAL_H
#define CMTL_CORE_SIGNAL_H

#include <string>

#include "bits.h"

namespace cmtl {

class Model;
class Signal;

/** Direction of a signal relative to its owning model. */
enum class SignalDir { Input, Output, Wire };

/**
 * Simulator-provided backend for signal reads and writes.
 *
 * Test benches and FL/CL lambda blocks access signals through this
 * interface; the concrete implementation determines the cost model
 * (hash-lookup boxed values vs. direct arena slots).
 */
class SignalAccess
{
  public:
    /**
     * Non-virtual view of the simulator's word arena for narrow nets
     * (see the file comment). A null @c words means no fast path.
     */
    struct SlotView
    {
        uint64_t *words = nullptr;     //!< current-phase word 0
        int phase = 0;                 //!< words per phase (next = +phase)
        const int *offset = nullptr;   //!< per net: word, or -1
        const int *shift = nullptr;    //!< per net: bit position
        const char *flopped = nullptr; //!< per net: registered flop
    };

    virtual ~SignalAccess() = default;

    /** Current (combinationally settled) value. */
    virtual Bits read(const Signal &sig) const = 0;
    /** Blocking write: visible immediately (combinational update). */
    virtual void write(Signal &sig, const Bits &value) = 0;
    /** Non-blocking write: visible after the next clock edge. */
    virtual void writeNext(Signal &sig, const Bits &value) = 0;

    /** The published fast-path view (null words when none). */
    const SlotView &slotView() const { return view_; }

  protected:
    SlotView view_;
};

/**
 * A named, fixed-width signal owned by a model.
 *
 * Signals are neither copyable nor movable: their address identifies
 * them in connection records and IR references.
 */
class Signal
{
  public:
    Signal(Model *owner, std::string name, int nbits, SignalDir dir);
    Signal(const Signal &) = delete;
    Signal &operator=(const Signal &) = delete;

    Model *owner() const { return owner_; }
    const std::string &name() const { return name_; }
    int nbits() const { return nbits_; }
    SignalDir dir() const { return dir_; }

    /** Hierarchical name, e.g. "top.router0.in_0.msg". */
    std::string fullName() const;

    /** Dense net id; valid after elaboration (-1 before). */
    int netId() const { return net_id_; }

    // --- Run-time access (valid once a simulator is attached) ------

    /** Current value. */
    Bits
    value() const
    {
        if (const uint64_t *w = slotWord())
            return Bits(nbits_, narrowValue(w));
        return valueSlow();
    }
    /** Current value as uint64 (low word). */
    uint64_t
    u64() const
    {
        if (const uint64_t *w = slotWord())
            return narrowValue(w);
        return valueSlow().toUint64();
    }
    /** Blocking write (".value =" in PyMTL). */
    void setValue(const Bits &v);
    void setValue(uint64_t v);
    /** Non-blocking write (".next =" in PyMTL). */
    void
    setNext(const Bits &v)
    {
        if (uint64_t *w = nextWord())
            storeNext(w, v.toUint64());
        else
            setNextSlow(v);
    }
    void
    setNext(uint64_t v)
    {
        if (uint64_t *w = nextWord())
            storeNext(w, v);
        else
            setNextSlow(Bits(nbits_, v));
    }

    // --- Elaboration/simulator hooks (framework internal) ----------
    void setNetId(int id) { net_id_ = id; }
    void setAccess(SignalAccess *access) { access_ = access; }
    SignalAccess *access() const { return access_; }

  private:
    /** The net's current-phase arena word, or null (virtual path). */
    const uint64_t *
    slotWord() const
    {
        if (!access_)
            return nullptr;
        const SignalAccess::SlotView &v = access_->slotView();
        if (!v.words)
            return nullptr;
        const int off = v.offset[net_id_];
        return off >= 0 ? v.words + off : nullptr;
    }
    /** The net's next-phase word once it is a registered flop. */
    uint64_t *
    nextWord() const
    {
        if (!access_)
            return nullptr;
        const SignalAccess::SlotView &v = access_->slotView();
        if (!v.words || !v.flopped[net_id_])
            return nullptr;
        const int off = v.offset[net_id_];
        return off >= 0 ? v.words + off + v.phase : nullptr;
    }
    uint64_t
    narrowValue(const uint64_t *w) const
    {
        return (*w >> access_->slotView().shift[net_id_]) &
               topWordMask(nbits_);
    }
    /** Masked read-modify-write: packed word-mates keep their bits. */
    void
    storeNext(uint64_t *w, uint64_t v)
    {
        const uint64_t m = topWordMask(nbits_);
        const int sh = access_->slotView().shift[net_id_];
        *w = (*w & ~(m << sh)) | ((v & m) << sh);
    }
    Bits valueSlow() const;
    void setNextSlow(const Bits &v);

    Model *owner_;
    std::string name_;
    int nbits_;
    SignalDir dir_;
    int net_id_ = -1;
    SignalAccess *access_ = nullptr;
};

/** An input port. */
class InPort : public Signal
{
  public:
    InPort(Model *owner, std::string name, int nbits)
        : Signal(owner, std::move(name), nbits, SignalDir::Input)
    {}
};

/** An output port. */
class OutPort : public Signal
{
  public:
    OutPort(Model *owner, std::string name, int nbits)
        : Signal(owner, std::move(name), nbits, SignalDir::Output)
    {}
};

/** An internal wire. */
class Wire : public Signal
{
  public:
    Wire(Model *owner, std::string name, int nbits)
        : Signal(owner, std::move(name), nbits, SignalDir::Wire)
    {}
};

} // namespace cmtl

#endif // CMTL_CORE_SIGNAL_H
