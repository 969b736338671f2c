/**
 * @file
 * Signal value storage backends.
 *
 * Two storage strategies implement the paper's host-execution axis:
 *
 *  - BoxedStore (the CPython analog): every net's value is a
 *    heap-allocated, reference-counted Bits box held in a string-keyed
 *    hash map; every read hashes the net name and unboxes, every write
 *    allocates a fresh box — structurally the costs a CPython PyMTL
 *    simulation pays for attribute lookup and Bits object churn.
 *
 *  - ArenaStore (the PyPy/SimJIT analog): net values live in a dense
 *    uint64 word arena; the current-value region is words [0, W) and
 *    the next-value (non-blocking) region is words [W, 2W). Reads and
 *    writes are direct indexed loads/stores, the result of
 *    slot-binding every signal once, the way a tracing JIT's
 *    attribute caches do. Which physical word (and bit position,
 *    under bit packing) a net occupies is decided by an ArenaLayout
 *    (layout.h); the store is just the memory plus layout-aware
 *    accessors. Packed nets read with a shift+mask and write with a
 *    masked read-modify-write, so word sharing is invisible above
 *    this API.
 */

#ifndef CMTL_CORE_STORE_H
#define CMTL_CORE_STORE_H

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bits.h"
#include "layout.h"
#include "model.h"

namespace cmtl {

/** Boxed, dictionary-backed storage (CPython analog). */
class BoxedStore
{
  public:
    explicit BoxedStore(const Elaboration &elab);

    /** Read the current value of a net (by hashed name lookup). */
    Bits read(int net) const;
    /** Read the next value of a net. */
    Bits readNext(int net) const;
    /**
     * Write the current value; returns true if the value changed
     * (drives event-driven scheduling).
     */
    bool write(int net, const Bits &value);
    /** Write the next value (non-blocking). */
    void writeNext(int net, const Bits &value);
    /** Copy next -> current for one net; returns true on change. */
    bool flop(int net);

    /** Read array element (name-hashed lookup, boxed result). */
    Bits arrayRead(int array_id, uint64_t index) const;
    /** Write array element (effective immediately). */
    void arrayWrite(int array_id, uint64_t index, const Bits &value);

  private:
    using Box = std::shared_ptr<Bits>;
    const Elaboration &elab_;
    // Keyed by net name: the "instance __dict__" of the design.
    std::unordered_map<std::string, Box> cur_;
    std::unordered_map<std::string, Box> nxt_;
    std::unordered_map<std::string, std::vector<Box>> arrays_;
};

/** Dense word-arena storage (PyPy/SimJIT analog). */
class ArenaStore
{
  public:
    /** Historical behaviour: a fresh elaboration-order layout. */
    explicit ArenaStore(const Elaboration &elab);
    /**
     * Arena over an explicit layout. ParSim replicas pass one shared
     * instance so every replica's physical layout is identical by
     * construction.
     */
    ArenaStore(const Elaboration &elab,
               std::shared_ptr<const ArenaLayout> layout);

    const ArenaLayout &layout() const { return *layout_; }
    std::shared_ptr<const ArenaLayout> layoutPtr() const
    {
        return layout_;
    }

    int wordsPerPhase() const { return words_per_phase_; }
    uint64_t *data() { return words_.data(); }
    const uint64_t *data() const { return words_.data(); }

    /** First word of the net's slot within a phase. */
    int offset(int net) const { return offset_[net]; }
    /** Bit position of the net within its word (0 unless packed). */
    int shift(int net) const { return shift_[net]; }
    /** True iff the net shares its word with other nets. */
    bool packed(int net) const { return packed_[net] != 0; }
    int nwords(int net) const { return nwords_[net]; }
    int nbits(int net) const { return nbits_[net]; }
    uint64_t mask(int net) const { return mask_[net]; }

    /** True iff the net fits one word (specializable). */
    bool narrow(int net) const { return nwords_[net] == 1; }

    /** Per net: the word of a one-word net, -1 for wider nets (the
     *  SignalAccess::SlotView offset table). */
    const int *narrowOffsets() const { return narrow_offset_.data(); }
    /** Per net: bit position within its word. */
    const int *shifts() const { return shift_.data(); }

    Bits read(int net) const;
    Bits readNext(int net) const;
    bool write(int net, const Bits &value);
    void writeNext(int net, const Bits &value);
    bool flop(int net);

    /** Whole-word next -> current copies (precomputed flop plan). */
    void flopRanges(const std::vector<FlopRange> &ranges);

    /** Word offset of an array's storage region. */
    int arrayOffset(int array_id) const { return array_offset_[array_id]; }
    uint64_t arrayIndexMask(int array_id) const
    {
        return array_mask_[array_id];
    }
    uint64_t arrayValueMask(int array_id) const
    {
        return array_vmask_[array_id];
    }

    Bits arrayRead(int array_id, uint64_t index) const;
    void arrayWrite(int array_id, uint64_t index, const Bits &value);

  private:
    std::shared_ptr<const ArenaLayout> layout_;
    std::vector<uint64_t> words_; //!< [cur][next][array storage]
    // Flat copies of the layout's slot table (hot-path locality).
    std::vector<int> offset_;
    std::vector<int> narrow_offset_;
    std::vector<int> shift_;
    std::vector<char> packed_;
    std::vector<int> nwords_;
    std::vector<int> nbits_;
    std::vector<uint64_t> mask_; //!< top-word value mask per net
    std::vector<int> array_offset_;
    std::vector<uint64_t> array_mask_;  //!< index masks
    std::vector<uint64_t> array_vmask_; //!< element value masks
    std::vector<int> array_nbits_;
    int words_per_phase_ = 0;
};

} // namespace cmtl

#endif // CMTL_CORE_STORE_H
