/**
 * @file
 * ArenaLayout: explicit logical-net -> physical-slot mapping.
 *
 * Arena v2 extracts the slot assignment that used to be implicit in
 * ArenaStore's constructor (elaboration order, one aligned word run
 * per net) into a first-class, optimizable artifact. A layout maps
 * every net id to a physical slot {word_off, shift, nwords} within a
 * phase of the word arena, and every subsystem that touches arena
 * words — the kernels, the bytecode and C++ specializers, SimSnap,
 * VCD — goes through this API instead of doing raw offset arithmetic.
 *
 * Two policies:
 *
 *  - elab: the historical layout. Nets get whole aligned words in
 *    elaboration order. Always available, byte-compatible with every
 *    arena ever produced before layouts existed.
 *
 *  - profile: cache-conscious placement. Nets are grouped by ParSim
 *    partition island (so a superstep touches contiguous lines and a
 *    shared word never spans an ownership boundary), flopped nets
 *    lead each island so the flop phase coalesces into a handful of
 *    contiguous next->cur memcpy ranges, combinational nets follow in
 *    producer-block order (measured heat order when a profile is
 *    available — the PGO loop), and narrow nets are bit-packed into
 *    shared words where width allows.
 *
 * Packing invariants (relied on for correctness, see DESIGN.md §3.1j):
 *  - only single-word nets pack; shift + nbits <= 64;
 *  - word-mates always share owner island and flop class, so ParSim's
 *    whole-word boundary pushes and the flop phase's whole-word
 *    copies never mix values two islands or two phases own;
 *  - every ArenaStore accessor masks and shifts, so packed reads and
 *    read-modify-write stores are transparent to evaluator code.
 *
 * The physical layout never leaks into serialized artifacts: SimSnap
 * sections, VCD dumps and state digests are logical-net-id ordered,
 * so every layout x backend x thread-count combination is bit- and
 * byte-identical.
 */

#ifndef CMTL_CORE_LAYOUT_H
#define CMTL_CORE_LAYOUT_H

#include <cstdint>
#include <string>
#include <vector>

#include "model.h"

namespace cmtl {

struct PartitionPlan; // partition.h

/** Data-layout policy of the word arena. */
enum class LayoutPolicy
{
    Elab,    //!< elaboration order, whole aligned words (default)
    Profile, //!< island/producer grouping + bit packing + flop ranges
};

/** Canonical policy name ("elab" / "profile"). */
const char *layoutPolicyName(LayoutPolicy policy);
/** Parse a canonical policy name; throws std::invalid_argument. */
LayoutPolicy layoutPolicyFromName(const std::string &name);

/** Physical slot of one net within a phase of the arena. */
struct LayoutSlot
{
    int word_off = 0; //!< first word index within the phase
    int shift = 0;    //!< bit offset within the word (packed nets)
    int nwords = 1;   //!< words spanned (shift == 0 when > 1)
    int nbits = 0;
    uint64_t mask = 0; //!< top-word value mask
};

/** Observability counters surfaced in simulatorReport / SimScope. */
struct LayoutStats
{
    LayoutPolicy policy = LayoutPolicy::Elab;
    bool pgo = false;           //!< heat-refined (mid-run PGO) layout
    int packed_nets = 0;        //!< nets sharing a word with another
    int64_t packed_bits_saved = 0; //!< arena bits saved by packing
    int words_per_phase = 0;
    /** Filled by the kernel once its flop plan is computed. */
    int flop_memcpy_ranges = 0;
};

/** One whole-word next -> current copy run of the flop phase. */
struct FlopRange
{
    int off = 0;    //!< first word (current-phase index)
    int nwords = 0; //!< contiguous words to copy
};

/**
 * Precomputed flop phase: contiguous whole-word copy ranges replace
 * per-net stores.
 */
struct FlopCopyPlan
{
    std::vector<FlopRange> ranges;
    /** Flop nets outside every range — each shares a word with a
     *  resident that is not flopped — copied per net with a masked
     *  store (ArenaStore::flop). Always empty for static flops. */
    std::vector<int> nets;
};

/**
 * An immutable slot assignment for every net and array of one
 * elaborated design. Construct via elabOrder() or profiled(); share
 * one instance across ParSim replicas so "layout is a pure function
 * of the plan" stays true by construction.
 */
class ArenaLayout
{
  public:
    /** Today's layout: elaboration order, whole words, no packing. */
    static ArenaLayout elabOrder(const Elaboration &elab);

    /**
     * Profile-guided layout. @p plan (nullable) groups nets by owner
     * island; @p block_heat (nullable, per elab block index) orders
     * producer blocks by measured heat instead of schedule order —
     * the PGO refinement. Either may be null.
     */
    static ArenaLayout profiled(const Elaboration &elab,
                                const PartitionPlan *plan,
                                const std::vector<double> *block_heat);

    const LayoutSlot &slot(int net) const { return slots_[net]; }
    bool packed(int net) const { return packed_[net] != 0; }
    int wordsPerPhase() const { return words_per_phase_; }
    int numNets() const { return static_cast<int>(slots_.size()); }

    /** Word offset of an array's storage (past both net phases). */
    int arrayOffset(int array_id) const { return array_offset_[array_id]; }
    /** Total arena words: two net phases plus array storage. */
    int totalWords() const { return total_words_; }

    const LayoutStats &stats() const { return stats_; }
    LayoutPolicy policy() const { return stats_.policy; }

    /**
     * Coalesce @p flop_nets into whole-word copy ranges. A word joins
     * a range iff every net resident in it is in the set. Every caller
     * passes static flops only (the whole set, or one ParSim island's
     * owned share), and packing never crosses the static-flop class or
     * an owner island, so each flop net's words are whole-copyable
     * (asserted).
     */
    FlopCopyPlan flopPlan(const std::vector<int> &flop_nets) const;

    /**
     * Copy plan for dynamically registered flops (a lambda's
     * writeNext), built from @p flop_nets' own words, sorted and
     * coalesced: O(D log D) in the D words, not in the phase size. A
     * word joins a range iff every resident net is flopped per
     * @p flopped (indexed by net); a net whose word also holds a
     * resident that is not flopped (profile bit packing) goes to
     * FlopCopyPlan::nets instead. Packing never mixes static and
     * dynamic flops in a word, so the ranges are disjoint from the
     * static plan's.
     */
    FlopCopyPlan dynamicFlopPlan(const std::vector<int> &flop_nets,
                                 const std::vector<char> &flopped) const;

  private:
    std::vector<LayoutSlot> slots_;
    std::vector<char> packed_;
    std::vector<int> array_offset_;
    /** Nets resident in each current-phase word (flopPlan purity). */
    std::vector<std::vector<int>> word_nets_;
    int words_per_phase_ = 0;
    int total_words_ = 0;
    LayoutStats stats_;

    void finishArrays(const Elaboration &elab);
    void finishStats(const Elaboration &elab);
};

} // namespace cmtl

#endif // CMTL_CORE_LAYOUT_H
