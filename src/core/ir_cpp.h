/**
 * @file
 * C++ source emission from IR blocks (SimJIT code generation stage).
 *
 * Given an elaborated design, an arena layout, and a grouping of
 * specialized block indices, emits a self-contained C++ translation
 * unit with one `extern "C" uint64_t cmtl_grp_<k>(uint64_t *w)` entry
 * point per group, each executing its blocks' logic directly on the
 * ArenaStore word arena and returning a changed-output mask: bit i is
 * set when the words of the i-th net the group's comb blocks write
 * (ElabBlock::writes, members in order) differ from their values on
 * entry; bit 63 saturates ("one of nets 63.. changed"); groups of
 * tick blocks return 0. The activity-gated kernel walks the mask
 * instead of snapshotting and diffing outputs itself. Whole-design
 * units (the CppUnit overload) return void. This is the exact
 * pipeline shape of PyMTL's SimJIT: generate C++ from the elaborated
 * model instance, compile it to a shared library (see jit_cpp.h),
 * and call it through a C ABI.
 *
 * The specializable subset matches the bytecode backend: all nets and
 * intermediates must fit in 64 bits (checked via bcSpecializable).
 */

#ifndef CMTL_CORE_IR_CPP_H
#define CMTL_CORE_IR_CPP_H

#include <string>
#include <vector>

#include "model.h"
#include "store.h"

namespace cmtl {

/**
 * Emit the C++ source for the given groups of specialized blocks.
 * Each inner vector lists ElabBlock indices fused into one entry
 * point, executed in order; each entry point returns the group's
 * changed-output mask (CppJitLibrary::Abi::Block).
 */
std::string cppEmitProgram(const Elaboration &elab, const ArenaStore &store,
                           const std::vector<std::vector<int>> &groups);

/**
 * One whole-design specialization unit (the cpp-design backend): an
 * ordered mix of block executions and register flops emitted into a
 * single entry point. A unit holding every tick block, every flop and
 * the full levelized comb schedule is a complete step() function.
 */
struct CppUnit
{
    struct Item
    {
        int block = -1; //!< ElabBlock index to execute, or
        /** Whole-word flop range (block < 0): copy rangeWords words
         *  next -> current starting at rangeOff. Produced from
         *  ArenaLayout::flopPlan(). */
        int rangeOff = -1;
        int rangeWords = 0;
    };
    std::vector<Item> items;
};

/**
 * Emit the C++ source for whole-design units (CppJitLibrary::Abi::Unit
 * entry points, returning void). Differs from the group overload in
 * three ways: no change mask, flop items compile to straight-line word
 * copies, and every memory array touched by a unit is bound to a
 * typed local alias pointer instead of re-deriving `w + offset` at
 * each access.
 */
std::string cppEmitProgram(const Elaboration &elab, const ArenaStore &store,
                           const std::vector<CppUnit> &units);

/** Symbol name of group @p k in the emitted source. */
std::string cppGroupSymbol(int k);

} // namespace cmtl

#endif // CMTL_CORE_IR_CPP_H
