/**
 * @file
 * C++ source emission from IR blocks (SimJIT code generation stage).
 *
 * Given an elaborated design, an arena layout, and a grouping of
 * specialized block indices, emits a self-contained C++ translation
 * unit with one `extern "C" void cmtl_grp_<k>(uint64_t *w)` entry
 * point per group, each executing its blocks' logic directly on the
 * ArenaStore word arena. This is the exact pipeline shape of PyMTL's
 * SimJIT: generate C++ from the elaborated model instance, compile it
 * to a shared library (see jit_cpp.h), and call it through a C ABI.
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
 * point, executed in order.
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
 * Emit the C++ source for whole-design units. Differs from the group
 * overload in two ways: flop items compile to straight-line word
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
