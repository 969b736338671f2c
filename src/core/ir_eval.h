/**
 * @file
 * Tree-walking IR evaluators.
 *
 * BoxedEvaluator executes IR blocks against a BoxedStore, allocating a
 * fresh reference-counted Bits box for every intermediate value — the
 * execution profile of PyMTL model code under CPython.
 *
 * SlotEvaluator executes the same IR against an ArenaStore with
 * by-value Bits intermediates and direct slot access — the profile of
 * the same code under a warmed-up tracing JIT (PyPy): still
 * interpreting the model description, but with lookup and boxing costs
 * removed.
 */

#ifndef CMTL_CORE_IR_EVAL_H
#define CMTL_CORE_IR_EVAL_H

#include <memory>
#include <vector>

#include "ir.h"
#include "model.h"
#include "store.h"

namespace cmtl {

/**
 * Reference arithmetic semantics of one binary IR operator, truncated
 * to @p nbits. Shared by both tree-walk evaluators and by the static
 * analyzer's constant folder, so folded values match simulation
 * bit-for-bit.
 */
Bits irEvalBinOp(IrOp op, const Bits &a, const Bits &b, int nbits);

/** Reference semantics of one unary IR operator. */
Bits irEvalUnOp(IrUnOp op, const Bits &a);

/** CPython-analog evaluator over boxed, dictionary-backed storage. */
class BoxedEvaluator
{
  public:
    explicit BoxedEvaluator(BoxedStore &store) : store_(store) {}

    /**
     * Execute one IR block. For combinational blocks, nets whose
     * current value changed are appended to @p changed (when non-null)
     * to drive the event-driven scheduler; for a block that reads a
     * net it writes, only nets whose final value differs from their
     * value before the run.
     */
    void run(const ElabBlock &blk, std::vector<int> *changed = nullptr);

  private:
    using Box = std::shared_ptr<const Bits>;
    Box eval(const IrExprNode *e);
    void exec(const std::vector<IrStmt> &stmts, bool sequential,
              std::vector<int> *changed);

    BoxedStore &store_;
    std::vector<Box> temps_;
    std::vector<Bits> before_; //!< self-reading block: pre-run writes
};

/** PyPy-analog evaluator over dense arena storage. */
class SlotEvaluator
{
  public:
    explicit SlotEvaluator(ArenaStore &store) : store_(store) {}

    void run(const ElabBlock &blk, std::vector<int> *changed = nullptr);

  private:
    Bits eval(const IrExprNode *e);
    void exec(const std::vector<IrStmt> &stmts, bool sequential,
              std::vector<int> *changed);

    ArenaStore &store_;
    std::vector<Bits> temps_;
    std::vector<Bits> before_; //!< self-reading block: pre-run writes
};

} // namespace cmtl

#endif // CMTL_CORE_IR_EVAL_H
