#include "ir_eval.h"

#include <stdexcept>

namespace cmtl {

Bits
irEvalBinOp(IrOp op, const Bits &a, const Bits &b, int nbits)
{
    switch (op) {
      case IrOp::Add: return (a + b).zext(nbits);
      case IrOp::Sub: return (a - b).zext(nbits);
      case IrOp::Mul: return (a * b).zext(nbits);
      case IrOp::And: return (a & b).zext(nbits);
      case IrOp::Or: return (a | b).zext(nbits);
      case IrOp::Xor: return (a ^ b).zext(nbits);
      case IrOp::Shl: return (a << b).zext(nbits);
      case IrOp::Shr: return (a >> b).zext(nbits);
      case IrOp::Sra:
        return a.sra(static_cast<int>(
            b.fitsUint64() ? std::min<uint64_t>(b.toUint64(), a.nbits())
                           : a.nbits()));
      case IrOp::Eq: return Bits(1, a == b);
      case IrOp::Ne: return Bits(1, a != b);
      case IrOp::Lt: return Bits(1, a < b);
      case IrOp::Le: return Bits(1, a <= b);
      case IrOp::Gt: return Bits(1, a > b);
      case IrOp::Ge: return Bits(1, a >= b);
      case IrOp::LAnd: return Bits(1, a.any() && b.any());
      case IrOp::LOr: return Bits(1, a.any() || b.any());
    }
    throw std::logic_error("unhandled IrOp");
}

Bits
irEvalUnOp(IrUnOp op, const Bits &a)
{
    switch (op) {
      case IrUnOp::Inv: return ~a;
      case IrUnOp::LNot: return Bits(1, !a.any());
      case IrUnOp::ReduceOr: return a.reduceOr();
      case IrUnOp::ReduceAnd: return a.reduceAnd();
      case IrUnOp::ReduceXor: return a.reduceXor();
    }
    throw std::logic_error("unhandled IrUnOp");
}

// -------------------------------------------------------- BoxedEvaluator

BoxedEvaluator::Box
BoxedEvaluator::eval(const IrExprNode *e)
{
    // Every intermediate allocates a fresh box: CPython object churn.
    switch (e->kind) {
      case IrExprNode::Kind::Const:
        return std::make_shared<const Bits>(e->cval);
      case IrExprNode::Kind::Ref:
        return std::make_shared<const Bits>(store_.read(e->sig->netId()));
      case IrExprNode::Kind::Temp:
        return temps_[e->temp];
      case IrExprNode::Kind::BinOp: {
        Box a = eval(e->args[0].get());
        Box b = eval(e->args[1].get());
        return std::make_shared<const Bits>(
            irEvalBinOp(e->op, *a, *b, e->nbits));
      }
      case IrExprNode::Kind::UnOp: {
        Box a = eval(e->args[0].get());
        return std::make_shared<const Bits>(irEvalUnOp(e->unop, *a));
      }
      case IrExprNode::Kind::Slice: {
        Box a = eval(e->args[0].get());
        return std::make_shared<const Bits>(a->slice(e->lsb, e->nbits));
      }
      case IrExprNode::Kind::Concat: {
        Bits out(e->nbits);
        int pos = e->nbits;
        for (const auto &arg : e->args) {
            Box part = eval(arg.get());
            pos -= arg->nbits;
            out.setSlice(pos, *part);
        }
        return std::make_shared<const Bits>(std::move(out));
      }
      case IrExprNode::Kind::Mux: {
        Box c = eval(e->args[0].get());
        Box v = c->any() ? eval(e->args[1].get()) : eval(e->args[2].get());
        return std::make_shared<const Bits>(v->zext(e->nbits));
      }
      case IrExprNode::Kind::Zext: {
        Box a = eval(e->args[0].get());
        return std::make_shared<const Bits>(a->zext(e->nbits));
      }
      case IrExprNode::Kind::Sext: {
        Box a = eval(e->args[0].get());
        return std::make_shared<const Bits>(a->sext(e->nbits));
      }
      case IrExprNode::Kind::ARead: {
        Box idx = eval(e->args[0].get());
        return std::make_shared<const Bits>(
            store_.arrayRead(e->array->arrayId(), idx->toUint64()));
      }
    }
    throw std::logic_error("unhandled IrExprNode kind");
}

void
BoxedEvaluator::exec(const std::vector<IrStmt> &stmts, bool sequential,
                     std::vector<int> *changed)
{
    for (const IrStmt &s : stmts) {
        switch (s.kind) {
          case IrStmt::Kind::Assign: {
            Box rhs = eval(s.rhs.get());
            if (s.temp >= 0 && !s.sig) {
                temps_[s.temp] = rhs;
                break;
            }
            int net = s.sig->netId();
            if (s.width < 0) {
                if (sequential && s.nonblocking) {
                    store_.writeNext(net, *rhs);
                } else {
                    if (store_.write(net, *rhs) && changed)
                        changed->push_back(net);
                }
            } else {
                Bits whole = (sequential && s.nonblocking)
                                 ? store_.readNext(net)
                                 : store_.read(net);
                whole.setSlice(s.lsb, rhs->zext(s.width));
                if (sequential && s.nonblocking) {
                    store_.writeNext(net, whole);
                } else {
                    if (store_.write(net, whole) && changed)
                        changed->push_back(net);
                }
            }
            break;
          }
          case IrStmt::Kind::If: {
            Box cond = eval(s.cond.get());
            if (cond->any())
                exec(s.thenBody, sequential, changed);
            else
                exec(s.elseBody, sequential, changed);
            break;
          }
          case IrStmt::Kind::AWrite: {
            Box idx = eval(s.cond.get());
            Box val = eval(s.rhs.get());
            store_.arrayWrite(s.array->arrayId(), idx->toUint64(),
                              *val);
            break;
          }
        }
    }
}

void
BoxedEvaluator::run(const ElabBlock &blk, std::vector<int> *changed)
{
    temps_.assign(blk.ir->temps.size(), nullptr);
    if (!changed || !blk.readsOwnWrites) {
        exec(blk.ir->stmts, blk.ir->sequential, changed);
        return;
    }
    // A block reading its own target (full assign, then a slice
    // assign) commits intermediate values; reporting those would
    // re-trigger the block on itself forever. Report final changes.
    before_.clear();
    for (int net : blk.writes)
        before_.push_back(store_.read(net));
    exec(blk.ir->stmts, false, nullptr);
    for (size_t i = 0; i < blk.writes.size(); ++i) {
        if (store_.read(blk.writes[i]) != before_[i])
            changed->push_back(blk.writes[i]);
    }
}

// --------------------------------------------------------- SlotEvaluator

Bits
SlotEvaluator::eval(const IrExprNode *e)
{
    switch (e->kind) {
      case IrExprNode::Kind::Const:
        return e->cval;
      case IrExprNode::Kind::Ref:
        return store_.read(e->sig->netId());
      case IrExprNode::Kind::Temp:
        return temps_[e->temp];
      case IrExprNode::Kind::BinOp:
        return irEvalBinOp(e->op, eval(e->args[0].get()),
                         eval(e->args[1].get()), e->nbits);
      case IrExprNode::Kind::UnOp:
        return irEvalUnOp(e->unop, eval(e->args[0].get()));
      case IrExprNode::Kind::Slice:
        return eval(e->args[0].get()).slice(e->lsb, e->nbits);
      case IrExprNode::Kind::Concat: {
        Bits out(e->nbits);
        int pos = e->nbits;
        for (const auto &arg : e->args) {
            pos -= arg->nbits;
            out.setSlice(pos, eval(arg.get()));
        }
        return out;
      }
      case IrExprNode::Kind::Mux:
        return (eval(e->args[0].get()).any() ? eval(e->args[1].get())
                                             : eval(e->args[2].get()))
            .zext(e->nbits);
      case IrExprNode::Kind::Zext:
        return eval(e->args[0].get()).zext(e->nbits);
      case IrExprNode::Kind::Sext:
        return eval(e->args[0].get()).sext(e->nbits);
      case IrExprNode::Kind::ARead:
        return store_.arrayRead(e->array->arrayId(),
                                eval(e->args[0].get()).toUint64());
    }
    throw std::logic_error("unhandled IrExprNode kind");
}

void
SlotEvaluator::exec(const std::vector<IrStmt> &stmts, bool sequential,
                    std::vector<int> *changed)
{
    for (const IrStmt &s : stmts) {
        switch (s.kind) {
          case IrStmt::Kind::Assign: {
            Bits rhs = eval(s.rhs.get());
            if (s.temp >= 0 && !s.sig) {
                temps_[s.temp] = std::move(rhs);
                break;
            }
            int net = s.sig->netId();
            if (s.width < 0) {
                if (sequential && s.nonblocking) {
                    store_.writeNext(net, rhs);
                } else {
                    if (store_.write(net, rhs) && changed)
                        changed->push_back(net);
                }
            } else {
                Bits whole = (sequential && s.nonblocking)
                                 ? store_.readNext(net)
                                 : store_.read(net);
                whole.setSlice(s.lsb, rhs.zext(s.width));
                if (sequential && s.nonblocking) {
                    store_.writeNext(net, whole);
                } else {
                    if (store_.write(net, whole) && changed)
                        changed->push_back(net);
                }
            }
            break;
          }
          case IrStmt::Kind::If:
            if (eval(s.cond.get()).any())
                exec(s.thenBody, sequential, changed);
            else
                exec(s.elseBody, sequential, changed);
            break;
          case IrStmt::Kind::AWrite:
            store_.arrayWrite(s.array->arrayId(),
                              eval(s.cond.get()).toUint64(),
                              eval(s.rhs.get()));
            break;
        }
    }
}

void
SlotEvaluator::run(const ElabBlock &blk, std::vector<int> *changed)
{
    temps_.assign(blk.ir->temps.size(), Bits());
    if (!changed || !blk.readsOwnWrites) {
        exec(blk.ir->stmts, blk.ir->sequential, changed);
        return;
    }
    // Final-value change reporting, as in BoxedEvaluator::run.
    before_.clear();
    for (int net : blk.writes)
        before_.push_back(store_.read(net));
    exec(blk.ir->stmts, false, nullptr);
    for (size_t i = 0; i < blk.writes.size(); ++i) {
        if (store_.read(blk.writes[i]) != before_[i])
            changed->push_back(blk.writes[i]);
    }
}

} // namespace cmtl
