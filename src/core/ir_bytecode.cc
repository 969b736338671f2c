#include "ir_bytecode.h"

#include <bit>
#include <stdexcept>

namespace cmtl {

namespace {

uint64_t
widthMask(int nbits)
{
    return nbits >= 64 ? ~uint64_t(0) : ((uint64_t(1) << nbits) - 1);
}

bool
exprSpecializable(const IrExprNode *e, const ArenaStore &store)
{
    if (e->nbits > 64)
        return false;
    // ARead indexes are computed values; always representable.
    if (e->kind == IrExprNode::Kind::Ref &&
        !store.narrow(e->sig->netId()))
        return false;
    for (const auto &arg : e->args) {
        if (!exprSpecializable(arg.get(), store))
            return false;
    }
    return true;
}

bool
stmtsSpecializable(const std::vector<IrStmt> &stmts, const ArenaStore &store)
{
    for (const auto &s : stmts) {
        switch (s.kind) {
          case IrStmt::Kind::Assign:
            if (s.sig && !store.narrow(s.sig->netId()))
                return false;
            if (!exprSpecializable(s.rhs.get(), store))
                return false;
            break;
          case IrStmt::Kind::If:
            if (!exprSpecializable(s.cond.get(), store))
                return false;
            if (!stmtsSpecializable(s.thenBody, store))
                return false;
            if (!stmtsSpecializable(s.elseBody, store))
                return false;
            break;
          case IrStmt::Kind::AWrite:
            if (!exprSpecializable(s.cond.get(), store) ||
                !exprSpecializable(s.rhs.get(), store))
                return false;
            break;
        }
    }
    return true;
}

/** Compiles one block into bytecode. */
class Compiler
{
  public:
    Compiler(const ElabBlock &blk, const ArenaStore &store)
        : blk_(blk), store_(store)
    {}

    BcProgram
    run()
    {
        // Persistent scratch slots for declared temps.
        temp_slot_.resize(blk_.ir->temps.size());
        for (size_t i = 0; i < temp_slot_.size(); ++i)
            temp_slot_[i] = allocScratch();
        persistent_scratch_ = next_scratch_;
        compileStmts(blk_.ir->stmts);
        prog_.nscratch = max_scratch_;
        return std::move(prog_);
    }

  private:
    int
    allocScratch()
    {
        int slot = next_scratch_++;
        max_scratch_ = std::max(max_scratch_, next_scratch_);
        return -(slot + 1);
    }

    void
    emit(BcInst inst)
    {
        prog_.insts.push_back(inst);
    }

    int32_t
    curSlot(int net) const
    {
        return store_.offset(net);
    }

    int32_t
    nxtSlot(int net) const
    {
        return store_.offset(net) + store_.wordsPerPhase();
    }

    /**
     * Register holding a net's current value. Unpacked nets use
     * their arena word directly; packed nets extract their field
     * into scratch with the existing Slice op.
     */
    int32_t
    loadCur(int net)
    {
        if (!store_.packed(net))
            return curSlot(net);
        int32_t dst = allocScratch();
        emit({Bc::Slice, dst, curSlot(net), 0, 0, 0,
              widthMask(store_.nbits(net)),
              static_cast<uint8_t>(store_.shift(net))});
        return dst;
    }

    /** Compile an expression; returns the register holding the value. */
    int32_t
    compileExpr(const IrExprNode *e)
    {
        switch (e->kind) {
          case IrExprNode::Kind::Const: {
            int32_t dst = allocScratch();
            emit({Bc::LdImm, dst, 0, 0, 0, e->cval.toUint64(),
                  widthMask(e->nbits), 0});
            return dst;
          }
          case IrExprNode::Kind::Ref:
            return loadCur(e->sig->netId());
          case IrExprNode::Kind::Temp:
            return temp_slot_[e->temp];
          case IrExprNode::Kind::BinOp: {
            int32_t a = compileExpr(e->args[0].get());
            int32_t b = compileExpr(e->args[1].get());
            int32_t dst = allocScratch();
            Bc op = Bc::Add;
            uint64_t imm = 0;
            switch (e->op) {
              case IrOp::Add: op = Bc::Add; break;
              case IrOp::Sub: op = Bc::Sub; break;
              case IrOp::Mul: op = Bc::Mul; break;
              case IrOp::And: op = Bc::And; break;
              case IrOp::Or: op = Bc::Or; break;
              case IrOp::Xor: op = Bc::Xor; break;
              case IrOp::Shl: op = Bc::Shl; break;
              case IrOp::Shr: op = Bc::Shr; break;
              case IrOp::Sra:
                op = Bc::Sra;
                imm = e->args[0]->nbits;
                break;
              case IrOp::Eq: op = Bc::Eq; break;
              case IrOp::Ne: op = Bc::Ne; break;
              case IrOp::Lt: op = Bc::Lt; break;
              case IrOp::Le: op = Bc::Le; break;
              case IrOp::Gt: op = Bc::Gt; break;
              case IrOp::Ge: op = Bc::Ge; break;
              case IrOp::LAnd: op = Bc::LAnd; break;
              case IrOp::LOr: op = Bc::LOr; break;
              default:
                throw std::logic_error("unhandled binop");
            }
            emit({op, dst, a, b, 0, imm, widthMask(e->nbits), 0});
            return dst;
          }
          case IrExprNode::Kind::UnOp: {
            int32_t a = compileExpr(e->args[0].get());
            int32_t dst = allocScratch();
            Bc op = Bc::Inv;
            uint64_t imm = 0;
            switch (e->unop) {
              case IrUnOp::Inv: op = Bc::Inv; break;
              case IrUnOp::LNot: op = Bc::LNot; break;
              case IrUnOp::ReduceOr: op = Bc::ROr; break;
              case IrUnOp::ReduceAnd:
                op = Bc::RAnd;
                imm = widthMask(e->args[0]->nbits);
                break;
              case IrUnOp::ReduceXor: op = Bc::RXor; break;
            }
            emit({op, dst, a, 0, 0, imm, widthMask(e->nbits), 0});
            return dst;
          }
          case IrExprNode::Kind::Slice: {
            int32_t a = compileExpr(e->args[0].get());
            int32_t dst = allocScratch();
            emit({Bc::Slice, dst, a, 0, 0, 0, widthMask(e->nbits),
                  static_cast<uint8_t>(e->lsb)});
            return dst;
          }
          case IrExprNode::Kind::Concat: {
            // Fold parts most-significant-first: acc = (acc << w) | part.
            int32_t acc = allocScratch();
            bool first = true;
            for (const auto &argp : e->args) {
                int32_t part = compileExpr(argp.get());
                if (first) {
                    emit({Bc::Mov, acc, part, 0, 0, 0,
                          widthMask(argp->nbits), 0});
                    first = false;
                } else {
                    // acc = (acc << part.nbits) | part
                    int32_t amt = allocScratch();
                    emit({Bc::LdImm, amt, 0, 0, 0,
                          static_cast<uint64_t>(argp->nbits), ~uint64_t(0),
                          0});
                    emit({Bc::Shl, acc, acc, amt, 0, 0,
                          widthMask(e->nbits), 0});
                    emit({Bc::Or, acc, acc, part, 0, 0,
                          widthMask(e->nbits), 0});
                }
            }
            return acc;
          }
          case IrExprNode::Kind::Mux: {
            int32_t c = compileExpr(e->args[0].get());
            int32_t a = compileExpr(e->args[1].get());
            int32_t b = compileExpr(e->args[2].get());
            int32_t dst = allocScratch();
            emit({Bc::Mux, dst, a, b, c, 0, widthMask(e->nbits), 0});
            return dst;
          }
          case IrExprNode::Kind::Zext:
            // Values are kept masked; widening is free.
            return compileExpr(e->args[0].get());
          case IrExprNode::Kind::Sext: {
            int32_t a = compileExpr(e->args[0].get());
            int32_t dst = allocScratch();
            emit({Bc::Sext, dst, a, 0, 0,
                  static_cast<uint64_t>(e->args[0]->nbits),
                  widthMask(e->nbits), 0});
            return dst;
          }
          case IrExprNode::Kind::ARead: {
            int32_t idx = compileExpr(e->args[0].get());
            int32_t dst = allocScratch();
            int id = e->array->arrayId();
            emit({Bc::ALoad, dst, idx, 0,
                  static_cast<int32_t>(store_.arrayIndexMask(id)),
                  static_cast<uint64_t>(store_.arrayOffset(id)),
                  widthMask(e->nbits), 0});
            return dst;
          }
        }
        throw std::logic_error("unhandled expr kind");
    }

    void
    compileStmts(const std::vector<IrStmt> &stmts)
    {
        bool seq = blk_.ir->sequential;
        for (const IrStmt &s : stmts) {
            int expr_base = next_scratch_;
            switch (s.kind) {
              case IrStmt::Kind::Assign: {
                int32_t rhs = compileExpr(s.rhs.get());
                if (s.temp >= 0 && !s.sig) {
                    emit({Bc::Mov, temp_slot_[s.temp], rhs, 0, 0, 0,
                          widthMask(s.rhs->nbits), 0});
                } else {
                    int net = s.sig->netId();
                    int32_t dst =
                        (seq && s.nonblocking) ? nxtSlot(net) : curSlot(net);
                    int shift = store_.shift(net);
                    if (s.width < 0 && !store_.packed(net)) {
                        emit({Bc::Mov, dst, rhs, 0, 0, 0,
                              widthMask(store_.nbits(net)), 0});
                    } else if (s.width < 0) {
                        // Packed full-width write: read-modify-write
                        // the shared word so word-mates survive.
                        emit({Bc::SetSlice, dst, rhs, 0, 0, 0,
                              widthMask(store_.nbits(net)),
                              static_cast<uint8_t>(shift)});
                    } else {
                        emit({Bc::SetSlice, dst, rhs, 0, 0, 0,
                              widthMask(s.width),
                              static_cast<uint8_t>(shift + s.lsb)});
                    }
                }
                break;
              }
              case IrStmt::Kind::AWrite: {
                int32_t idx = compileExpr(s.cond.get());
                int32_t val = compileExpr(s.rhs.get());
                int id = s.array->arrayId();
                emit({Bc::AStore, 0, idx, val,
                      static_cast<int32_t>(store_.arrayIndexMask(id)),
                      static_cast<uint64_t>(store_.arrayOffset(id)),
                      store_.arrayValueMask(id), 0});
                break;
              }
              case IrStmt::Kind::If: {
                int32_t cond = compileExpr(s.cond.get());
                size_t jz_at = prog_.insts.size();
                emit({Bc::Jz, 0, cond, 0, 0, 0, 0, 0});
                compileStmts(s.thenBody);
                if (s.elseBody.empty()) {
                    prog_.insts[jz_at].imm = prog_.insts.size();
                } else {
                    size_t jmp_at = prog_.insts.size();
                    emit({Bc::Jmp, 0, 0, 0, 0, 0, 0, 0});
                    prog_.insts[jz_at].imm = prog_.insts.size();
                    compileStmts(s.elseBody);
                    prog_.insts[jmp_at].imm = prog_.insts.size();
                }
                break;
              }
            }
            // Expression scratch is dead after the statement.
            next_scratch_ = std::max(expr_base, persistent_scratch_);
        }
    }

    const ElabBlock &blk_;
    const ArenaStore &store_;
    BcProgram prog_;
    std::vector<int32_t> temp_slot_;
    int next_scratch_ = 0;
    int max_scratch_ = 0;
    int persistent_scratch_ = 0;
};

} // namespace

bool
bcSpecializable(const ElabBlock &blk, const ArenaStore &store)
{
    if (!blk.ir)
        return false;
    for (const auto &t : blk.ir->temps) {
        if (t.nbits > 64)
            return false;
    }
    return stmtsSpecializable(blk.ir->stmts, store);
}

BcProgram
bcCompile(const ElabBlock &blk, const ArenaStore &store)
{
    return Compiler(blk, store).run();
}

// Cache-line aligned, so the dispatch loop's branch targets keep their
// place relative to 64-byte fetch blocks when unrelated code in the
// library grows: at 48 bytes past a line, gated bytecode on the
// multitile benchmark ran about 5% slower than at a line start.
__attribute__((aligned(64))) void
bcRun(const BcProgram &prog, uint64_t *words, uint64_t *scratch)
{
    auto reg = [&](int32_t i) -> uint64_t & {
        return i >= 0 ? words[i] : scratch[-i - 1];
    };
    const BcInst *insts = prog.insts.data();
    const size_t n = prog.insts.size();
    size_t pc = 0;
    while (pc < n) {
        const BcInst &in = insts[pc];
        switch (in.op) {
          case Bc::LdImm:
            reg(in.dst) = in.imm & in.mask;
            break;
          case Bc::Mov:
            reg(in.dst) = reg(in.a) & in.mask;
            break;
          case Bc::Add:
            reg(in.dst) = (reg(in.a) + reg(in.b)) & in.mask;
            break;
          case Bc::Sub:
            reg(in.dst) = (reg(in.a) - reg(in.b)) & in.mask;
            break;
          case Bc::Mul:
            reg(in.dst) = (reg(in.a) * reg(in.b)) & in.mask;
            break;
          case Bc::And:
            reg(in.dst) = (reg(in.a) & reg(in.b)) & in.mask;
            break;
          case Bc::Or:
            reg(in.dst) = (reg(in.a) | reg(in.b)) & in.mask;
            break;
          case Bc::Xor:
            reg(in.dst) = (reg(in.a) ^ reg(in.b)) & in.mask;
            break;
          case Bc::Shl: {
            uint64_t amt = reg(in.b);
            reg(in.dst) = amt >= 64 ? 0 : (reg(in.a) << amt) & in.mask;
            break;
          }
          case Bc::Shr: {
            uint64_t amt = reg(in.b);
            reg(in.dst) = amt >= 64 ? 0 : (reg(in.a) >> amt) & in.mask;
            break;
          }
          case Bc::Sra: {
            int nbits = static_cast<int>(in.imm);
            int64_t v = static_cast<int64_t>(reg(in.a) << (64 - nbits)) >>
                        (64 - nbits);
            uint64_t amt = std::min<uint64_t>(reg(in.b), 63);
            reg(in.dst) =
                static_cast<uint64_t>(v >> static_cast<int>(amt)) & in.mask;
            break;
          }
          case Bc::Eq:
            reg(in.dst) = reg(in.a) == reg(in.b);
            break;
          case Bc::Ne:
            reg(in.dst) = reg(in.a) != reg(in.b);
            break;
          case Bc::Lt:
            reg(in.dst) = reg(in.a) < reg(in.b);
            break;
          case Bc::Le:
            reg(in.dst) = reg(in.a) <= reg(in.b);
            break;
          case Bc::Gt:
            reg(in.dst) = reg(in.a) > reg(in.b);
            break;
          case Bc::Ge:
            reg(in.dst) = reg(in.a) >= reg(in.b);
            break;
          case Bc::LAnd:
            reg(in.dst) = (reg(in.a) != 0) && (reg(in.b) != 0);
            break;
          case Bc::LOr:
            reg(in.dst) = (reg(in.a) != 0) || (reg(in.b) != 0);
            break;
          case Bc::Inv:
            reg(in.dst) = ~reg(in.a) & in.mask;
            break;
          case Bc::LNot:
            reg(in.dst) = reg(in.a) == 0;
            break;
          case Bc::ROr:
            reg(in.dst) = reg(in.a) != 0;
            break;
          case Bc::RAnd:
            reg(in.dst) = reg(in.a) == in.imm;
            break;
          case Bc::RXor:
            reg(in.dst) = std::popcount(reg(in.a)) & 1;
            break;
          case Bc::Slice:
            reg(in.dst) = (reg(in.a) >> in.sh) & in.mask;
            break;
          case Bc::SetSlice:
            reg(in.dst) = (reg(in.dst) & ~(in.mask << in.sh)) |
                          ((reg(in.a) & in.mask) << in.sh);
            break;
          case Bc::Mux:
            reg(in.dst) = (reg(in.c) ? reg(in.a) : reg(in.b)) & in.mask;
            break;
          case Bc::Sext: {
            int nbits = static_cast<int>(in.imm);
            int64_t v = static_cast<int64_t>(reg(in.a) << (64 - nbits)) >>
                        (64 - nbits);
            reg(in.dst) = static_cast<uint64_t>(v) & in.mask;
            break;
          }
          case Bc::ALoad:
            reg(in.dst) =
                words[in.imm + (reg(in.a) &
                                static_cast<uint64_t>(in.c))];
            break;
          case Bc::AStore:
            words[in.imm +
                  (reg(in.a) & static_cast<uint64_t>(in.c))] =
                reg(in.b) & in.mask;
            break;
          case Bc::Jz:
            if (reg(in.a) == 0) {
                pc = in.imm;
                continue;
            }
            break;
          case Bc::Jmp:
            pc = in.imm;
            continue;
        }
        ++pc;
    }
}

} // namespace cmtl
