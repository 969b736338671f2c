#include "ir_cpp.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>

#include "analyze.h"

namespace cmtl {

namespace {

std::string
maskHex(int nbits)
{
    uint64_t mask =
        nbits >= 64 ? ~uint64_t(0) : ((uint64_t(1) << nbits) - 1);
    std::ostringstream os;
    os << "0x" << std::hex << mask << "ull";
    return os.str();
}

/** Emits the body of one block. */
class BlockEmitter
{
  public:
    /** @p array_alias (optional, indexed by array id): arrays bound
     *  to a typed local `aN` pointer by the enclosing entry point. */
    BlockEmitter(const ElabBlock &blk, const ArenaStore &store,
                 std::ostringstream &os,
                 const std::vector<char> *array_alias = nullptr)
        : blk_(blk), store_(store), os_(os), array_alias_(array_alias)
    {}

    void
    run(int indent)
    {
        for (size_t i = 0; i < blk_.ir->temps.size(); ++i) {
            pad(indent);
            os_ << "uint64_t t" << i << " = 0; (void)t" << i << ";\n";
        }
        emitStmts(blk_.ir->stmts, indent);
    }

  private:
    void
    pad(int indent)
    {
        os_ << std::string(indent, ' ');
    }

    std::string
    cur(int net) const
    {
        return "w[" + std::to_string(store_.offset(net)) + "]";
    }

    std::string
    nxt(int net) const
    {
        return "w[" +
               std::to_string(store_.offset(net) + store_.wordsPerPhase()) +
               "]";
    }

    /** Rvalue of a net's current value (field extract when packed). */
    std::string
    curRead(int net) const
    {
        if (!store_.packed(net))
            return cur(net);
        std::string out = "((" + cur(net);
        if (store_.shift(net))
            out += " >> " + std::to_string(store_.shift(net));
        return out + ") & " + maskHex(store_.nbits(net)) + ")";
    }

    /**
     * Emit "<dst> = <rhs>;" with the field insert semantics the
     * layout demands: plain masked store for exclusive words,
     * read-modify-write for packed or partial-width destinations.
     * @p lsb/@p width describe a partial assign (width < 0 = full).
     */
    void
    emitAssign(const std::string &dst, int net, int lsb, int width,
               const std::string &rhs)
    {
        int shift = store_.shift(net);
        if (width < 0 && !store_.packed(net)) {
            os_ << dst << " = " << rhs << " & "
                << maskHex(store_.nbits(net)) << ";\n";
            return;
        }
        std::string m =
            width < 0 ? maskHex(store_.nbits(net)) : maskHex(width);
        int pos = width < 0 ? shift : shift + lsb;
        os_ << dst << " = (" << dst << " & ~(" << m << " << " << pos
            << ")) | ((" << rhs << " & " << m << ") << " << pos
            << ");\n";
    }

    /** Open-bracketed base of an array element access. */
    std::string
    arrayBase(int id) const
    {
        if (array_alias_ && (*array_alias_)[id])
            return "a" + std::to_string(id) + "[";
        return "w[" + std::to_string(store_.arrayOffset(id)) + " + ";
    }

    std::string
    expr(const IrExprNode *e)
    {
        // Collapse whole constant subtrees (the analyzer's folder
        // shares exact simulation semantics, so the emitted literal
        // matches what the interpreted backends compute).
        if (e->kind != IrExprNode::Kind::Const && e->nbits <= 64) {
            if (auto folded = irConstFold(e)) {
                std::ostringstream os;
                os << "0x" << std::hex << folded->toUint64() << "ull";
                return os.str();
            }
        }
        switch (e->kind) {
          case IrExprNode::Kind::Const: {
            std::ostringstream os;
            os << "0x" << std::hex << e->cval.toUint64() << "ull";
            return os.str();
          }
          case IrExprNode::Kind::Ref:
            return curRead(e->sig->netId());
          case IrExprNode::Kind::Temp:
            return "t" + std::to_string(e->temp);
          case IrExprNode::Kind::BinOp: {
            std::string a = expr(e->args[0].get());
            std::string b = expr(e->args[1].get());
            std::string m = maskHex(e->nbits);
            switch (e->op) {
              case IrOp::Add: return "((" + a + " + " + b + ") & " + m + ")";
              case IrOp::Sub: return "((" + a + " - " + b + ") & " + m + ")";
              case IrOp::Mul: return "((" + a + " * " + b + ") & " + m + ")";
              case IrOp::And: return "(" + a + " & " + b + ")";
              case IrOp::Or: return "(" + a + " | " + b + ")";
              case IrOp::Xor: return "(" + a + " ^ " + b + ")";
              case IrOp::Shl:
                return "(cmtl_shl(" + a + ", " + b + ") & " + m + ")";
              case IrOp::Shr:
                return "cmtl_shr(" + a + ", " + b + ")";
              case IrOp::Sra:
                return "(cmtl_sra(" + a + ", " +
                       std::to_string(e->args[0]->nbits) + ", " + b +
                       ") & " + m + ")";
              case IrOp::Eq: return "uint64_t(" + a + " == " + b + ")";
              case IrOp::Ne: return "uint64_t(" + a + " != " + b + ")";
              case IrOp::Lt: return "uint64_t(" + a + " < " + b + ")";
              case IrOp::Le: return "uint64_t(" + a + " <= " + b + ")";
              case IrOp::Gt: return "uint64_t(" + a + " > " + b + ")";
              case IrOp::Ge: return "uint64_t(" + a + " >= " + b + ")";
              case IrOp::LAnd:
                return "uint64_t((" + a + " != 0) && (" + b + " != 0))";
              case IrOp::LOr:
                return "uint64_t((" + a + " != 0) || (" + b + " != 0))";
            }
            throw std::logic_error("unhandled binop");
          }
          case IrExprNode::Kind::UnOp: {
            std::string a = expr(e->args[0].get());
            switch (e->unop) {
              case IrUnOp::Inv:
                return "(~" + a + " & " + maskHex(e->nbits) + ")";
              case IrUnOp::LNot:
                return "uint64_t(" + a + " == 0)";
              case IrUnOp::ReduceOr:
                return "uint64_t(" + a + " != 0)";
              case IrUnOp::ReduceAnd:
                return "uint64_t(" + a +
                       " == " + maskHex(e->args[0]->nbits) + ")";
              case IrUnOp::ReduceXor:
                return "(uint64_t)(__builtin_popcountll(" + a + ") & 1)";
            }
            throw std::logic_error("unhandled unop");
          }
          case IrExprNode::Kind::Slice:
            return "((" + expr(e->args[0].get()) + " >> " +
                   std::to_string(e->lsb) + ") & " + maskHex(e->nbits) +
                   ")";
          case IrExprNode::Kind::Concat: {
            // Most-significant part first.
            std::string out;
            int pos = e->nbits;
            for (const auto &argp : e->args) {
                pos -= argp->nbits;
                std::string part = "(" + expr(argp.get()) + " << " +
                                   std::to_string(pos) + ")";
                if (pos == 0)
                    part = expr(argp.get());
                out = out.empty() ? part : "(" + out + " | " + part + ")";
            }
            return out;
          }
          case IrExprNode::Kind::Mux:
            return "((" + expr(e->args[0].get()) + ") ? uint64_t(" +
                   expr(e->args[1].get()) + ") : uint64_t(" +
                   expr(e->args[2].get()) + "))";
          case IrExprNode::Kind::Zext:
            return expr(e->args[0].get());
          case IrExprNode::Kind::Sext:
            return "(cmtl_sext(" + expr(e->args[0].get()) + ", " +
                   std::to_string(e->args[0]->nbits) + ") & " +
                   maskHex(e->nbits) + ")";
          case IrExprNode::Kind::ARead: {
            int id = e->array->arrayId();
            return arrayBase(id) + "((" + expr(e->args[0].get()) +
                   ") & " + std::to_string(store_.arrayIndexMask(id)) +
                   "ull)]";
          }
        }
        throw std::logic_error("unhandled expr kind");
    }

    void
    emitStmts(const std::vector<IrStmt> &stmts, int indent)
    {
        bool seq = blk_.ir->sequential;
        for (const IrStmt &s : stmts) {
            switch (s.kind) {
              case IrStmt::Kind::Assign: {
                pad(indent);
                if (s.temp >= 0 && !s.sig) {
                    os_ << "t" << s.temp << " = " << expr(s.rhs.get())
                        << ";\n";
                    break;
                }
                int net = s.sig->netId();
                std::string dst =
                    (seq && s.nonblocking) ? nxt(net) : cur(net);
                emitAssign(dst, net, s.lsb, s.width, expr(s.rhs.get()));
                break;
              }
              case IrStmt::Kind::If:
                pad(indent);
                os_ << "if (" << expr(s.cond.get()) << ") {\n";
                emitStmts(s.thenBody, indent + 4);
                if (!s.elseBody.empty()) {
                    pad(indent);
                    os_ << "} else {\n";
                    emitStmts(s.elseBody, indent + 4);
                }
                pad(indent);
                os_ << "}\n";
                break;
              case IrStmt::Kind::AWrite: {
                pad(indent);
                int id = s.array->arrayId();
                os_ << arrayBase(id) << "((" << expr(s.cond.get())
                    << ") & " << store_.arrayIndexMask(id)
                    << "ull)] = " << expr(s.rhs.get()) << " & "
                    << maskHex(s.array->nbits()) << ";\n";
                break;
              }
            }
        }
    }

    const ElabBlock &blk_;
    const ArenaStore &store_;
    std::ostringstream &os_;
    const std::vector<char> *array_alias_;
};

/** The shared translation-unit header (helpers used by both modes). */
void
emitPrelude(std::ostringstream &os, const Elaboration &elab)
{
    os << "// Generated by CMTL SimJIT-C++ specializer.\n"
       << "// Design: " << elab.top->fullName() << "\n"
       << "#include <cstdint>\n\n"
       << "static inline uint64_t cmtl_shl(uint64_t a, uint64_t n)\n"
       << "{ return n >= 64 ? 0 : a << n; }\n"
       << "static inline uint64_t cmtl_shr(uint64_t a, uint64_t n)\n"
       << "{ return n >= 64 ? 0 : a >> n; }\n"
       << "static inline uint64_t cmtl_sra(uint64_t a, int nb, uint64_t n)\n"
       << "{ int64_t v = (int64_t)(a << (64 - nb)) >> (64 - nb);\n"
       << "  return (uint64_t)(v >> (n > 63 ? 63 : (int)n)); }\n"
       << "static inline uint64_t cmtl_sext(uint64_t a, int nb)\n"
       << "{ return (uint64_t)((int64_t)(a << (64 - nb)) >> (64 - nb)); }\n"
       << "\n";
}

} // namespace

std::string
cppGroupSymbol(int k)
{
    return "cmtl_grp_" + std::to_string(k);
}

std::string
cppEmitProgram(const Elaboration &elab, const ArenaStore &store,
               const std::vector<std::vector<int>> &groups)
{
    std::ostringstream os;
    emitPrelude(os, elab);

    for (size_t k = 0; k < groups.size(); ++k) {
        os << "extern \"C\" uint64_t "
           << cppGroupSymbol(static_cast<int>(k)) << "(uint64_t *w)\n{\n";

        // Change detection with constant offsets: every word a comb
        // member writes is held in a const local across the body and
        // compared after it. Bit i of the mask stands for the i-th
        // write of the members in order (ElabBlock::writes), and bit
        // 63 for all writes from the 64th on.
        std::vector<int> write_nets;
        for (int blk_idx : groups[k]) {
            const ElabBlock &blk = elab.blocks[blk_idx];
            if (!blk.ir->sequential)
                write_nets.insert(write_nets.end(), blk.writes.begin(),
                                  blk.writes.end());
        }
        std::map<int, int> word_local; // arena word -> o<N> local
        for (int net : write_nets) {
            for (int wd = 0; wd < store.nwords(net); ++wd) {
                const int off = store.offset(net) + wd;
                const int id = static_cast<int>(word_local.size());
                if (word_local.emplace(off, id).second)
                    os << "    const uint64_t o" << id << " = w[" << off
                       << "];\n";
            }
        }

        for (int blk_idx : groups[k]) {
            const ElabBlock &blk = elab.blocks[blk_idx];
            os << "    { // " << blk.name << "\n";
            std::ostringstream body;
            BlockEmitter(blk, store, body).run(8);
            os << body.str() << "    }\n";
        }

        if (write_nets.empty()) {
            os << "    return 0;\n}\n\n";
            continue;
        }
        os << "    uint64_t m = 0;\n";
        for (size_t i = 0; i < write_nets.size(); ++i) {
            const int net = write_nets[i];
            os << "    m |= uint64_t(";
            for (int wd = 0; wd < store.nwords(net); ++wd) {
                const int off = store.offset(net) + wd;
                os << (wd ? " | " : "") << "w[" << off << "] != o"
                   << word_local[off];
            }
            os << ") << " << std::min<size_t>(i, 63) << ";\n";
        }
        os << "    return m;\n}\n\n";
    }
    return os.str();
}

std::string
cppEmitProgram(const Elaboration &elab, const ArenaStore &store,
               const std::vector<CppUnit> &units)
{
    std::ostringstream os;
    emitPrelude(os, elab);

    const int nnets = static_cast<int>(elab.nets.size());
    for (size_t k = 0; k < units.size(); ++k) {
        os << "extern \"C\" void " << cppGroupSymbol(static_cast<int>(k))
           << "(uint64_t *w)\n{\n";

        // Bind every memory array this unit touches to a typed local
        // alias; the compiler then treats each array as a distinct C
        // array instead of re-deriving offsets into one giant buffer.
        std::vector<char> alias(elab.arrays.size(), 0);
        for (const CppUnit::Item &item : units[k].items) {
            if (item.block < 0)
                continue;
            const ElabBlock &blk = elab.blocks[item.block];
            for (int tok : blk.reads) {
                if (tok >= nnets)
                    alias[tok - nnets] = 1;
            }
            for (int tok : blk.writes) {
                if (tok >= nnets)
                    alias[tok - nnets] = 1;
            }
        }
        for (size_t id = 0; id < alias.size(); ++id) {
            if (!alias[id])
                continue;
            os << "    uint64_t *const a" << id << " = w + "
               << store.arrayOffset(static_cast<int>(id)) << "; // "
               << elab.arrays[id]->depth() << "x"
               << elab.arrays[id]->nbits() << "b\n";
        }

        for (const CppUnit::Item &item : units[k].items) {
            if (item.block >= 0) {
                const ElabBlock &blk = elab.blocks[item.block];
                os << "    { // " << blk.name << "\n";
                std::ostringstream body;
                BlockEmitter(blk, store, body, &alias).run(8);
                os << body.str() << "    }\n";
            } else {
                // Coalesced flop range: straight word copies, long
                // runs as a loop the compiler turns into memmove.
                int cur = item.rangeOff;
                int nxt = cur + store.wordsPerPhase();
                if (item.rangeWords <= 4) {
                    for (int wd = 0; wd < item.rangeWords; ++wd) {
                        os << "    w[" << cur + wd << "] = w["
                           << nxt + wd << "];\n";
                    }
                } else {
                    os << "    for (int i = 0; i < " << item.rangeWords
                       << "; ++i) w[" << cur << " + i] = w[" << nxt
                       << " + i];\n";
                }
            }
        }
        os << "}\n\n";
    }
    return os.str();
}

} // namespace cmtl
