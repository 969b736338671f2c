/**
 * @file
 * Small reference models shared by the core test suites — the models
 * of the paper's Figure 2 (Register, Mux, MuxReg) plus a counter.
 */

#ifndef CMTL_TESTS_CORE_TEST_MODELS_H
#define CMTL_TESTS_CORE_TEST_MODELS_H

#include <deque>
#include <ostream>
#include <string>
#include <vector>

#include "core/model.h"
#include "core/sim.h"

namespace cmtl {
namespace testmodels {

/** Paper Figure 2: a simple positive-edge register. */
class Register : public Model
{
  public:
    InPort in_;
    OutPort out;

    Register(Model *parent, const std::string &name, int nbits)
        : Model(parent, name), in_(this, "in_", nbits),
          out(this, "out", nbits)
    {
        auto &b = tickRtl("seq_logic");
        b.assign(out, rd(in_));
    }

    std::string
    typeName() const override
    {
        return "Register_" + std::to_string(in_.nbits());
    }
};

/** Paper Figure 2: an n-input mux built from an if-chain. */
class Mux : public Model
{
  public:
    std::deque<InPort> in_;
    InPort sel;
    OutPort out;

    Mux(Model *parent, const std::string &name, int nbits, int nports)
        : Model(parent, name), sel(this, "sel", bitsFor(nports)),
          out(this, "out", nbits)
    {
        for (int i = 0; i < nports; ++i)
            in_.emplace_back(this, "in_" + std::to_string(i), nbits);

        auto &b = combinational("comb_logic");
        IrExpr result = rd(in_[0]);
        for (int i = nports - 1; i >= 1; --i) {
            result = mux(rd(sel) == static_cast<uint64_t>(i), rd(in_[i]),
                         result);
        }
        b.assign(out, result);
    }

    std::string
    typeName() const override
    {
        return "Mux_" + std::to_string(out.nbits()) + "_" +
               std::to_string(in_.size());
    }
};

/** Paper Figure 2: mux feeding a register, composed structurally. */
class MuxReg : public Model
{
  public:
    std::deque<InPort> in_;
    InPort sel;
    OutPort out;
    Register reg_;
    Mux mux_;

    MuxReg(Model *parent, const std::string &name, int nbits = 8,
           int nports = 4)
        : Model(parent, name), sel(this, "sel", bitsFor(nports)),
          out(this, "out", nbits), reg_(this, "reg_", nbits),
          mux_(this, "mux", nbits, nports)
    {
        for (int i = 0; i < nports; ++i)
            in_.emplace_back(this, "in_" + std::to_string(i), nbits);

        connect(sel, mux_.sel);
        for (int i = 0; i < nports; ++i)
            connect(in_[i], mux_.in_[i]);
        connect(mux_.out, reg_.in_);
        connect(reg_.out, out);
    }

    std::string
    typeName() const override
    {
        return "MuxReg_" + std::to_string(out.nbits()) + "_" +
               std::to_string(in_.size());
    }
};

/** A resettable counter with enable, exercising reset + if/else. */
class Counter : public Model
{
  public:
    InPort en;
    OutPort count;

    Counter(Model *parent, const std::string &name, int nbits)
        : Model(parent, name), en(this, "en", 1),
          count(this, "count", nbits)
    {
        auto &b = tickRtl("seq");
        b.if_(rd(reset), [&] { b.assign(count, 0); },
              [&] {
                  b.if_(rd(en),
                        [&] { b.assign(count, rd(count) + 1); });
              });
    }
};

/**
 * The boxed and arena hosts, each bare, with bytecode and with
 * per-block C++: the configurations exercised by mode-matrix tests.
 */
inline std::vector<SimConfig>
allModes(bool include_cpp = true)
{
    std::vector<SimConfig> modes;
    for (Backend backend :
         {Backend::Interp, Backend::InterpBytecode, Backend::InterpCppBlock,
          Backend::OptInterp, Backend::Bytecode, Backend::CppBlock}) {
        const bool cpp = backend == Backend::InterpCppBlock ||
                         backend == Backend::CppBlock;
        if (cpp && (!include_cpp || !CppJit::compilerAvailable()))
            continue;
        SimConfig cfg;
        cfg.backend = backend;
        modes.push_back(cfg);
    }
    return modes;
}

/** True when @p cfg specializes IR blocks (not a bare interpreter). */
inline bool
specializes(const SimConfig &cfg)
{
    return cfg.backend != Backend::Interp &&
           cfg.backend != Backend::OptInterp;
}

/** gtest parameter name: host, then specializer, then scheduling
 *  ("Interp_Bytecode_Event", "OptInterp_Cpp", ...). */
inline std::string
modeName(const SimConfig &cfg)
{
    std::string out =
        backendBoxedHost(cfg.backend) ? "Interp" : "OptInterp";
    switch (cfg.backend) {
      case Backend::Interp:
      case Backend::OptInterp: break;
      case Backend::Bytecode:
      case Backend::InterpBytecode: out += "_Bytecode"; break;
      case Backend::CppBlock:
      case Backend::InterpCppBlock: out += "_Cpp"; break;
      case Backend::CppDesign: out += "_CppDesign"; break;
    }
    switch (cfg.sched) {
      case SchedMode::Auto: break;
      case SchedMode::Event: out += "_Event"; break;
      case SchedMode::Static: out += "_Static"; break;
    }
    return out;
}

} // namespace testmodels

/**
 * gtest value printer. Discovered ctest names end with the printed
 * parameter, and mode-matrix case names have always carried gtest's
 * raw byte dump of the config, which began with the host, specializer
 * and scheduling enums of the former 80-byte layout (host 0 = boxed,
 * 1 = arena; specializer 0 = none, 1 = bytecode, 2 = C++). Print that
 * leading label, minus the heap address the raw dump went on to embed,
 * then the backend string, so the case names stay stable.
 */
inline void
PrintTo(const SimConfig &cfg, std::ostream *os)
{
    int spec = 0;
    switch (cfg.backend) {
      case Backend::Interp:
      case Backend::OptInterp: spec = 0; break;
      case Backend::Bytecode:
      case Backend::InterpBytecode: spec = 1; break;
      case Backend::CppBlock:
      case Backend::InterpCppBlock:
      case Backend::CppDesign: spec = 2; break;
    }
    const int lead[4] = {backendBoxedHost(cfg.backend) ? 0 : 1, spec,
                         static_cast<int>(cfg.sched), 0};
    *os << "80-byte object <";
    for (int i = 0; i < 4; ++i)
        *os << (i ? " " : "") << "0" << lead[i] << "-00 00-00";
    *os << " ...> " << cfg.toString();
}

} // namespace cmtl

#endif // CMTL_TESTS_CORE_TEST_MODELS_H
