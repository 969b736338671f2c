/**
 * @file
 * SimFuzz differential runner: the backend matrix, straight-line runs
 * with stimulus replay, fault injection, VCD capture, per-cycle digest
 * comparison and bisection. See fuzz.h for the pipeline overview.
 */

#include "fuzz.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

#include "core/jit_cpp.h"
#include "core/layout.h"
#include "core/lint.h"
#include "core/partition.h"
#include "core/psim.h"
#include "core/race_audit.h"
#include "core/vcd.h"

namespace cmtl {
namespace fuzz {

// ----------------------------------------------------------- FuzzSide

SimConfig
FuzzSide::toSimConfig() const
{
    SimConfig cfg;
    try {
        cfg = SimConfig::fromString(backend);
        cfg.layout = layoutPolicyFromName(layout);
    } catch (const std::invalid_argument &e) {
        throw std::runtime_error(std::string("fuzz side: ") + e.what());
    }
    cfg.threads = threads;
    cfg.gating = gating;
    // Tiered cpp-design hot-swaps mid-run on compiler timing; force the
    // blocking compile so fuzz runs are scheduling-independent.
    cfg.jit_tiered = false;
    return cfg;
}

std::string
FuzzSide::str() const
{
    std::ostringstream os;
    os << backend << " t" << threads << " " << layout;
    if (!gating)
        os << " ungated";
    return os.str();
}

bool
FuzzSide::needsCompiler() const
{
    return backend.find("cpp") != std::string::npos;
}

// --------------------------------------------------------- fuzzMatrix

std::vector<FuzzSide>
fuzzMatrix(bool full)
{
    auto side = [](const char *backend, int threads, const char *layout,
                   bool gating = true) {
        FuzzSide s;
        s.backend = backend;
        s.threads = threads;
        s.layout = layout;
        s.gating = gating;
        return s;
    };
    std::vector<FuzzSide> m;
    // Interpreter family: every thread x layout corner plus one
    // gating-off point (gating must be value-invisible).
    m.push_back(side("optinterp", 1, "elab"));
    m.push_back(side("optinterp", 1, "profile"));
    m.push_back(side("optinterp", 4, "elab"));
    m.push_back(side("optinterp", 4, "profile"));
    m.push_back(side("bytecode", 1, "elab"));
    m.push_back(side("bytecode", 4, "profile"));
    m.push_back(side("optinterp", 1, "elab", false));
    if (!full)
        return m;
    m.push_back(side("bytecode", 1, "profile"));
    m.push_back(side("bytecode", 4, "elab"));
    m.push_back(side("cpp-block", 1, "elab"));
    m.push_back(side("cpp-block", 1, "profile"));
    m.push_back(side("cpp-block", 4, "elab"));
    m.push_back(side("cpp-block", 4, "profile"));
    m.push_back(side("cpp-design", 1, "elab"));
    m.push_back(side("cpp-design", 1, "profile"));
    m.push_back(side("cpp-design", 4, "elab"));
    m.push_back(side("cpp-design", 4, "profile"));
    // Boxed hybrids are sequential-only (ParSim needs the arena).
    m.push_back(side("interp+bytecode", 1, "elab"));
    m.push_back(side("interp+cpp-block", 1, "elab"));
    m.push_back(side("optinterp", 4, "profile", false));
    return m;
}

// ------------------------------------------------------ run machinery

namespace {

/** Unique scratch path for a VCD capture (parallel-test safe). */
std::string
tmpVcdPath()
{
    static std::atomic<unsigned> counter{0};
    std::ostringstream os;
    os << "cmtl_fuzz_" << ::getpid() << "_" << counter++ << ".vcd";
    return os.str();
}

std::string
readAndRemove(const std::string &path)
{
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream ss;
        ss << in.rdbuf();
        bytes = ss.str();
    }
    std::remove(path.c_str());
    return bytes;
}

/**
 * Register the injected-fault hook: at the end of spec.fault.cycle,
 * flip one bit of one net. Registered before any VcdWriter so the
 * waveform records the post-fault value, and a pure function of the
 * hook's cycle argument so bisector-restored probes replay it.
 */
void
attachFault(Simulator &sim, const FuzzSpec &spec, const Elaboration &elab)
{
    if (!spec.fault.active || elab.nets.empty())
        return;
    int nnets = static_cast<int>(elab.nets.size());
    int net = ((spec.fault.net_ordinal % nnets) + nnets) % nnets;
    int nbits = elab.nets[net].nbits;
    int bit = ((spec.fault.bit % nbits) + nbits) % nbits;
    uint64_t at = spec.fault.cycle;
    Simulator *s = &sim;
    sim.onCycleEnd([s, net, bit, at](uint64_t cycle) {
        if (cycle != at)
            return;
        Bits v = s->readNet(net);
        bool cur = (v.word(bit / 64) >> (bit % 64)) & 1;
        v.setBit(bit, !cur);
        s->pokeNet(net, v);
    });
}

/** One straight-line run of a side: final digest + VCD bytes. */
struct SideRun
{
    uint64_t digest = 0;
    std::string vcd;
};

SideRun
runSide(const FuzzSpec &spec, const FuzzSide &side, bool apply_fault)
{
    auto top = std::make_shared<FuzzDesign>(spec);
    auto elab = top->elaborate();
    auto sim = makeSimulator(elab, side.toSimConfig());
    if (apply_fault)
        attachFault(*sim, spec, *elab);
    StimTape tape = makeFuzzStim(spec);
    std::string vcd_path = tmpVcdPath();
    SideRun out;
    {
        VcdWriter vcd(*sim, vcd_path);
        while (sim->numCycles() < spec.cycles) {
            tape.applyTo(*sim);
            sim->cycle();
        }
        out.digest = stateDigest(*sim);
        vcd.close();
    }
    out.vcd = readAndRemove(vcd_path);
    return out;
}

} // namespace

// --------------------------------------------------------- FuzzRunner

FuzzRunner::PairOutcome
FuzzRunner::comparePair(const FuzzSpec &spec)
{
    auto top_a = std::make_shared<FuzzDesign>(spec);
    auto elab_a = top_a->elaborate();
    auto sim_a = makeSimulator(elab_a, spec.side_a.toSimConfig());
    auto top_b = std::make_shared<FuzzDesign>(spec);
    auto elab_b = top_b->elaborate();
    auto sim_b = makeSimulator(elab_b, spec.side_b.toSimConfig());
    attachFault(*sim_b, spec, *elab_b);

    StimTape tape_a = makeFuzzStim(spec);
    StimTape tape_b = makeFuzzStim(spec);
    std::string path_a = tmpVcdPath();
    std::string path_b = tmpVcdPath();
    PairOutcome out;
    {
        VcdWriter vcd_a(*sim_a, path_a);
        VcdWriter vcd_b(*sim_b, path_b);
        // Lockstep with a digest checkpoint after every cycle: the
        // shrinker's predicate must catch divergences that wash out of
        // the final state.
        for (uint64_t c = 0; c < spec.cycles && !out.diverged; ++c) {
            tape_a.applyTo(*sim_a);
            sim_a->cycle();
            tape_b.applyTo(*sim_b);
            sim_b->cycle();
            if (stateDigest(*sim_a) != stateDigest(*sim_b)) {
                out.diverged = true;
                out.first_cycle = c;
            }
        }
        vcd_a.close();
        vcd_b.close();
    }
    std::string bytes_a = readAndRemove(path_a);
    std::string bytes_b = readAndRemove(path_b);
    if (!out.diverged && bytes_a != bytes_b) {
        out.diverged = true;
        out.vcd_only = true;
    }
    return out;
}

DivergenceReport
FuzzRunner::bisectPair(const FuzzSpec &spec)
{
    // The bisector builds fresh simulator pairs while it searches; the
    // Elaborations reference their FuzzDesign models by raw pointer, so
    // every model built by a factory is kept alive for the whole run.
    auto keep =
        std::make_shared<std::vector<std::shared_ptr<FuzzDesign>>>();
    auto factory = [keep, spec](const FuzzSide &side, bool fault) {
        return [keep, spec, side, fault]() -> std::unique_ptr<Simulator> {
            auto top = std::make_shared<FuzzDesign>(spec);
            keep->push_back(top);
            auto elab = top->elaborate();
            auto sim = makeSimulator(elab, side.toSimConfig());
            if (fault)
                attachFault(*sim, spec, *elab);
            return sim;
        };
    };
    DivergenceBisector bis(factory(spec.side_a, false),
                           factory(spec.side_b, spec.fault.active));
    auto tape = std::make_shared<StimTape>(makeFuzzStim(spec));
    bis.setStimulus([tape](Simulator &sim) { tape->applyTo(sim); });

    auto top = std::make_shared<FuzzDesign>(spec);
    auto elab = top->elaborate();
    auto ref = makeSimulator(elab, spec.side_a.toSimConfig());
    SimSnapshot start = snapSave(*ref);
    return bis.run(start, spec.cycles);
}

FuzzCaseResult
FuzzRunner::runCase(const FuzzSpec &spec,
                    const std::vector<FuzzSide> &matrix)
{
    FuzzCaseResult res;
    res.seed = spec.seed;

    auto top = std::make_shared<FuzzDesign>(spec);
    auto elab = top->elaborate();
    res.fingerprint = designFingerprint(*elab);
    res.nets = static_cast<int>(elab->nets.size());
    res.blocks = static_cast<int>(elab->blocks.size());

    // Every generated design must be lint-error-free (warnings —
    // undriven stim ports, masked logic — are expected) and pass the
    // static race audit at representative island counts.
    LintTool lint;
    for (const LintIssue &issue : lint.run(*elab)) {
        if (issue.severity != LintSeverity::Error)
            continue;
        res.lint_errors.push_back(issue.check + " @ " + issue.path +
                                  ": " + issue.message);
    }
    for (int nislands : {2, 4}) {
        RaceAuditReport audit =
            auditPartition(*elab, partitionDesign(*elab, nislands));
        if (!audit.ok())
            res.audit_errors.push_back(std::to_string(nislands) +
                                       " islands: " + audit.summary());
    }

    // A kernel exception fails this case, not the sweep: a throwing
    // reference marks the case bad, a throwing candidate diverges.
    SideRun ref;
    try {
        ref = runSide(spec, spec.side_a, /*apply_fault=*/false);
    } catch (const std::exception &e) {
        res.ref_error = e.what();
        return res;
    }
    res.ref_digest = ref.digest;

    bool have_compiler = CppJit::compilerAvailable();
    for (const FuzzSide &side : matrix) {
        if (side.needsCompiler() && !have_compiler) {
            ++res.matrix_skipped;
            continue;
        }
        ++res.matrix_run;
        SideRun run;
        try {
            run = runSide(spec, side, spec.fault.active);
        } catch (const std::exception &e) {
            FuzzDivergence d;
            d.side = side;
            d.threw = true;
            d.detail = std::string("threw: ") + e.what();
            res.divergences.push_back(std::move(d));
            continue;
        }
        if (run.digest != ref.digest) {
            FuzzSpec pair = spec;
            pair.side_b = side;
            DivergenceReport rep = bisectPair(pair);
            FuzzDivergence d;
            d.side = side;
            d.first_cycle = rep.first_divergent_cycle;
            d.nets = rep.divergent_nets;
            d.detail = rep.summary();
            res.divergences.push_back(std::move(d));
        } else if (run.vcd != ref.vcd) {
            size_t n = std::min(run.vcd.size(), ref.vcd.size());
            size_t at = n;
            for (size_t i = 0; i < n; ++i) {
                if (run.vcd[i] != ref.vcd[i]) {
                    at = i;
                    break;
                }
            }
            FuzzDivergence d;
            d.side = side;
            d.vcd_only = true;
            d.vcd_byte = at;
            std::ostringstream os;
            os << "VCD bytes differ at offset " << at << " ("
               << ref.vcd.size() << " vs " << run.vcd.size()
               << " bytes) with identical final state digests";
            d.detail = os.str();
            res.divergences.push_back(std::move(d));
        }
    }
    return res;
}

bool
FuzzRunner::replay(const FuzzSpec &spec, PairOutcome *outcome)
{
    PairOutcome po = comparePair(spec);
    if (outcome)
        *outcome = po;
    if (spec.expect < 0)
        return true;
    return (spec.expect == 1) == po.diverged;
}

// ----------------------------------------------------- FuzzCaseResult

std::string
FuzzCaseResult::summary() const
{
    std::ostringstream os;
    char fp[32];
    std::snprintf(fp, sizeof fp, "%016llx",
                  static_cast<unsigned long long>(fingerprint));
    os << "seed " << seed << ": fp " << fp << ", " << nets << " nets, "
       << blocks << " blocks, matrix " << matrix_run << " run / "
       << matrix_skipped << " skipped";
    if (ok()) {
        os << ", OK";
        return os.str();
    }
    if (!lint_errors.empty())
        os << ", " << lint_errors.size() << " lint error(s)";
    if (!audit_errors.empty())
        os << ", " << audit_errors.size() << " race-audit error(s)";
    if (!ref_error.empty())
        os << ", reference threw";
    for (const FuzzDivergence &d : divergences) {
        os << ", DIVERGED [" << d.side.str() << "] ";
        if (d.threw)
            os << "threw";
        else if (d.vcd_only)
            os << "vcd byte " << d.vcd_byte;
        else
            os << "cycle " << d.first_cycle;
    }
    return os.str();
}

} // namespace fuzz
} // namespace cmtl
