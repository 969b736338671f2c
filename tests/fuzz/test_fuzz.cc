/**
 * @file
 * SimFuzz tests: generator determinism, the mask-invariance property
 * the shrinker depends on, the spec codec, end-to-end fault detection
 * with shrinker convergence, and replay of the checked-in corpus.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/jit_cpp.h"
#include "core/lint.h"
#include "core/snap.h"
#include "fuzz/fuzz.h"

using namespace cmtl;
using namespace cmtl::fuzz;

namespace {

std::string
corpusDir()
{
    return std::string(CMTL_TEST_DATA_DIR) + "/fuzz_corpus";
}

uint64_t
fingerprintOf(const FuzzSpec &spec)
{
    FuzzDesign top(spec);
    return designFingerprint(*top.elaborate());
}

} // namespace

TEST(FuzzGen, SameSeedSameFingerprint)
{
    for (uint64_t seed : {1ull, 7ull, 123456789ull}) {
        FuzzSpec spec;
        spec.seed = seed;
        EXPECT_EQ(fingerprintOf(spec), fingerprintOf(spec))
            << "seed " << seed;
    }
}

TEST(FuzzGen, DifferentSeedsDifferentDesigns)
{
    FuzzSpec a, b;
    a.seed = 1;
    b.seed = 2;
    EXPECT_NE(fingerprintOf(a), fingerprintOf(b));
}

// The property the shrinker stands on: disable masks omit logic, never
// declarations, so the fingerprint (net names/widths/flop classes) is
// mask-invariant and StimTape bindings stay valid while pruning.
TEST(FuzzGen, MasksPreserveFingerprint)
{
    FuzzSpec base;
    base.seed = 11;
    FuzzCounts counts = fuzzCounts(base.seed);
    ASSERT_GT(counts.comb, 0);
    ASSERT_GT(counts.tick, 0);
    ASSERT_GT(counts.stim, 0);

    FuzzSpec masked = base;
    masked.comb_off.push_back(0);
    masked.tick_off.push_back(counts.tick - 1);
    masked.stim_off.push_back(0);
    EXPECT_EQ(fingerprintOf(base), fingerprintOf(masked));
}

TEST(FuzzGen, GeneratedDesignIsLintErrorFree)
{
    for (uint64_t seed : {1ull, 2ull, 3ull, 17ull, 99ull}) {
        FuzzSpec spec;
        spec.seed = seed;
        FuzzDesign top(spec);
        auto elab = top.elaborate();
        LintTool lint;
        for (const LintIssue &issue : lint.run(*elab))
            EXPECT_NE(issue.severity, LintSeverity::Error)
                << "seed " << seed << ": " << issue.check << " @ "
                << issue.path << ": " << issue.message;
    }
}

TEST(FuzzGen, StimulusIsDeterministicAndMaskable)
{
    FuzzSpec spec;
    spec.seed = 21;
    spec.cycles = 64;
    EXPECT_EQ(makeFuzzStim(spec).encode(), makeFuzzStim(spec).encode());

    FuzzSpec masked = spec;
    masked.stim_off.push_back(0);
    EXPECT_NE(makeFuzzStim(spec).encode(),
              makeFuzzStim(masked).encode());
    EXPECT_EQ(makeFuzzStim(spec).numChannels(),
              makeFuzzStim(masked).numChannels());
}

TEST(FuzzSpecCodec, RoundTrip)
{
    FuzzSpec spec;
    spec.seed = 77;
    spec.cycles = 123;
    spec.comb_off = {0, 2};
    spec.tick_off = {1};
    spec.stim_off = {0};
    spec.side_b.backend = "bytecode";
    spec.side_b.threads = 4;
    spec.side_b.layout = "profile";
    spec.side_b.gating = false;
    spec.fault.active = true;
    spec.fault.cycle = 55;
    spec.fault.net_ordinal = 3;
    spec.fault.bit = 9;
    spec.expect = 1;

    FuzzSpec back = FuzzSpec::decodeText(spec.encodeText());
    EXPECT_EQ(back.encodeText(), spec.encodeText());
    EXPECT_EQ(back.seed, spec.seed);
    EXPECT_EQ(back.cycles, spec.cycles);
    EXPECT_EQ(back.comb_off, spec.comb_off);
    EXPECT_EQ(back.tick_off, spec.tick_off);
    EXPECT_EQ(back.stim_off, spec.stim_off);
    EXPECT_EQ(back.side_b.backend, "bytecode");
    EXPECT_EQ(back.side_b.threads, 4);
    EXPECT_FALSE(back.side_b.gating);
    EXPECT_TRUE(back.fault.active);
    EXPECT_EQ(back.fault.cycle, 55u);
    EXPECT_EQ(back.expect, 1);
}

TEST(FuzzSpecCodec, RejectsGarbage)
{
    EXPECT_THROW(FuzzSpec::decodeText("not a repro"),
                 std::runtime_error);
    EXPECT_THROW(FuzzSpec::decodeText("CMTLFUZZ v1\nbogus_key 1\n"),
                 std::runtime_error);
    EXPECT_THROW(FuzzSpec::loadFile("/nonexistent/repro.fuzz"),
                 std::runtime_error);
}

TEST(FuzzDiff, CleanSeedsAgreeAcrossQuickMatrix)
{
    FuzzRunner runner;
    std::vector<FuzzSide> matrix = fuzzMatrix(false);
    for (uint64_t seed : {1ull, 2ull}) {
        FuzzSpec spec;
        spec.seed = seed;
        spec.cycles = 80;
        FuzzCaseResult res = runner.runCase(spec, matrix);
        EXPECT_TRUE(res.ok()) << res.summary();
        EXPECT_GT(res.matrix_run, 0);
    }
}

// A kernel exception fails its case, not the sweep. ParSim rejects a
// boxed-host backend at construction, so {interp, threads 4} throws
// from makeSimulator on any design.
TEST(FuzzDiff, ThrowingCandidateDivergesAndSweepContinues)
{
    FuzzSide throws;
    throws.backend = "interp";
    throws.threads = 4;
    FuzzSide after;
    after.backend = "optinterp";
    FuzzSpec spec;
    spec.seed = 3;
    spec.cycles = 40;
    FuzzRunner runner;
    FuzzCaseResult res = runner.runCase(spec, {throws, after});
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.matrix_run, 2) << "the side after the throw must run";
    EXPECT_TRUE(res.ref_error.empty());
    ASSERT_EQ(res.divergences.size(), 1u) << res.summary();
    const FuzzDivergence &d = res.divergences[0];
    EXPECT_TRUE(d.threw);
    EXPECT_EQ(d.side.str(), throws.str());
    EXPECT_EQ(d.detail.rfind("threw: ParSim requires an arena-hosted "
                             "backend",
                             0),
              0u)
        << d.detail;
    EXPECT_NE(res.summary().find("DIVERGED [interp t4 elab] threw"),
              std::string::npos)
        << res.summary();
}

TEST(FuzzDiff, ThrowingReferenceMarksCaseBad)
{
    FuzzSpec spec;
    spec.seed = 3;
    spec.cycles = 40;
    spec.side_a.backend = "interp";
    spec.side_a.threads = 4;
    FuzzSide cand;
    cand.backend = "optinterp";
    FuzzRunner runner;
    FuzzCaseResult res = runner.runCase(spec, {cand});
    EXPECT_FALSE(res.ok());
    EXPECT_NE(res.ref_error.find("ParSim requires an arena-hosted backend"),
              std::string::npos)
        << res.ref_error;
    EXPECT_TRUE(res.divergences.empty());
    EXPECT_EQ(res.matrix_run, 0) << "nothing to compare candidates with";
    EXPECT_NE(res.summary().find("reference threw"), std::string::npos);
}

// The acceptance criterion: an intentionally injected backend bug is
// caught by the differential runner and auto-minimized by the shrinker
// into a spec that still replays as a divergence.
TEST(FuzzShrink, InjectedFaultIsCaughtAndMinimized)
{
    FuzzSpec spec;
    spec.seed = 42;
    spec.cycles = 80;
    spec.side_b.backend = "optinterp";
    spec.fault.active = true;
    spec.fault.cycle = 30;
    spec.fault.net_ordinal = 5;
    spec.fault.bit = 2;

    FuzzRunner runner;
    FuzzRunner::PairOutcome outcome = runner.comparePair(spec);
    ASSERT_TRUE(outcome.diverged);

    FuzzShrinker shrinker(runner);
    FuzzShrinkResult sr = shrinker.shrink(spec);
    EXPECT_LE(sr.spec.cycles, spec.cycles);
    EXPECT_GT(sr.removed, 0);
    EXPECT_GE(sr.tried, sr.removed);
    EXPECT_EQ(sr.spec.expect, 1);

    // The minimized spec must reproduce standalone, and replay() must
    // agree with the recorded expectation — including after a codec
    // round trip (what the corpus files go through).
    EXPECT_TRUE(runner.replay(sr.spec));
    FuzzSpec reloaded = FuzzSpec::decodeText(sr.spec.encodeText());
    FuzzRunner::PairOutcome replayed;
    EXPECT_TRUE(runner.replay(reloaded, &replayed));
    EXPECT_TRUE(replayed.diverged);
}

TEST(FuzzShrink, RefusesAgreeingSpec)
{
    FuzzSpec spec;
    spec.seed = 1;
    spec.cycles = 40;
    FuzzRunner runner;
    FuzzShrinker shrinker(runner);
    EXPECT_THROW(shrinker.shrink(spec), std::runtime_error);
}

TEST(FuzzCorpus, ReplayAll)
{
    bool have_compiler = CppJit::compilerAvailable();
    int replayed = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(corpusDir())) {
        if (entry.path().extension() != ".fuzz")
            continue;
        FuzzSpec spec = FuzzSpec::loadFile(entry.path().string());
        if ((spec.side_a.needsCompiler() ||
             spec.side_b.needsCompiler()) &&
            !have_compiler)
            continue;
        FuzzRunner runner;
        FuzzRunner::PairOutcome outcome;
        EXPECT_TRUE(runner.replay(spec, &outcome))
            << entry.path().filename() << ": expectation "
            << (spec.expect == 1 ? "diverge" : "agree")
            << " not met (diverged=" << outcome.diverged << ")";
        ++replayed;
    }
    EXPECT_GE(replayed, 5) << "corpus went missing from "
                           << corpusDir();
}

// Every agreement case in the corpus must also hold across the *full*
// differential matrix (compiled backends included when available), not
// just the pair recorded in the file.
TEST(FuzzCorpus, AgreeCasesSurviveFullMatrix)
{
    FuzzRunner runner;
    std::vector<FuzzSide> matrix = fuzzMatrix(true);
    for (const auto &entry :
         std::filesystem::directory_iterator(corpusDir())) {
        if (entry.path().extension() != ".fuzz")
            continue;
        FuzzSpec spec = FuzzSpec::loadFile(entry.path().string());
        if (spec.expect != 0)
            continue;
        FuzzCaseResult res = runner.runCase(spec, matrix);
        EXPECT_TRUE(res.ok())
            << entry.path().filename() << ": " << res.summary();
    }
}
