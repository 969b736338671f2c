/**
 * SimSnap: checkpoint/restore, record-replay and divergence bisection.
 *
 * The contract under test: a snapshot taken under one backend restores
 * into a fresh elaboration under *every* backend and thread count with
 * bit-identical state and a byte-identical VCD continuation; the
 * encoded image is versioned, checksummed and little-endian stable
 * (golden file in tests/data/); every malformed input fails with a
 * SnapError diagnostic, never a crash or garbage state; the
 * CheckpointManager rotates atomically; a StimTape replays recorded
 * stimulus deterministically; and the DivergenceBisector pinpoints the
 * exact first divergent cycle and the signal paths that differ there.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/psim.h"
#include "core/sim.h"
#include "core/snap.h"
#include "core/vcd.h"
#include "net/traffic.h"
#include "test_models.h"

#ifndef CMTL_TEST_DATA_DIR
#define CMTL_TEST_DATA_DIR "tests/data"
#endif

namespace cmtl {
namespace {

using net::MeshTrafficTop;
using net::NetLevel;

bool
needsCompiler(const std::string &backend)
{
    return backend.find("cpp") != std::string::npos;
}

std::vector<std::string>
allBackends()
{
    return {"interp",     "optinterp",       "bytecode",
            "cpp-block",  "cpp-design",      "interp+bytecode",
            "interp+cpp-block"};
}

SimConfig
backendCfg(const std::string &backend, int threads)
{
    SimConfig cfg = SimConfig::fromString(backend);
    cfg.threads = threads;
    return cfg;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Everything after the first "#t" line with t > @p after_time. */
std::string
vcdTail(const std::string &vcd, uint64_t after_time)
{
    std::istringstream in(vcd);
    std::string line, out;
    bool tail = false;
    while (std::getline(in, line)) {
        if (!tail && line.size() > 1 && line[0] == '#') {
            char *end = nullptr;
            uint64_t t = std::strtoull(line.c_str() + 1, &end, 10);
            if (end && *end == '\0' && t > after_time)
                tail = true;
        }
        if (tail)
            out += line + "\n";
    }
    return out;
}

void
expectSameState(Simulator &a, Simulator &b, const std::string &ctx)
{
    for (const Net &net : a.elaboration().nets) {
        ASSERT_EQ(a.readNet(net.id), b.readNet(net.id))
            << ctx << ": net " << net.name << " diverged at cycle "
            << a.numCycles();
    }
}

// ------------------------------------------------- writer/reader/crc

TEST(SnapIo, WriterReaderRoundTrip)
{
    SnapWriter w;
    w.u8(0xab);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefull);
    w.str("hierarchical.name");
    w.bits(Bits::fromWords(96, {0x1111222233334444ull, 0xffffffffull}));
    std::string buf = w.take();

    SnapReader r(buf);
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.str(), "hierarchical.name");
    Bits b = r.bits();
    EXPECT_EQ(b.nbits(), 96);
    EXPECT_EQ(b.word(0), 0x1111222233334444ull);
    EXPECT_EQ(b.word(1), 0xffffffffull);
    EXPECT_TRUE(r.atEnd());
}

TEST(SnapIo, LittleEndianOnTheWire)
{
    SnapWriter w;
    w.u32(0x04030201u);
    w.u64(0x0807060504030201ull);
    const std::string &buf = w.buffer();
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(static_cast<uint8_t>(buf[i]), i + 1) << i;
    for (size_t i = 0; i < 8; ++i)
        EXPECT_EQ(static_cast<uint8_t>(buf[4 + i]), i + 1) << i;
}

TEST(SnapIo, TruncatedReadThrows)
{
    SnapWriter w;
    w.u32(7);
    SnapReader r(w.buffer());
    EXPECT_THROW(r.u64(), SnapError);
}

TEST(SnapIo, Crc32MatchesKnownVector)
{
    // CRC-32 of "123456789" is the classic check value.
    EXPECT_EQ(snapCrc32("123456789", 9), 0xcbf43926u);
}

// ------------------------------------- cross-backend restore matrix

class SnapBackendMatrix
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{
  protected:
    void
    SetUp() override
    {
        auto [backend, threads] = GetParam();
        if (needsCompiler(backend) && !CppJit::compilerAvailable())
            GTEST_SKIP() << "no host compiler";
        if (threads > 1 &&
            backendBoxedHost(backendCfg(backend, threads).backend))
            GTEST_SKIP() << "boxed backends are sequential-only";
    }
};

/**
 * The headline acceptance test: snapshot an RTL mesh mid-run under the
 * boxed reference interpreter, restore under the parameterized backend
 * and thread count, and demand bit-identical state and a byte-identical
 * VCD continuation at the end of the run.
 */
TEST_P(SnapBackendMatrix, InterpSnapshotResumesBitIdentical)
{
    auto [backend, threads] = GetParam();
    const int nrouters = 16;
    const uint64_t snap_cycle = 60, end_cycle = 140;
    auto makeTop = [&] {
        return std::make_unique<MeshTrafficTop>("top", NetLevel::RTL,
                                                nrouters, 4, 0.3, 11);
    };
    const std::string tag =
        backend + "_t" + std::to_string(threads) + "_" +
        std::to_string(::getpid());
    const std::string full_path =
        ::testing::TempDir() + "snap_full_" + tag + ".vcd";
    const std::string tail_path =
        ::testing::TempDir() + "snap_tail_" + tag + ".vcd";

    // Uninterrupted reference run with a full waveform.
    auto gt = makeTop();
    auto golden = makeSimulator(gt->elaborate(), backendCfg("interp", 1));
    SimSnapshot snap;
    {
        VcdWriter vcd(*golden, full_path);
        golden->reset();
        while (golden->numCycles() < snap_cycle)
            golden->cycle();
        snap = snapSave(*golden);
        golden->cycle(end_cycle - snap_cycle);
        vcd.close();
    }
    EXPECT_EQ(snap.cycle, snap_cycle);

    // Encode/decode round-trip before restoring: the file image, not
    // the in-memory struct, is what a resumed process would see.
    SimSnapshot decoded = SimSnapshot::decode(snap.encode());
    EXPECT_EQ(decoded.digest(), snap.digest());

    auto tt = makeTop();
    auto sim = makeSimulator(tt->elaborate(),
                             backendCfg(backend, threads));
    snapRestore(*sim, decoded);
    EXPECT_EQ(sim->numCycles(), snap_cycle);
    // Restore is idempotent state: re-capturing immediately must give
    // the same digest the snapshot carries.
    EXPECT_EQ(stateDigest(*sim), snap.digest());
    {
        VcdWriter vcd(*sim, tail_path);
        sim->cycle(end_cycle - snap_cycle);
        vcd.close();
    }

    std::string ctx = backend + " threads=" + std::to_string(threads);
    EXPECT_EQ(sim->numCycles(), golden->numCycles());
    expectSameState(*golden, *sim, ctx);
    EXPECT_EQ(stateDigest(*sim), stateDigest(*golden)) << ctx;

    std::string full_tail =
        vcdTail(slurp(full_path), snap_cycle * 10);
    std::string resumed_tail =
        vcdTail(slurp(tail_path), snap_cycle * 10);
    ASSERT_FALSE(full_tail.empty());
    EXPECT_EQ(full_tail, resumed_tail)
        << "VCD continuation differs: " << ctx;
    std::remove(full_path.c_str());
    std::remove(tail_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, SnapBackendMatrix,
    ::testing::Combine(::testing::ValuesIn(allBackends()),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>> &i) {
        std::string name = std::get<0>(i.param) + "_t" +
                           std::to_string(std::get<1>(i.param));
        for (char &c : name) {
            if (c == '-' || c == '+')
                c = '_';
        }
        return name;
    });

// ------------------------------------------- storage layout fixture

/**
 * Deterministic layout fixture covering every storage class the format
 * serializes: a narrow register, a 96-bit (multi-word) register and a
 * MemArray, all host-driven so runs are reproducible bit for bit.
 */
class SnapFixture : public Model
{
  public:
    InPort en;
    OutPort count;
    InPort wide_in;
    OutPort wide_out;
    InPort waddr, wdata, wen;
    MemArray mem;

    SnapFixture()
        : Model(nullptr, "fix"), en(this, "en", 1),
          count(this, "count", 16), wide_in(this, "wide_in", 96),
          wide_out(this, "wide_out", 96), waddr(this, "waddr", 3),
          wdata(this, "wdata", 48), wen(this, "wen", 1),
          mem(this, "mem", 48, 8)
    {
        auto &c = tickRtl("count_up");
        c.if_(rd(reset), [&] { c.assign(count, 0); },
              [&] {
                  c.if_(rd(en),
                        [&] { c.assign(count, rd(count) + 1); });
              });
        auto &w = tickRtl("wide_reg");
        w.assign(wide_out, rd(wide_in));
        auto &m = tickRtl("write_port");
        m.if_(rd(wen),
              [&] { m.writeArray(mem, rd(waddr), rd(wdata)); });
    }
};

/** Drive the fixture through a fixed deterministic stimulus. */
void
driveFixture(SnapFixture &fix, Simulator &sim, int cycles)
{
    fix.en.setValue(uint64_t(1));
    fix.wen.setValue(uint64_t(1));
    for (int i = 0; i < cycles; ++i) {
        fix.wide_in.setValue(Bits::fromWords(
            96, {0x1111111111111111ull * (i + 1), uint64_t(i) << 8}));
        fix.waddr.setValue(uint64_t(i) & 7);
        fix.wdata.setValue(uint64_t(0xbeef0000) + i);
        sim.cycle();
    }
}

TEST(SnapLayout, WideNetsAndArraysRoundTrip)
{
    SnapFixture fix;
    auto elab = fix.elaborate();
    SimulationTool sim(elab, backendCfg("optinterp", 1));
    sim.reset();
    driveFixture(fix, sim, 10);

    SimSnapshot snap = snapSave(sim);
    // Every MemArray element occupies bitsToWords(nbits) arena words.
    ASSERT_EQ(snap.arrays.size(), 1u);
    EXPECT_EQ(snap.array_elem_words[0],
              static_cast<uint32_t>(bitsToWords(48)));
    EXPECT_EQ(snap.arrays[0].size(), 8u * bitsToWords(48));

    SimSnapshot decoded = SimSnapshot::decode(snap.encode());
    EXPECT_EQ(decoded.digest(), snap.digest());

    SnapFixture fix2;
    auto elab2 = fix2.elaborate();
    SimulationTool sim2(elab2, backendCfg("interp", 1));
    snapRestore(sim2, decoded);

    EXPECT_EQ(sim2.numCycles(), sim.numCycles());
    expectSameState(sim, sim2, "layout round-trip");
    // The 96-bit register must survive with both words intact.
    Bits wide = fix2.wide_out.value();
    EXPECT_EQ(wide.word(0), 0x1111111111111111ull * 10);
    EXPECT_EQ(wide.word(1), uint64_t(9) << 8);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(sim2.readArray(fix2.mem, i).toUint64(),
                  sim.readArray(fix.mem, i).toUint64())
            << "element " << i;
    }

    // The restored simulator keeps simulating correctly.
    driveFixture(fix, sim, 5);
    driveFixture(fix2, sim2, 5);
    expectSameState(sim, sim2, "post-restore continuation");
}

// ----------------------------------------------- golden byte layout

/**
 * Byte-for-byte golden image: the encoded snapshot of a fixed fixture
 * run must never change within a format version. If this fails after
 * an intentional layout change, bump kSnapFormatVersion in
 * src/core/snap.h and regenerate with CMTL_REGEN_GOLDEN=1.
 */
TEST(SnapGolden, EncodedImageMatchesCheckedInBytes)
{
    const std::string golden_path =
        std::string(CMTL_TEST_DATA_DIR) + "/golden_snap_v" +
        std::to_string(kSnapFormatVersion) + ".bin";

    SnapFixture fix;
    auto elab = fix.elaborate();
    SimulationTool sim(elab, backendCfg("interp", 1));
    sim.reset();
    driveFixture(fix, sim, 7);
    std::string image = snapSave(sim).encode();

    if (std::getenv("CMTL_REGEN_GOLDEN")) {
        std::ofstream out(golden_path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
        out.write(image.data(),
                  static_cast<std::streamsize>(image.size()));
        out.close();
        GTEST_SKIP() << "regenerated " << golden_path;
    }

    std::string golden = slurp(golden_path);
    ASSERT_FALSE(golden.empty())
        << "missing golden file " << golden_path
        << "; generate it with CMTL_REGEN_GOLDEN=1";
    EXPECT_EQ(image.size(), golden.size())
        << "snapshot byte layout changed: bump kSnapFormatVersion in "
           "src/core/snap.h and regenerate with CMTL_REGEN_GOLDEN=1";
    EXPECT_TRUE(image == golden)
        << "snapshot byte layout changed: bump kSnapFormatVersion in "
           "src/core/snap.h and regenerate with CMTL_REGEN_GOLDEN=1";
}

/**
 * Backward compatibility: a version-1 image (written before the
 * layout-aware format bump added the optional LAYT section) must
 * still decode and restore. The v1 golden was produced by the same
 * fixture run as the current golden, so the restored state must match
 * a fresh drive exactly.
 */
TEST(SnapGolden, Version1ImageStillDecodesAndRestores)
{
    const std::string v1_path =
        std::string(CMTL_TEST_DATA_DIR) + "/golden_snap_v1.bin";
    std::string image = slurp(v1_path);
    ASSERT_FALSE(image.empty()) << "missing golden file " << v1_path;

    SimSnapshot snap = SimSnapshot::decode(image);
    EXPECT_TRUE(snap.layout_policy.empty())
        << "a v1 image cannot carry a LAYT section";

    SnapFixture fix;
    auto elab = fix.elaborate();
    SimulationTool sim(elab, backendCfg("interp", 1));
    snapRestore(sim, snap);

    SnapFixture fix2;
    auto elab2 = fix2.elaborate();
    SimulationTool ref(elab2, backendCfg("interp", 1));
    ref.reset();
    driveFixture(fix2, ref, 7);

    EXPECT_EQ(sim.numCycles(), ref.numCycles());
    expectSameState(ref, sim, "v1 golden restore");
    EXPECT_EQ(snap.digest(), snapSave(ref).digest());
}

// ------------------------------------------------- failure handling

class SnapFailures : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        fix_ = std::make_unique<SnapFixture>();
        elab_ = fix_->elaborate();
        sim_ = std::make_unique<SimulationTool>(elab_,
                                                backendCfg("interp", 1));
        sim_->reset();
        driveFixture(*fix_, *sim_, 4);
        image_ = snapSave(*sim_).encode();
    }

    std::string
    errorOf(const std::string &bytes)
    {
        try {
            SimSnapshot::decode(bytes);
        } catch (const SnapError &e) {
            return e.what();
        }
        return "";
    }

    std::unique_ptr<SnapFixture> fix_;
    std::shared_ptr<Elaboration> elab_;
    std::unique_ptr<SimulationTool> sim_;
    std::string image_;
};

TEST_F(SnapFailures, BadMagicIsDiagnosed)
{
    std::string bad = image_;
    bad[0] = 'X';
    EXPECT_NE(errorOf(bad).find("bad magic"), std::string::npos);
    EXPECT_NE(errorOf("short"), "");
}

TEST_F(SnapFailures, UnsupportedVersionIsDiagnosed)
{
    std::string bad = image_;
    bad[8] = 99; // version field, little-endian low byte
    std::string err = errorOf(bad);
    EXPECT_NE(err.find("version 99 unsupported"), std::string::npos)
        << err;
    EXPECT_NE(err.find("versions 1..2"), std::string::npos) << err;
}

TEST_F(SnapFailures, CorruptedPayloadFailsTheChecksum)
{
    for (size_t offset : {image_.size() / 2, image_.size() - 5}) {
        std::string bad = image_;
        bad[offset] = static_cast<char>(bad[offset] ^ 0x40);
        std::string err = errorOf(bad);
        EXPECT_NE(err.find("checksum mismatch"), std::string::npos)
            << "offset " << offset << ": " << err;
    }
}

TEST_F(SnapFailures, TruncationIsDiagnosedAtEveryLength)
{
    // No prefix of a valid image may decode (or crash): the trailing
    // file CRC covers every byte.
    for (size_t len = 0; len < image_.size(); len += 257)
        EXPECT_THROW(SimSnapshot::decode(image_.substr(0, len)),
                     SnapError)
            << "prefix of " << len << " bytes decoded";
}

TEST_F(SnapFailures, RestoringIntoADifferentDesignIsRefused)
{
    testmodels::Counter other(nullptr, "other", 16);
    auto elab = other.elaborate();
    SimulationTool sim(elab, backendCfg("interp", 1));
    try {
        snapRestore(sim, SimSnapshot::decode(image_));
        FAIL() << "restore into a different design succeeded";
    } catch (const SnapError &e) {
        EXPECT_NE(std::string(e.what()).find("different design"),
                  std::string::npos)
            << e.what();
    }
}

TEST_F(SnapFailures, MissingFileIsDiagnosed)
{
    EXPECT_THROW(snapLoadFile("/nonexistent/dir/x.snap"), SnapError);
}

// ---------------------------------------------- checkpoint manager

TEST(Checkpointing, PeriodicSaveRotationAndResume)
{
    const std::string path = ::testing::TempDir() + "ckpt_" +
                             std::to_string(::getpid()) + ".snap";

    SnapFixture fix;
    auto elab = fix.elaborate();
    SimulationTool sim(elab, backendCfg("optinterp", 1));
    CheckpointManager ckpt(path, /*every=*/10, /*keep_last=*/2);
    ckpt.attach(sim);
    sim.reset();
    driveFixture(fix, sim, 44); // cycles 1..45 (reset runs one)

    EXPECT_EQ(ckpt.lastSavedCycle(), 40u);
    EXPECT_GT(ckpt.lastSaveMs(), 0.0);
    // keep_last=2: cycles 30 and 40 remain, 10 and 20 were rotated out.
    ASSERT_EQ(ckpt.rotated().size(), 2u);
    EXPECT_EQ(ckpt.rotated()[0], path + ".30");
    EXPECT_EQ(ckpt.rotated()[1], path + ".40");
    EXPECT_TRUE(slurp(path + ".10").empty());
    EXPECT_FALSE(slurp(path + ".30").empty());
    // The stable latest and the newest stamped copy are one image.
    EXPECT_EQ(slurp(path), slurp(path + ".40"));

    // No partially written file may exist after a save completed.
    EXPECT_TRUE(slurp(path + ".tmp").empty());

    // Crash-resume: a fresh simulator restored from the stable latest
    // and re-driven agrees with the uninterrupted run.
    SimSnapshot snap = snapLoadFile(path);
    EXPECT_EQ(snap.cycle, 40u);
    SnapFixture fix2;
    auto elab2 = fix2.elaborate();
    SimulationTool sim2(elab2, backendCfg("optinterp", 1));
    snapRestore(sim2, snap);
    // Re-drive cycles 41..45 (driveFixture indexes from 0 per call, so
    // replay the original stimulus tail explicitly).
    fix2.en.setValue(uint64_t(1));
    fix2.wen.setValue(uint64_t(1));
    for (int i = 39; i < 44; ++i) {
        fix2.wide_in.setValue(Bits::fromWords(
            96, {0x1111111111111111ull * (i + 1), uint64_t(i) << 8}));
        fix2.waddr.setValue(uint64_t(i) & 7);
        fix2.wdata.setValue(uint64_t(0xbeef0000) + i);
        sim2.cycle();
    }
    EXPECT_EQ(sim2.numCycles(), sim.numCycles());
    expectSameState(sim, sim2, "checkpoint resume");

    std::remove(path.c_str());
    std::remove((path + ".30").c_str());
    std::remove((path + ".40").c_str());
}

// Job-scoped tags: two managers sharing one base path write disjoint
// "base.tag" / "base.tag.<cycle>" families and never the untagged
// base — concurrent server jobs can all point at one checkpoint path.
TEST(Checkpointing, TagScopesConcurrentManagers)
{
    const std::string base = ::testing::TempDir() + "ckpt_tag_" +
                             std::to_string(::getpid()) + ".snap";
    std::remove(base.c_str());

    SnapFixture fix_a, fix_b;
    auto elab_a = fix_a.elaborate();
    auto elab_b = fix_b.elaborate();
    SimulationTool sim_a(elab_a, backendCfg("optinterp", 1));
    SimulationTool sim_b(elab_b, backendCfg("optinterp", 1));
    CheckpointManager ckpt_a(base, /*every=*/10, /*keep_last=*/2,
                             "job1");
    CheckpointManager ckpt_b(base, /*every=*/10, /*keep_last=*/2,
                             "job2");
    EXPECT_EQ(ckpt_a.tag(), "job1");
    EXPECT_EQ(ckpt_a.path(), base + ".job1");
    ckpt_a.attach(sim_a);
    ckpt_b.attach(sim_b);
    sim_a.reset();
    sim_b.reset();
    driveFixture(fix_a, sim_a, 24); // saves at 10, 20
    driveFixture(fix_b, sim_b, 14); // saves at 10

    EXPECT_FALSE(slurp(base + ".job1").empty());
    EXPECT_FALSE(slurp(base + ".job2").empty());
    EXPECT_TRUE(slurp(base).empty())
        << "untagged checkpoint written despite tags";
    EXPECT_EQ(snapLoadFile(base + ".job1").cycle, 20u);
    EXPECT_EQ(snapLoadFile(base + ".job2").cycle, 10u);
    // Stamped rotation copies are tag-scoped too.
    EXPECT_EQ(slurp(base + ".job1"), slurp(base + ".job1.20"));

    // An untagged manager is byte-compatible with the old layout.
    CheckpointManager plain(base, 10);
    EXPECT_EQ(plain.tag(), "");
    EXPECT_EQ(plain.path(), base);

    for (const char *suffix :
         {".job1", ".job1.10", ".job1.20", ".job2", ".job2.10"})
        std::remove((base + suffix).c_str());
}

// ------------------------------------------------- stimulus replay

TEST(StimReplay, RecordedTapeReplaysDeterministically)
{
    const std::string path = ::testing::TempDir() + "tape_" +
                             std::to_string(::getpid()) + ".stim";
    const int cycles = 25;

    // Record: a host driver feeds the fixture pseudo-random stimulus.
    SnapFixture fix;
    auto elab = fix.elaborate();
    SimulationTool sim(elab, backendCfg("optinterp", 1));
    StimTape tape;
    tape.channel(fix.en);
    tape.channel(fix.wide_in);
    tape.channel(fix.waddr);
    tape.channel(fix.wdata);
    tape.channel(fix.wen);
    sim.reset();
    tape.attachRecorder(sim);
    uint64_t seed = 12345;
    for (int i = 0; i < cycles; ++i) {
        seed = seed * 6364136223846793005ull + 1442695040888963407ull;
        fix.en.setValue(seed & 1);
        fix.wen.setValue((seed >> 1) & 1);
        fix.waddr.setValue((seed >> 2) & 7);
        fix.wdata.setValue((seed >> 5) & 0xffffffffull);
        fix.wide_in.setValue(
            Bits::fromWords(96, {seed, seed >> 32}));
        sim.cycle();
    }
    EXPECT_EQ(tape.numChannels(), 5u);
    EXPECT_EQ(tape.endCycle() - tape.startCycle(),
              static_cast<uint64_t>(cycles));
    tape.saveFile(path);

    // Replay from the file into a fresh run: no driver, same state.
    StimTape replay = StimTape::loadFile(path);
    EXPECT_EQ(replay.numChannels(), 5u);
    SnapFixture fix2;
    auto elab2 = fix2.elaborate();
    SimulationTool sim2(elab2, backendCfg("interp", 1));
    sim2.reset();
    while (replay.applyTo(sim2))
        sim2.cycle();
    EXPECT_EQ(sim2.numCycles(), sim.numCycles());
    expectSameState(sim, sim2, "stimulus replay");
    std::remove(path.c_str());
}

TEST(StimReplay, TapeRefusesAForeignDesign)
{
    SnapFixture fix;
    auto elab = fix.elaborate();
    SimulationTool sim(elab, backendCfg("optinterp", 1));
    StimTape tape;
    tape.channel(fix.en);
    sim.reset();
    tape.attachRecorder(sim);
    sim.cycle(3);

    // Serialized names bind lazily; a design without the channel's
    // hierarchical path must be rejected, not silently skipped.
    StimTape foreign = StimTape::decode(tape.encode());
    testmodels::Counter other(nullptr, "other", 8);
    auto elab2 = other.elaborate();
    SimulationTool sim2(elab2, backendCfg("optinterp", 1));
    EXPECT_THROW(foreign.applyTo(sim2), SnapError);
}

TEST(StimReplay, CorruptedTapeIsDiagnosed)
{
    SnapFixture fix;
    auto elab = fix.elaborate();
    SimulationTool sim(elab, backendCfg("optinterp", 1));
    StimTape tape;
    tape.channel(fix.wdata);
    sim.reset();
    tape.attachRecorder(sim);
    sim.cycle(2);
    std::string bytes = tape.encode();
    bytes[bytes.size() / 2] ^= 0x10;
    EXPECT_THROW(StimTape::decode(bytes), SnapError);
    EXPECT_THROW(StimTape::decode("CMTLTAPEgarbage"), SnapError);
}

// -------------------------------------------- divergence bisection

TEST(DivergenceBisection, AgreeingBackendsReportNoDivergence)
{
    std::vector<std::unique_ptr<MeshTrafficTop>> keep;
    auto factory = [&](const std::string &backend) {
        return [&keep, backend]() -> std::unique_ptr<Simulator> {
            keep.push_back(std::make_unique<MeshTrafficTop>(
                "top", NetLevel::RTL, 4, 4, 0.3, 9));
            return makeSimulator(keep.back()->elaborate(),
                                 backendCfg(backend, 1));
        };
    };

    auto setup = factory("interp")();
    setup->reset();
    setup->cycle(19);
    SimSnapshot start = snapSave(*setup);
    setup.reset();

    DivergenceBisector bisect(factory("interp"), factory("optinterp"));
    DivergenceReport rep = bisect.run(start, /*horizon=*/60);
    EXPECT_FALSE(rep.diverged) << rep.summary();
    EXPECT_EQ(rep.summary(), "no divergence");
}

TEST(DivergenceBisection, PinpointsTheFirstDivergentCycleAndSignal)
{
    const uint64_t bug_cycle = 37;
    std::vector<std::unique_ptr<MeshTrafficTop>> keep;

    auto makeGood = [&]() -> std::unique_ptr<Simulator> {
        keep.push_back(std::make_unique<MeshTrafficTop>(
            "top", NetLevel::RTL, 4, 4, 0.3, 9));
        return makeSimulator(keep.back()->elaborate(),
                             backendCfg("interp", 1));
    };

    // Pick a statically flopped net to corrupt: register state
    // persists across the settle, so the perturbation is a genuine
    // state divergence rather than a transient.
    std::string bug_net_name;
    int bug_net = -1;
    {
        auto probe = makeGood();
        for (const Net &net : probe->elaboration().nets) {
            if (net.floppedStatic) {
                bug_net = net.id;
                bug_net_name = net.name;
                break;
            }
        }
    }
    ASSERT_GE(bug_net, 0) << "no flopped net in the fixture";

    // The intentionally broken variant: from bug_cycle on, an
    // onCycleEnd hook flips the low bit of that register — the kind of
    // wrong-at-one-cycle bug a broken backend would introduce.
    auto makeBroken = [&]() -> std::unique_ptr<Simulator> {
        auto sim = makeGood();
        Simulator *raw = sim.get();
        int net = bug_net;
        raw->onCycleEnd([raw, net, bug_cycle](uint64_t c) {
            if (c < bug_cycle)
                return;
            Bits v = raw->readNet(net);
            std::vector<uint64_t> words(v.nwords());
            for (int w = 0; w < v.nwords(); ++w)
                words[w] = v.word(w);
            words[0] ^= 1;
            raw->pokeNet(net, Bits::fromWords(v.nbits(), words));
        });
        return sim;
    };

    auto setup = makeGood();
    setup->reset();
    setup->cycle(19);
    SimSnapshot start = snapSave(*setup);
    setup.reset();

    DivergenceBisector bisect(makeGood, makeBroken);
    DivergenceReport rep = bisect.run(start, /*horizon=*/100);
    ASSERT_TRUE(rep.diverged);
    EXPECT_EQ(rep.first_divergent_cycle, bug_cycle);
    bool named = false;
    for (const std::string &net : rep.divergent_nets)
        named |= net == bug_net_name;
    EXPECT_TRUE(named) << "bisector did not name " << bug_net_name
                       << ": " << rep.summary();
    EXPECT_NE(rep.summary().find("cycle 37"), std::string::npos);
    EXPECT_GT(rep.cycles_executed, 0u);
}

// ------------------------------------------------- misc diagnostics

TEST(SnapMisc, OpaqueStateModelsAreListedConservatively)
{
    // A lambda-block model without snapSave support is a candidate for
    // silent state loss; the RTL fixture (pure IR) is not.
    class OpaqueFl : public Model
    {
      public:
        uint64_t state = 0;
        OpaqueFl() : Model(nullptr, "opq")
        {
            tickFl("step", [this] { ++state; });
        }
    };
    OpaqueFl opq;
    auto elab = opq.elaborate();
    auto listed = opaqueStateModels(*elab);
    ASSERT_EQ(listed.size(), 1u);
    EXPECT_EQ(listed[0], opq.fullName());

    SnapFixture fix;
    auto elab2 = fix.elaborate();
    EXPECT_TRUE(opaqueStateModels(*elab2).empty());

    // The traffic models serialize their host state, so a full RTL
    // mesh top reports no opaque models either.
    MeshTrafficTop top("top", NetLevel::RTL, 4, 4, 0.2, 3);
    auto elab3 = top.elaborate();
    EXPECT_TRUE(opaqueStateModels(*elab3).empty());
}

TEST(SnapMisc, DesignFingerprintSeparatesDesigns)
{
    SnapFixture a;
    auto ea = a.elaborate();
    uint64_t fa = designFingerprint(*ea);
    {
        SnapFixture b;
        auto eb = b.elaborate();
        EXPECT_EQ(designFingerprint(*eb), fa)
            << "same design must fingerprint identically";
    }
    testmodels::Counter c(nullptr, "c", 16);
    auto ec = c.elaborate();
    EXPECT_NE(designFingerprint(*ec), fa);
}

} // namespace
} // namespace cmtl
