/**
 * SimServer job scheduler and daemon, end to end: a job run through
 * the scheduler produces the digest of the equivalent one-shot run on
 * every backend and thread count (including ParSim jobs drawing
 * multiple budget units); a long job preempted for a short one —
 * paused at a cycle boundary, snapshotted, torn down, rebuilt,
 * restored — still finishes with the unpreempted digest; cancel works
 * queued and running; the bounded queue rejects overflow with a
 * diagnostic; and a batched sweep over the wire streams every grid
 * point, each digest matching its one-shot baseline.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <thread>

#include "server/jobs.h"
#include "server/server.h"

namespace cmtl {
namespace server {
namespace {

JobSpec
clSpec(uint64_t cycles, double injection = 0.30,
       const std::string &backend = "optinterp")
{
    JobSpec spec;
    spec.level = "cl";
    spec.cycles = cycles;
    spec.injection = injection;
    spec.cfg.backend = SimConfig::fromString(backend).backend;
    return spec;
}

TEST(JobScheduler, DigestParityWithOneShot)
{
    JobScheduler sched(2, 16, defaultCorpusFactory());
    for (const char *backend : {"interp", "optinterp", "bytecode"}) {
        JobSpec spec = clSpec(600, 0.25, backend);
        std::string error;
        int id = sched.submit(spec, 0, &error);
        ASSERT_GE(id, 0) << error;
        JobInfo info = sched.awaitResult(id);
        ASSERT_EQ(info.state, JobState::Done) << info.result.error;
        JobResult oneshot = runOneShot(spec, defaultCorpusFactory());
        EXPECT_EQ(info.result.digest, oneshot.digest) << backend;
        EXPECT_EQ(info.result.cycles, oneshot.cycles);
        EXPECT_EQ(info.result.backend, oneshot.backend);
    }
}

TEST(JobScheduler, ParSimJobMatchesSequential)
{
    JobScheduler sched(2, 16, defaultCorpusFactory());
    JobSpec par = clSpec(500);
    par.cfg.threads = 2; // draws the whole budget
    std::string error;
    int id = sched.submit(par, 0, &error);
    ASSERT_GE(id, 0) << error;
    JobInfo info = sched.awaitResult(id);
    ASSERT_EQ(info.state, JobState::Done) << info.result.error;

    JobSpec seq = clSpec(500);
    JobResult oneshot = runOneShot(seq, defaultCorpusFactory());
    EXPECT_EQ(info.result.digest, oneshot.digest);
}

// The headline preemption property: pause -> snapshot -> teardown ->
// rebuild -> restore -> finish is invisible in the final digest.
TEST(JobScheduler, PreemptedJobFinishesBitIdentical)
{
    JobScheduler sched(1, 16, defaultCorpusFactory());
    // interp is the slowest backend: plenty of boundary crossings to
    // catch the pause long before the long job finishes.
    JobSpec long_spec = clSpec(20000, 0.30, "interp");
    std::string error;
    int long_id = sched.submit(long_spec, 0, &error);
    ASSERT_GE(long_id, 0) << error;

    // Wait until the long job is actually running and has progressed.
    for (int i = 0; i < 2000; ++i) {
        std::vector<JobInfo> st = sched.status(long_id);
        ASSERT_EQ(st.size(), 1u);
        if (st[0].state == JobState::Running && st[0].cycle > 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }

    JobSpec short_spec = clSpec(100, 0.10, "interp");
    int short_id = sched.submit(short_spec, 0, &error);
    ASSERT_GE(short_id, 0) << error;

    JobInfo short_info = sched.awaitResult(short_id);
    JobInfo long_info = sched.awaitResult(long_id);
    ASSERT_EQ(short_info.state, JobState::Done)
        << short_info.result.error;
    ASSERT_EQ(long_info.state, JobState::Done)
        << long_info.result.error;
    EXPECT_GE(long_info.preemptions, 1);
    EXPECT_GE(sched.preemptionCount(), 1);

    EXPECT_EQ(long_info.result.digest,
              runOneShot(long_spec, defaultCorpusFactory()).digest);
    EXPECT_EQ(short_info.result.digest,
              runOneShot(short_spec, defaultCorpusFactory()).digest);
}

TEST(JobScheduler, CancelQueuedAndRunning)
{
    JobScheduler sched(1, 16, defaultCorpusFactory());
    std::string error;
    int running = sched.submit(clSpec(2000000, 0.30, "interp"), 0,
                               &error);
    ASSERT_GE(running, 0) << error;
    int queued = sched.submit(clSpec(1000000, 0.30, "interp"), 0,
                              &error);
    ASSERT_GE(queued, 0) << error;

    EXPECT_TRUE(sched.cancel(queued));
    JobInfo qi = sched.awaitResult(queued);
    EXPECT_EQ(qi.state, JobState::Cancelled);

    EXPECT_TRUE(sched.cancel(running));
    JobInfo ri = sched.awaitResult(running);
    EXPECT_EQ(ri.state, JobState::Cancelled);
    EXPECT_LT(ri.result.cycles, 2000000u); // stopped at a boundary

    EXPECT_FALSE(sched.cancel(running)); // already terminal
    EXPECT_FALSE(sched.cancel(424242));  // unknown
}

TEST(JobScheduler, QueueCapRejectsOverflow)
{
    JobScheduler sched(1, 2, defaultCorpusFactory());
    std::string error;
    int a = sched.submit(clSpec(2000000, 0.30, "interp"), 0, &error);
    ASSERT_GE(a, 0);
    int b = sched.submit(clSpec(2000000, 0.30, "interp"), 0, &error);
    ASSERT_GE(b, 0);
    int c = sched.submit(clSpec(100), 0, &error);
    EXPECT_EQ(c, -1);
    EXPECT_NE(error.find("queue full"), std::string::npos);
    sched.cancel(a);
    sched.cancel(b);
}

TEST(JobScheduler, AwaitAnyClaimsEachJobOnce)
{
    JobScheduler sched(2, 16, defaultCorpusFactory());
    std::vector<int> ids;
    std::string error;
    for (int i = 0; i < 5; ++i) {
        int id = sched.submit(clSpec(50 + 10 * i), 0, &error);
        ASSERT_GE(id, 0) << error;
        ids.push_back(id);
    }
    std::map<int, int> seen;
    for (int i = 0; i < 5; ++i) {
        int done = sched.awaitAny(ids);
        ASSERT_GE(done, 0);
        ++seen[done];
    }
    EXPECT_EQ(seen.size(), 5u); // five distinct ids, once each
    EXPECT_EQ(sched.awaitAny(ids), -1);
}

TEST(JobScheduler, BadSpecFailsWithDiagnostic)
{
    JobScheduler sched(1, 8, defaultCorpusFactory());
    JobSpec spec = clSpec(100);
    spec.level = "gate"; // the factory rejects unknown levels
    std::string error;
    int id = sched.submit(spec, 0, &error);
    ASSERT_GE(id, 0) << error;
    JobInfo info = sched.awaitResult(id);
    EXPECT_EQ(info.state, JobState::Failed);
    EXPECT_NE(info.result.error.find("unknown level"),
              std::string::npos);
}

TEST(JobScheduler, CheckpointFilesAreJobTagged)
{
    // Two concurrent jobs checkpointing to the same base path must not
    // clobber each other: the manager scopes files by job id.
    std::string base = "/tmp/cmtl-test-server-ckpt-" +
                       std::to_string(::getpid());
    std::remove(base.c_str());
    JobScheduler sched(2, 8, defaultCorpusFactory());
    std::string error;
    JobSpec spec = clSpec(300);
    spec.checkpoint = base;
    spec.checkpoint_every = 100;
    int a = sched.submit(spec, 0, &error);
    ASSERT_GE(a, 0) << error;
    int b = sched.submit(spec, 0, &error);
    ASSERT_GE(b, 0) << error;
    ASSERT_EQ(sched.awaitResult(a).state, JobState::Done);
    ASSERT_EQ(sched.awaitResult(b).state, JobState::Done);

    std::string file_a = base + ".job" + std::to_string(a);
    std::string file_b = base + ".job" + std::to_string(b);
    EXPECT_EQ(::access(file_a.c_str(), F_OK), 0) << file_a;
    EXPECT_EQ(::access(file_b.c_str(), F_OK), 0) << file_b;
    EXPECT_NE(::access(base.c_str(), F_OK), 0)
        << "untagged checkpoint written despite job scoping";
    // Both files restore: digests land on the same deterministic run.
    SimSnapshot snap_a = snapLoadFile(file_a);
    SimSnapshot snap_b = snapLoadFile(file_b);
    EXPECT_EQ(snap_a.digest(), snap_b.digest());
    std::remove(file_a.c_str());
    std::remove(file_b.c_str());
}

// ------------------------------------------------- sweep over the wire

TEST(SweepProtocol, GridStreamsEveryPointWithOneShotDigests)
{
    ServerConfig cfg;
    cfg.socket_path = "/tmp/cmtl-test-sweep-" +
                      std::to_string(::getpid()) + ".sock";
    cfg.jobs = 2;
    cfg.queue_cap = 4; // smaller than the grid: exercises wave submit
    SimServer server(cfg);
    server.registerDefaultCorpus();
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ProtoClient client;
    client.connect(cfg.socket_path);
    Json req = Json::object();
    req.set("verb", Json::string("sweep"));
    req.set("level", Json::string("cl"));
    req.set("cycles", Json::number(uint64_t{400}));
    Json injections = Json::array();
    for (double inj : {0.05, 0.15, 0.25})
        injections.push(Json::number(inj));
    req.set("injections", std::move(injections));
    Json backends = Json::array();
    backends.push(Json::string("interp"));
    backends.push(Json::string("optinterp"));
    req.set("backends", std::move(backends));
    client.send(req);

    Json head = client.readReply();
    ASSERT_TRUE(head.find("ok")->asBool());
    ASSERT_EQ(head.find("points")->asInt(), 6);

    std::map<int, Json> points; // index -> frame
    for (;;) {
        Json frame = client.readReply();
        if (frame.find("sweep_done")) {
            EXPECT_EQ(frame.find("points")->asInt(), 6);
            break;
        }
        ASSERT_TRUE(frame.find("ok")->asBool())
            << frame.find("error")->asStr();
        EXPECT_EQ(frame.find("state")->asStr(), "done");
        points[frame.find("index")->asInt()] = frame;
    }
    ASSERT_EQ(points.size(), 6u); // every grid point exactly once

    // Each streamed digest equals the equivalent one-shot run's, and
    // backends agree with each other at equal injection.
    const double grid_inj[] = {0.05, 0.15, 0.25};
    for (const auto &kv : points) {
        const Json &frame = kv.second;
        JobSpec spec;
        spec.level = "cl";
        spec.cycles = 400;
        spec.injection = grid_inj[kv.first % 3];
        spec.cfg.backend =
            SimConfig::fromString(frame.find("backend")->asStr()).backend;
        JobResult oneshot = runOneShot(spec, defaultCorpusFactory());
        EXPECT_EQ(frame.find("digest")->asStr(), hexU64(oneshot.digest))
            << "index " << kv.first;
    }
    server.stop();
}

} // namespace
} // namespace server
} // namespace cmtl
