#include "jobs.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "core/jit_cpp.h"
#include "core/scope.h"
#include "core/vcd.h"

namespace cmtl {
namespace server {

namespace {

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

const char *
jobStateName(JobState s)
{
    switch (s) {
      case JobState::Queued: return "queued";
      case JobState::Running: return "running";
      case JobState::Done: return "done";
      case JobState::Failed: return "failed";
      case JobState::Cancelled: return "cancelled";
    }
    return "?";
}

JobResult
runOneShot(const JobSpec &spec, const DesignFactory &make)
{
    auto t0 = std::chrono::steady_clock::now();
    JobResult out;
    out.backend = spec.cfg.toString();

    std::unique_ptr<Model> model = make(spec);
    auto elab = model->elaborate();
    std::unique_ptr<Simulator> sim = makeSimulator(elab, spec.cfg);

    std::unique_ptr<VcdWriter> vcd;
    if (!spec.vcd.empty())
        vcd = std::make_unique<VcdWriter>(*sim, spec.vcd);
    std::unique_ptr<CheckpointManager> ckpt;
    if (!spec.checkpoint.empty()) {
        ckpt = std::make_unique<CheckpointManager>(
            spec.checkpoint, spec.checkpoint_every);
        ckpt->attach(*sim);
    }
    std::unique_ptr<SimScope> scope;
    if (spec.profile) {
        scope = std::make_unique<SimScope>(*sim);
        scope->traceAllValRdy();
    }

    sim->runUntil(spec.cycles);
    out.cycles = sim->numCycles();
    out.digest = stateDigest(*sim);
    if (scope) {
        out.metrics_json = scope->jsonSnapshot();
        scope->detach();
    }
    out.wall_ms = msSince(t0);
    return out;
}

// ------------------------------------------------------ JobScheduler

JobScheduler::JobScheduler(int thread_budget, int queue_cap,
                           DesignFactory make_design)
    : budget_total_(std::max(1, thread_budget)),
      queue_cap_(std::max(1, queue_cap)),
      make_design_(std::move(make_design)),
      budget_free_(budget_total_)
{
    // Warm the lazily-initialized toolchain probes before concurrent
    // workers can race their first use.
    if (CppJit::compilerAvailable())
        CppJit::compilerVersion();
    workers_.reserve(static_cast<size_t>(budget_total_));
    for (int i = 0; i < budget_total_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

JobScheduler::~JobScheduler()
{
    stop();
}

bool
JobScheduler::terminal(JobState s)
{
    return s == JobState::Done || s == JobState::Failed ||
           s == JobState::Cancelled;
}

uint64_t
JobScheduler::remainingOf(const Job &job)
{
    return job.spec.cycles > job.cycle ? job.spec.cycles - job.cycle : 0;
}

int
JobScheduler::costOf(const JobSpec &spec) const
{
    return std::min(std::max(1, spec.cfg.threads), budget_total_);
}

int
JobScheduler::submit(JobSpec spec, uint64_t owner, std::string *error)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
        if (error)
            *error = "scheduler is shutting down";
        return -1;
    }
    if (nonterminal_ >= queue_cap_) {
        if (error)
            *error = "queue full (" + std::to_string(queue_cap_) +
                     " jobs waiting or running)";
        return -1;
    }
    auto job = std::make_shared<Job>();
    job->id = next_id_++;
    job->spec = std::move(spec);
    job->owner = owner;
    jobs_.emplace(job->id, job);
    ++nonterminal_;
    maybePreemptLocked(*job);
    cv_.notify_all();
    return job->id;
}

void
JobScheduler::maybePreemptLocked(const Job &incoming)
{
    if (budget_free_ >= costOf(incoming.spec))
        return;
    // Checkpoint-preempt the running job with the most cycles left,
    // but only for a clear win (4x) — thrashing two similar jobs
    // through snapshot/restore helps nobody. Jobs streaming side
    // artifacts (VCD, checkpoints, profiles) are not preemptible: a
    // fresh writer would restart their artifact mid-file.
    uint64_t incoming_rem = remainingOf(incoming);
    Job *victim = nullptr;
    for (auto &kv : jobs_) {
        Job &j = *kv.second;
        if (j.state != JobState::Running || j.cancel_requested ||
            j.preempt_requested || !j.live)
            continue;
        if (!j.spec.vcd.empty() || !j.spec.checkpoint.empty() ||
            j.spec.profile)
            continue;
        uint64_t done = j.live ? j.live->numCycles() : j.cycle;
        uint64_t rem = j.spec.cycles > done ? j.spec.cycles - done : 0;
        if (rem < incoming_rem * 4 || rem == 0)
            continue;
        if (!victim || rem > remainingOf(*victim))
            victim = &j;
    }
    if (victim) {
        victim->preempt_requested = true;
        victim->live->requestPause();
    }
}

std::shared_ptr<JobScheduler::Job>
JobScheduler::pickLocked()
{
    std::shared_ptr<Job> best;
    for (auto &kv : jobs_) {
        auto &job = kv.second;
        if (job->state != JobState::Queued)
            continue;
        if (costOf(job->spec) > budget_free_)
            continue;
        if (!best || remainingOf(*job) < remainingOf(*best))
            best = job;
    }
    return best;
}

void
JobScheduler::workerLoop()
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        std::shared_ptr<Job> job;
        cv_.wait(lock, [&] {
            return stopping_ || (job = pickLocked()) != nullptr;
        });
        if (stopping_)
            return;
        job->state = JobState::Running;
        budget_free_ -= costOf(job->spec);
        lock.unlock();
        runJob(job);
        lock.lock();
        budget_free_ += costOf(job->spec);
        cv_.notify_all();
    }
}

void
JobScheduler::runJob(const std::shared_ptr<Job> &job)
{
    auto t0 = std::chrono::steady_clock::now();
    const JobSpec &spec = job->spec;
    try {
        std::unique_ptr<Model> model = make_design_(spec);
        auto elab = model->elaborate();
        std::unique_ptr<Simulator> sim = makeSimulator(elab, spec.cfg);

        {
            std::lock_guard<std::mutex> lock(mu_);
            if (job->snapshot) {
                // Resuming a preempted job: restore outside the lock
                // would race cancel()'s requestPause on a half-built
                // publication; restore is milliseconds, keep it simple.
                snapRestore(*sim, *job->snapshot);
                job->snapshot.reset();
            }
            job->live = sim.get();
            sim->clearPauseRequest();
            if (job->cancel_requested)
                sim->requestPause();
        }

        // Side artifacts attach after any restore so waveforms and
        // checkpoints continue the restored timeline exactly.
        std::unique_ptr<VcdWriter> vcd;
        if (!spec.vcd.empty())
            vcd = std::make_unique<VcdWriter>(*sim, spec.vcd);
        std::unique_ptr<CheckpointManager> ckpt;
        if (!spec.checkpoint.empty()) {
            ckpt = std::make_unique<CheckpointManager>(
                spec.checkpoint, spec.checkpoint_every, 3,
                "job" + std::to_string(job->id));
            ckpt->attach(*sim);
        }
        std::unique_ptr<SimScope> scope;
        if (spec.profile) {
            scope = std::make_unique<SimScope>(*sim);
            scope->traceAllValRdy();
        }

        for (;;) {
            bool done = sim->runUntil(spec.cycles);
            bool cancelled, preempted;
            {
                std::lock_guard<std::mutex> lock(mu_);
                job->cycle = sim->numCycles();
                cancelled = job->cancel_requested;
                preempted = job->preempt_requested;
                job->preempt_requested = false;
            }
            if (cancelled) {
                std::lock_guard<std::mutex> lock(mu_);
                job->live = nullptr;
                job->state = JobState::Cancelled;
                job->result.cycles = job->cycle;
                job->result.error = "cancelled";
                --nonterminal_;
                return;
            }
            if (done) {
                JobResult res;
                res.cycles = sim->numCycles();
                res.digest = stateDigest(*sim);
                res.backend = spec.cfg.toString();
                if (scope) {
                    res.metrics_json = scope->jsonSnapshot();
                    scope->detach();
                }
                res.wall_ms = job->result.wall_ms + msSince(t0);
                std::lock_guard<std::mutex> lock(mu_);
                job->live = nullptr;
                job->result = std::move(res);
                job->state = JobState::Done;
                --nonterminal_;
                return;
            }
            if (preempted) {
                // Capture outside the lock (snapshots are the bulk of
                // preemption cost), then requeue. A cancel that lands
                // during the capture wins below on the next segment's
                // entry — the snapshot is simply dropped.
                auto snap =
                    std::make_unique<SimSnapshot>(snapSave(*sim));
                std::lock_guard<std::mutex> lock(mu_);
                job->live = nullptr;
                if (job->cancel_requested) {
                    job->state = JobState::Cancelled;
                    job->result.cycles = job->cycle;
                    job->result.error = "cancelled";
                    --nonterminal_;
                    return;
                }
                job->snapshot = std::move(snap);
                job->state = JobState::Queued;
                job->result.wall_ms += msSince(t0);
                ++job->preemptions;
                ++preemptions_total_;
                cv_.notify_all();
                return;
            }
            // Spurious pause (no cause recorded): resume the loop.
        }
    } catch (const std::exception &e) {
        std::lock_guard<std::mutex> lock(mu_);
        job->live = nullptr;
        if (!terminal(job->state)) {
            job->state = JobState::Failed;
            job->result.error = e.what();
            job->result.wall_ms += msSince(t0);
            --nonterminal_;
        }
    }
}

bool
JobScheduler::cancel(int id)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return false;
    Job &job = *it->second;
    if (terminal(job.state))
        return false;
    if (job.state == JobState::Queued) {
        job.state = JobState::Cancelled;
        job.snapshot.reset();
        job.result.error = "cancelled";
        --nonterminal_;
        cv_.notify_all();
        return true;
    }
    job.cancel_requested = true;
    if (job.live)
        job.live->requestPause();
    return true;
}

std::vector<JobInfo>
JobScheduler::status(int id) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<JobInfo> out;
    for (const auto &kv : jobs_) {
        const Job &job = *kv.second;
        if (id >= 0 && job.id != id)
            continue;
        JobInfo info;
        info.id = job.id;
        info.state = job.state;
        info.spec = job.spec;
        info.cycle = job.live ? job.live->numCycles() : job.cycle;
        info.preemptions = job.preemptions;
        info.owner = job.owner;
        info.result = job.result;
        out.push_back(std::move(info));
    }
    return out;
}

bool
JobScheduler::exists(int id) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return jobs_.count(id) != 0;
}

JobInfo
JobScheduler::awaitResult(int id)
{
    std::unique_lock<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        throw std::invalid_argument("unknown job " + std::to_string(id));
    auto job = it->second;
    cv_.wait(lock, [&] { return terminal(job->state); });
    JobInfo info;
    info.id = job->id;
    info.state = job->state;
    info.spec = job->spec;
    info.cycle = job->cycle;
    info.preemptions = job->preemptions;
    info.owner = job->owner;
    info.result = job->result;
    return info;
}

int
JobScheduler::awaitAny(const std::vector<int> &ids)
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        bool all_claimed = true;
        for (int id : ids) {
            auto it = jobs_.find(id);
            if (it == jobs_.end())
                continue;
            Job &job = *it->second;
            if (terminal(job.state) && !job.claimed) {
                job.claimed = true;
                return job.id;
            }
            if (!job.claimed)
                all_claimed = false;
        }
        if (all_claimed)
            return -1;
        cv_.wait(lock);
    }
}

int
JobScheduler::reapOwner(uint64_t owner)
{
    std::lock_guard<std::mutex> lock(mu_);
    int reaped = 0;
    for (auto &kv : jobs_) {
        Job &job = *kv.second;
        if (job.owner != owner || terminal(job.state))
            continue;
        if (job.state == JobState::Queued) {
            job.state = JobState::Cancelled;
            job.snapshot.reset();
            job.result.error = "client disconnected";
            --nonterminal_;
        } else {
            job.cancel_requested = true;
            if (job.live)
                job.live->requestPause();
        }
        ++reaped;
    }
    if (reaped)
        cv_.notify_all();
    return reaped;
}

void
JobScheduler::stop()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stopping_)
            return;
        stopping_ = true;
        for (auto &kv : jobs_) {
            Job &job = *kv.second;
            if (terminal(job.state))
                continue;
            if (job.state == JobState::Queued) {
                job.state = JobState::Cancelled;
                job.snapshot.reset();
                job.result.error = "server shutdown";
                --nonterminal_;
            } else {
                job.cancel_requested = true;
                if (job.live)
                    job.live->requestPause();
            }
        }
        cv_.notify_all();
    }
    for (auto &t : workers_)
        if (t.joinable())
            t.join();
    workers_.clear();
}

int
JobScheduler::preemptionCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return preemptions_total_;
}

} // namespace server
} // namespace cmtl
