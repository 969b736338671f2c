#include "psim.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <stdexcept>

#include "dataflow.h"
#include "ir_cpp.h"
#include "timing.h"

namespace cmtl {

namespace {

/**
 * Which replica the current thread addresses: worker threads bind to
 * their island for the thread's lifetime; the coordinating thread (and
 * any other host thread) stays at -1 and routes through token owners.
 */
thread_local int tls_island = -1;

} // namespace

ParSimulationTool::ParSimulationTool(std::shared_ptr<Elaboration> elab,
                                     SimConfig cfg)
    : Simulator(std::move(elab), cfg),
      plan_(partitionDesign(*elab_, cfg.threads)),
      bar_all_(plan_.nislands + 1),
      bar_workers_(plan_.nislands)
{
    Stopwatch sw;

    if (backendBoxedHost(cfg_.backend)) {
        throw std::logic_error(
            "ParSim requires an arena-hosted backend (dense arena "
            "storage); got " + cfg_.toString());
    }
    if (cfg_.sched == SchedMode::Event) {
        throw std::logic_error(
            "ParSim is statically scheduled; SchedMode::Event is "
            "sequential-only");
    }

    // One layout shared by every replica: identical physical slots by
    // construction. The profile policy sees the real partition plan,
    // so placement groups by owner island and packing never crosses an
    // ownership boundary (whole-word pushes stay sound).
    auto layout = std::make_shared<const ArenaLayout>(
        cfg_.layout == LayoutPolicy::Profile
            ? ArenaLayout::profiled(*elab_, &plan_, nullptr)
            : ArenaLayout::elabOrder(*elab_));
    replicas_.reserve(plan_.nislands);
    evals_.reserve(plan_.nislands);
    for (int i = 0; i < plan_.nislands; ++i) {
        replicas_.push_back(std::make_unique<ArenaStore>(*elab_, layout));
        evals_.push_back(std::make_unique<SlotEvaluator>(*replicas_[i]));
    }

    accessor_.bindReplicas(&replicas_, &plan_.ownerOf);
    accessor_.onPokeChanged([this](int net) {
        dirty_ = true;
        if (gating_)
            markReaderIslandsDirty(net);
    });

    // Per-island flop copy plans: layout invariants guarantee a word's
    // residents share owner island and flop class, so an island's
    // owned static flops coalesce into whole-word ranges (disjoint
    // across islands by ownership).
    island_flop_plans_.reserve(plan_.nislands);
    for (int i = 0; i < plan_.nislands; ++i)
        island_flop_plans_.push_back(
            layout->flopPlan(plan_.islands[i].flopNets));

    const size_t nnets = elab_->nets.size();
    is_main_flop_.assign(nnets, 0);
    static_island_flop_.assign(nnets, 0);
    for (const Net &net : elab_->nets) {
        if (net.floppedStatic && plan_.ownerOf[net.id] >= 0)
            static_island_flop_[net.id] = 1;
    }

    for (Signal *sig : elab_->signals)
        sig->setAccess(this);
    try {
        buildIslandSchedules();
        buildGating();
        double create_before_spec = sw.elapsed();
        if (specialized())
            specialize();
        startWorkers();
        spec_stats_.simCreateSeconds =
            create_before_spec +
            (sw.elapsed() - create_before_spec -
             spec_stats_.codegenSeconds - spec_stats_.compileSeconds -
             spec_stats_.wrapSeconds);
    } catch (...) {
        for (Signal *sig : elab_->signals) {
            if (sig->access() == this)
                sig->setAccess(nullptr);
        }
        throw;
    }
}

ParSimulationTool::~ParSimulationTool()
{
    if (jit_thread_.joinable())
        jit_thread_.join();
    shutdownWorkers();
    for (Signal *sig : elab_->signals) {
        if (sig->access() == this)
            sig->setAccess(nullptr);
    }
}

void
ParSimulationTool::buildIslandSchedules()
{
    const auto &blocks = elab_->blocks;
    spec_stats_.numBlocks = static_cast<int>(blocks.size());

    // Dead-logic elimination: a comb block whose writes never reach an
    // observed sink can be dropped from the island schedules. Pushes
    // derive from the *scheduled* steps below, so a dead block's writes
    // are never exchanged either — sound, because no live block reads
    // them. The dead set is a pure function of the Elaboration, so the
    // sequential and parallel kernels elide the same blocks.
    dead_block_.assign(blocks.size(), 0);
    if (cfg_.dead_elim) {
        DataflowResult flow = dataflowAnalyze(*elab_);
        for (int b : flow.deadCombBlocks())
            dead_block_[b] = 1;
        spec_stats_.deadBlocksElided = flow.deadBlocks;
        spec_stats_.deadNetsElided = flow.deadNets;
    }

    const int n = plan_.nislands;
    comb_steps_.resize(n);
    tick_steps_.resize(n);
    comb_pushes_.assign(
        n, std::vector<std::vector<CopyOp>>(plan_.nlevels));
    flop_pushes_.resize(n);

    // A push targets every non-owner island with a static reader. The
    // coordinating thread reads owner replicas directly and never
    // needs one.
    auto pushTargets = [&](int token, int owner, std::vector<CopyOp> &out) {
        if (token >= static_cast<int>(elab_->nets.size()))
            return; // arrays are island-local by construction
        for (int dst : plan_.readerIslands[token]) {
            if (dst != owner) {
                out.push_back(CopyOp{dst, replicas_[0]->offset(token),
                                     replicas_[0]->nwords(token)});
            }
        }
    };

    for (int i = 0; i < n; ++i) {
        const PartitionIsland &isl = plan_.islands[i];
        for (size_t k = 0; k < isl.combBlocks.size(); ++k) {
            if (dead_block_[isl.combBlocks[k]])
                continue;
            PStep step;
            step.block = isl.combBlocks[k];
            step.level = isl.combLevels[k];
            comb_steps_[i].push_back(step);
        }
        for (int b : isl.tickBlocks) {
            PStep step;
            step.block = b;
            tick_steps_[i].push_back(step);
        }

        // Comb pushes, deduplicated per (level, token).
        std::set<std::pair<int, int>> seen;
        for (const PStep &step : comb_steps_[i]) {
            for (int t : blocks[step.block].writes) {
                if (seen.insert({step.level, t}).second)
                    pushTargets(t, i, comb_pushes_[i][step.level]);
            }
        }

        // Flop pushes: post-flop values of owned flopped nets, plus
        // nets this island's tick blocks write blockingly (a tick
        // write to a net that is not statically flopped mutates the
        // current value directly).
        std::set<int> fseen;
        for (int t : isl.flopNets) {
            if (fseen.insert(t).second)
                pushTargets(t, i, flop_pushes_[i]);
        }
        for (const PStep &step : tick_steps_[i]) {
            for (int t : blocks[step.block].writes) {
                if (t < static_cast<int>(elab_->nets.size()) &&
                    !elab_->nets[t].floppedStatic && fseen.insert(t).second)
                    pushTargets(t, i, flop_pushes_[i]);
            }
        }

        // Packed word-mates map to the same physical word, so the
        // per-token dedup above can leave byte-identical copies;
        // collapse them (identical ops commute, dropping one is safe).
        auto dedupe = [](std::vector<CopyOp> &ops) {
            std::sort(ops.begin(), ops.end(),
                      [](const CopyOp &a, const CopyOp &b) {
                          if (a.dst != b.dst)
                              return a.dst < b.dst;
                          if (a.off != b.off)
                              return a.off < b.off;
                          return a.n < b.n;
                      });
            ops.erase(std::unique(ops.begin(), ops.end(),
                                  [](const CopyOp &a, const CopyOp &b) {
                                      return a.dst == b.dst &&
                                             a.off == b.off && a.n == b.n;
                                  }),
                      ops.end());
        };
        for (auto &level : comb_pushes_[i])
            dedupe(level);
        dedupe(flop_pushes_[i]);
    }
}

void
ParSimulationTool::buildGating()
{
    // The fused cpp-design tier runs each settle level as one compiled
    // call per island with no change detection anywhere, so gating
    // stays off there (matching the sequential kernel's policy).
    gating_ = cfg_.gating && !designMode();
    if (!gating_)
        return;
    const int n = plan_.nislands;
    island_dirty_ = std::vector<std::atomic<uint8_t>>(n);
    for (auto &flag : island_dirty_)
        flag.store(1, std::memory_order_relaxed);
    settle_active_.assign(n, 1);

    comb_push_islands_.assign(n, {});
    for (int i = 0; i < n; ++i) {
        std::vector<char> seen(n, 0);
        for (const auto &level : comb_pushes_[i]) {
            for (const CopyOp &op : level) {
                if (!seen[op.dst]) {
                    seen[op.dst] = 1;
                    comb_push_islands_[i].push_back(op.dst);
                }
            }
        }
    }

    // Islands whose tick blocks write blockingly — an array, or a net
    // that is never statically flopped — mutate their own comb inputs
    // without change detection; mark them dirty every cycle. (The
    // cross-island half of a blocking write is change-detected by the
    // flop-phase pushes.)
    tick_dirty_island_.assign(n, 0);
    for (int i = 0; i < n; ++i) {
        for (const PStep &step : tick_steps_[i]) {
            for (int t : elab_->blocks[step.block].writes) {
                if (t >= static_cast<int>(elab_->nets.size()) ||
                    !elab_->nets[t].floppedStatic) {
                    tick_dirty_island_[i] = 1;
                    break;
                }
            }
            if (tick_dirty_island_[i])
                break;
        }
    }
}

void
ParSimulationTool::markReaderIslandsDirty(int token)
{
    for (int isl : plan_.readerIslands[token])
        island_dirty_[isl].store(1, std::memory_order_relaxed);
    int owner = plan_.ownerOf[token];
    if (owner >= 0)
        island_dirty_[owner].store(1, std::memory_order_relaxed);
}

void
ParSimulationTool::specialize()
{
    Stopwatch sw;
    const auto &blocks = elab_->blocks;
    specialized_.assign(blocks.size(), 0);
    for (size_t b = 0; b < blocks.size(); ++b) {
        if (blocks[b].ir && bcSpecializable(blocks[b], *replicas_[0])) {
            specialized_[b] = 1;
            ++spec_stats_.numSpecialized;
        }
    }

    const bool design = designMode();
    if (!perBlockCpp()) {
        // One shared program per block: programs address the arena by
        // absolute offset, so every island runs them against its own
        // replica's data pointer. Scratch is per island. For
        // cpp-design this is the warm-up tier executed while the
        // whole-design compile runs in the background.
        bc_programs_.resize(blocks.size());
        int max_scratch = 0;
        auto compileSteps = [&](std::vector<PStep> &steps) {
            for (PStep &step : steps) {
                if (!specialized_[step.block])
                    continue;
                step.kind = PStep::Kind::Bytecode;
                if (bc_programs_[step.block].insts.empty()) {
                    bc_programs_[step.block] =
                        bcCompile(blocks[step.block], *replicas_[0]);
                    max_scratch = std::max(
                        max_scratch, bc_programs_[step.block].nscratch);
                }
            }
        };
        for (int i = 0; i < plan_.nislands; ++i) {
            compileSteps(comb_steps_[i]);
            compileSteps(tick_steps_[i]);
        }
        bc_scratch_.assign(
            plan_.nislands,
            std::vector<uint64_t>(static_cast<size_t>(max_scratch) + 1, 0));
        spec_stats_.numGroups = spec_stats_.numSpecialized;
        spec_stats_.codegenSeconds = sw.elapsed();
        if (!design)
            return;
        specializeDesign();
        return;
    }

    // Per-block C++ (cpp-block): every specialized block is its own
    // compiled entry point, invoked with the island's replica data
    // pointer — one C-ABI crossing per block per phase, the same
    // granularity as the sequential kernel.
    std::vector<std::vector<int>> groups;
    auto groupSteps = [&](std::vector<PStep> &steps) {
        for (PStep &step : steps) {
            if (!specialized_[step.block])
                continue;
            step.kind = PStep::Kind::Native;
            step.group = static_cast<int>(groups.size());
            groups.push_back({step.block});
        }
    };
    for (int i = 0; i < plan_.nislands; ++i) {
        groupSteps(comb_steps_[i]);
        groupSteps(tick_steps_[i]);
    }
    spec_stats_.numGroups = static_cast<int>(groups.size());

    std::string source = cppEmitProgram(*elab_, *replicas_[0], groups);
    spec_stats_.emittedTuBytes = source.size();
    spec_stats_.codegenSeconds = sw.elapsed();

    CppJit jit(cfg_.jit_cache_dir.empty() ? CppJit::defaultCacheDir()
                                          : cfg_.jit_cache_dir,
               cfg_.jit_cache);
    cpp_lib_ = jit.compile(source, static_cast<int>(groups.size()),
                           CppJitLibrary::Abi::Block);
    spec_stats_.compileSeconds = cpp_lib_.compileSeconds();
    spec_stats_.wrapSeconds = cpp_lib_.wrapSeconds();
    spec_stats_.cacheHit = cpp_lib_.cacheHit();
    for (int i = 0; i < plan_.nislands; ++i) {
        for (auto *steps : {&comb_steps_[i], &tick_steps_[i]}) {
            for (PStep &step : *steps) {
                if (step.kind == PStep::Kind::Native)
                    step.block_fn = cpp_lib_.blocks()[step.group];
            }
        }
    }
}

void
ParSimulationTool::specializeDesign()
{
    Stopwatch sw;
    // Native tier: each island's schedule fused into whole-island
    // modules (one per superstep level for comb — the bulk-synchronous
    // push points are immovable — one for the tick list, one for the
    // flop phase), built over the bytecode-marked schedules so
    // unspecialized blocks keep their slot-evaluated steps. One
    // translation unit is emitted PER ISLAND (group indices are local
    // to the island's library): each island's module gets its own
    // cache entry, so repartitioning or editing one island's logic
    // recompiles only the TUs whose source actually changed.
    nat_comb_steps_ = comb_steps_;
    nat_tick_steps_ = tick_steps_;
    island_flop_unit_.assign(plan_.nislands, -1);
    island_sources_.assign(plan_.nislands, {});
    island_nunits_.assign(plan_.nislands, 0);
    design_nunits_ = 0;
    spec_stats_.emittedTuBytes = 0;
    for (int i = 0; i < plan_.nislands; ++i) {
        std::vector<CppUnit> units;
        auto fuse = [&](std::vector<PStep> &steps, bool levelBound) {
            std::vector<PStep> out;
            size_t k = 0;
            while (k < steps.size()) {
                if (!specialized_[steps[k].block]) {
                    out.push_back(steps[k]);
                    ++k;
                    continue;
                }
                CppUnit unit;
                size_t j = k;
                while (j < steps.size() && specialized_[steps[j].block] &&
                       (!levelBound || steps[j].level == steps[k].level)) {
                    unit.items.push_back(CppUnit::Item{steps[j].block});
                    ++j;
                }
                PStep step;
                step.kind = PStep::Kind::Native;
                step.block = steps[k].block;
                step.group = static_cast<int>(units.size());
                step.level = steps[k].level;
                units.push_back(std::move(unit));
                out.push_back(step);
                k = j;
            }
            steps = std::move(out);
        };
        fuse(nat_comb_steps_[i], true);
        fuse(nat_tick_steps_[i], false);
        // Island flop module over its owned statically flopped nets
        // (dynamic lambda flops stay on the coordinator), coalesced
        // into whole-word copy ranges where the layout allows.
        CppUnit flop_unit;
        const FlopCopyPlan &fplan = island_flop_plans_[i];
        for (const FlopRange &r : fplan.ranges)
            flop_unit.items.push_back(CppUnit::Item{-1, r.off, r.nwords});
        island_flop_unit_[i] = static_cast<int>(units.size());
        units.push_back(std::move(flop_unit));

        // Replica 0's offsets are every replica's offsets, so one
        // emission serves whichever replica the code later runs on.
        island_sources_[i] = cppEmitProgram(*elab_, *replicas_[0], units);
        island_nunits_[i] = static_cast<int>(units.size());
        spec_stats_.emittedTuBytes += island_sources_[i].size();
        design_nunits_ += island_nunits_[i];
    }
    spec_stats_.codegenSeconds += sw.elapsed();
    spec_stats_.tiered = cfg_.jit_tiered;

    std::string cache_dir = cfg_.jit_cache_dir.empty()
                                ? CppJit::defaultCacheDir()
                                : cfg_.jit_cache_dir;
    if (!cfg_.jit_tiered) {
        // Workers have not started yet, so adopting here is trivially
        // safe; the first cycle runs native.
        CppJit jit(cache_dir, cfg_.jit_cache, CppJit::kWholeDesignFlags);
        island_libs_ = jit.compileMany(island_sources_, island_nunits_,
                                       CppJitLibrary::Abi::Unit);
        adoptNativeTier();
        return;
    }
    jit_thread_ = std::thread([this, cache_dir] {
        try {
            CppJit jit(cache_dir, cfg_.jit_cache,
                       CppJit::kWholeDesignFlags);
            pending_libs_ = jit.compileMany(
                island_sources_, island_nunits_, CppJitLibrary::Abi::Unit);
        } catch (...) {
            jit_error_ = std::current_exception();
        }
        jit_ready_.store(true, std::memory_order_release);
    });
}

void
ParSimulationTool::adoptNativeTier()
{
    // Aggregate over the per-island libraries: total build time, and
    // a cache hit only when every island's TU hit.
    spec_stats_.compileSeconds = 0.0;
    spec_stats_.wrapSeconds = 0.0;
    spec_stats_.cacheHit = !island_libs_.empty();
    for (const CppJitLibrary &lib : island_libs_) {
        spec_stats_.compileSeconds += lib.compileSeconds();
        spec_stats_.wrapSeconds += lib.wrapSeconds();
        spec_stats_.cacheHit = spec_stats_.cacheHit && lib.cacheHit();
    }
    spec_stats_.numGroups = design_nunits_;
    spec_stats_.tierSwapCycle = static_cast<int64_t>(numCycles());
    comb_steps_ = std::move(nat_comb_steps_);
    tick_steps_ = std::move(nat_tick_steps_);
    island_flop_fn_.assign(plan_.nislands, nullptr);
    for (int i = 0; i < plan_.nislands; ++i) {
        const auto &fns = island_libs_[i].units();
        for (auto *steps : {&comb_steps_[i], &tick_steps_[i]}) {
            for (PStep &step : *steps) {
                if (step.kind == PStep::Kind::Native)
                    step.unit_fn = fns[step.group];
            }
        }
        island_flop_fn_[i] = fns[island_flop_unit_[i]];
    }
    design_native_ = true;
}

void
ParSimulationTool::maybeSwapTier()
{
    if (!designMode() || design_native_ || tier_failed_ ||
        !cfg_.jit_tiered)
        return;
    if (!jit_ready_.load(std::memory_order_acquire))
        return;
    if (jit_thread_.joinable())
        jit_thread_.join();
    if (jit_error_) {
        tier_failed_ = true;
        std::exception_ptr err = jit_error_;
        jit_error_ = nullptr;
        std::rethrow_exception(err);
    }
    island_libs_ = std::move(pending_libs_);
    // Every worker is parked before the next start barrier; the
    // barrier that releases them also publishes the swapped schedules.
    adoptNativeTier();
}

bool
ParSimulationTool::tierPending() const
{
    return designMode() && cfg_.jit_tiered && !design_native_ &&
           !tier_failed_;
}

LayoutStats
ParSimulationTool::layoutStats() const
{
    LayoutStats s = replicas_[0]->layout().stats();
    for (const FlopCopyPlan &fplan : island_flop_plans_)
        s.flop_memcpy_ranges += static_cast<int>(fplan.ranges.size());
    return s;
}

// ------------------------------------------------------ thread pool

void
ParSimulationTool::startWorkers()
{
    workers_.reserve(plan_.nislands);
    for (int i = 0; i < plan_.nislands; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

void
ParSimulationTool::shutdownWorkers()
{
    if (workers_.empty())
        return;
    cmd_ = Cmd::Exit;
    bar_all_.arriveAndWait();
    for (std::thread &t : workers_)
        t.join();
    workers_.clear();
}

void
ParSimulationTool::workerLoop(int island)
{
    tls_island = island;
    // Done-barrier wait of the previous phase, banked locally: the
    // probe must never be touched after the done barrier (the
    // coordinator may detach/destroy it once cycle() returns), so the
    // sample is flushed here, after the next start barrier, when the
    // coordinator is provably inside a phase.
    double pending_bar = 0.0;
    for (;;) {
        bar_all_.arriveAndWait(); // start: cmd_ published by coordinator
        Cmd cmd = cmd_;
        if (cmd == Cmd::Exit)
            return;
        // probe_ is only swapped while workers are parked at the start
        // barrier, so one read per iteration is stable.
        ScopeProbe *p = probe_;
        if (p)
            p->island_barrier_seconds[island] += pending_bar;
        pending_bar = 0.0;
        double bar_before =
            p ? p->island_barrier_seconds[island] : 0.0;
        Stopwatch sw;
        try {
            switch (cmd) {
              case Cmd::Settle:
                runIslandSettle(island);
                break;
              case Cmd::Tick:
                runIslandTick(island);
                break;
              case Cmd::Flop:
                runIslandFlop(island);
                break;
              case Cmd::Exit:
                break;
            }
        } catch (...) {
            std::lock_guard<std::mutex> lock(error_mu_);
            if (!worker_error_)
                worker_error_ = std::current_exception();
            failed_.store(true, std::memory_order_release);
        }
        if (p) {
            // Superstep barrier waits accumulated inside the phase are
            // barrier time, not compute time.
            double bar_during =
                p->island_barrier_seconds[island] - bar_before;
            double compute = sw.elapsed() - bar_during;
            switch (cmd) {
              case Cmd::Settle:
                p->island_settle_seconds[island] += compute;
                break;
              case Cmd::Tick:
                p->island_tick_seconds[island] += compute;
                break;
              case Cmd::Flop:
                p->island_flop_seconds[island] += compute;
                break;
              case Cmd::Exit:
                break;
            }
            Stopwatch swb;
            bar_all_.arriveAndWait(); // done
            pending_bar = swb.elapsed();
        } else {
            bar_all_.arriveAndWait(); // done
        }
    }
}

void
ParSimulationTool::runPhase(Cmd cmd)
{
    cmd_ = cmd;
    bar_all_.arriveAndWait(); // start
    if (cmd == Cmd::Tick) {
        // Tick lambdas (undeclared effects) always run here, in
        // declaration order: sequential semantics by construction.
        for (int b : plan_.lambdaTicks) {
            if (probe_ && probe_->shouldTime(b)) {
                Stopwatch sw;
                elab_->blocks[b].fn();
                probe_->addBlockTime(b, sw.elapsed());
            } else {
                elab_->blocks[b].fn();
            }
        }
    } else if (cmd == Cmd::Flop) {
        // Dynamically registered flops were written into every
        // replica's next region at writeNext time; flopping each
        // replica yields the same current value everywhere. These nets
        // are disjoint from every island's flop and push targets.
        for (int net : main_flops_) {
            bool ch = false;
            for (auto &replica : replicas_)
                ch |= replica->flop(net);
            if (ch && gating_)
                markReaderIslandsDirty(net);
        }
    }
    bar_all_.arriveAndWait(); // done
    if (failed_.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(error_mu_);
        failed_.store(false, std::memory_order_relaxed);
        std::exception_ptr err = worker_error_;
        worker_error_ = nullptr;
        std::rethrow_exception(err);
    }
}

// -------------------------------------------------- island execution

void
ParSimulationTool::runPStep(int island, const PStep &step)
{
    // Per-block counters are written only by the executing island's
    // worker (each block belongs to exactly one island), so the probe
    // needs no synchronization here.
    if (ScopeProbe *p = probe_) {
        if (p->shouldTime(step.block)) {
            Stopwatch sw;
            runPStepImpl(island, step);
            p->addBlockTime(step.block, sw.elapsed());
            return;
        }
    }
    runPStepImpl(island, step);
}

void
ParSimulationTool::runPStepImpl(int island, const PStep &step)
{
    switch (step.kind) {
      case PStep::Kind::Slot:
        evals_[island]->run(elab_->blocks[step.block], nullptr);
        break;
      case PStep::Kind::Bytecode:
        bcRun(bc_programs_[step.block], replicas_[island]->data(),
              bc_scratch_[island].data());
        break;
      case PStep::Kind::Native:
        // cpp-design fused steps are units of the island's own
        // library; cpp-block groups are blocks of the shared one.
        if (step.unit_fn)
            step.unit_fn(replicas_[island]->data());
        else
            step.block_fn(replicas_[island]->data());
        break;
    }
}

void
ParSimulationTool::pushCur(int island, const CopyOp &op)
{
    const uint64_t *src = replicas_[island]->data() + op.off;
    uint64_t *dst = replicas_[op.dst]->data() + op.off;
    const size_t bytes = static_cast<size_t>(op.n) * sizeof(uint64_t);
    if (gating_) {
        // Compare before copying: an identical push changes nothing in
        // the destination replica, so it neither copies nor dirties
        // the destination island.
        if (std::memcmp(dst, src, bytes) == 0)
            return;
        island_dirty_[op.dst].store(1, std::memory_order_relaxed);
    }
    std::memcpy(dst, src, bytes);
    if (ScopeProbe *p = probe_) {
        p->island_boundary_bytes[island] += bytes;
    }
}

void
ParSimulationTool::runIslandSettle(int island)
{
    if (gating_ && !settle_active_[island]) {
        // Quiescent island: no input changed since its last settle, so
        // every step would recompute the value its replica already
        // holds and every push would copy bytes the destinations
        // already have. Peers still wait on the superstep barriers, so
        // only those are joined.
        for (int lvl = 0; lvl + 1 < plan_.nlevels; ++lvl) {
            if (ScopeProbe *p = probe_) {
                Stopwatch sw;
                bar_workers_.arriveAndWait();
                p->island_barrier_seconds[island] += sw.elapsed();
            } else {
                bar_workers_.arriveAndWait();
            }
        }
        return;
    }
    const std::vector<PStep> &steps = comb_steps_[island];
    size_t k = 0;
    for (int lvl = 0; lvl < plan_.nlevels; ++lvl) {
        for (; k < steps.size() && steps[k].level == lvl; ++k)
            runPStep(island, steps[k]);
        for (const CopyOp &op : comb_pushes_[island][lvl])
            pushCur(island, op);
        // Cross-island readers of this superstep's values run at a
        // later level, after this barrier publishes the pushes.
        if (lvl + 1 < plan_.nlevels) {
            if (ScopeProbe *p = probe_) {
                Stopwatch sw;
                bar_workers_.arriveAndWait();
                p->island_barrier_seconds[island] += sw.elapsed();
            } else {
                bar_workers_.arriveAndWait();
            }
        }
    }
}

void
ParSimulationTool::runIslandTick(int island)
{
    for (const PStep &step : tick_steps_[island])
        runPStep(island, step);
}

void
ParSimulationTool::runIslandFlop(int island)
{
    if (design_native_) {
        island_flop_fn_[island](replicas_[island]->data());
    } else if (gating_) {
        // Gating needs per-net change detection to dirty the island.
        bool changed = false;
        for (int net : plan_.islands[island].flopNets)
            changed |= replicas_[island]->flop(net);
        if (changed)
            island_dirty_[island].store(1, std::memory_order_relaxed);
    } else {
        // Whole-word range copies of the island's static flop set.
        replicas_[island]->flopRanges(island_flop_plans_[island].ranges);
    }
    // Publish post-flop (and blocking-tick-written) current values.
    // No barrier needed before the pushes: each copied net is owned by
    // exactly one island, and flop targets are island-owned too, so
    // all concurrent writes land in disjoint words.
    for (const CopyOp &op : flop_pushes_[island])
        pushCur(island, op);
}

// ------------------------------------------------------- simulation

void
ParSimulationTool::settlePhase()
{
    if (gating_) {
        // Publish the phase's active set: the dirty islands, closed
        // transitively over the static push graph (an active island's
        // outputs may change mid-settle, so every island it pushes to
        // must run too). Workers read settle_active_ after the start
        // barrier inside runPhase.
        const int n = plan_.nislands;
        std::vector<int> frontier;
        for (int i = 0; i < n; ++i) {
            settle_active_[i] =
                island_dirty_[i].load(std::memory_order_relaxed) ? 1
                                                                 : 0;
            if (settle_active_[i])
                frontier.push_back(i);
        }
        while (!frontier.empty()) {
            int i = frontier.back();
            frontier.pop_back();
            for (int j : comb_push_islands_[i]) {
                if (!settle_active_[j]) {
                    settle_active_[j] = 1;
                    frontier.push_back(j);
                }
            }
        }
        runPhase(Cmd::Settle);
        for (int i = 0; i < n; ++i) {
            if (!settle_active_[i]) {
                gated_steps_ +=
                    static_cast<uint64_t>(plan_.nlevels);
                if (probe_ &&
                    static_cast<int>(
                        probe_->island_gated_supersteps.size()) > i) {
                    probe_->island_gated_supersteps[i] +=
                        static_cast<uint64_t>(plan_.nlevels);
                }
            }
            // Active islands just settled; quiescent ones were clean
            // already. Mid-phase marks (pushes between active islands)
            // were consumed by the later supersteps of this phase.
            island_dirty_[i].store(0, std::memory_order_relaxed);
        }
    } else {
        runPhase(Cmd::Settle);
    }
    dirty_ = false;
}

void
ParSimulationTool::cycle()
{
    maybeSwapTier();
    if (dirty_)
        settlePhase();
    runPhase(Cmd::Tick);
    if (gating_) {
        for (int i = 0; i < plan_.nislands; ++i) {
            if (tick_dirty_island_[i])
                island_dirty_[i].store(1, std::memory_order_relaxed);
        }
    }
    runPhase(Cmd::Flop);
    settlePhase();
    uint64_t now = ncycles_.fetch_add(1, std::memory_order_relaxed) + 1;
    for (const auto &hook : cycle_hooks_)
        hook(now);
}

void
ParSimulationTool::eval()
{
    maybeSwapTier();
    settlePhase();
}

// ----------------------------------------------------- signal access

ArenaStore &
ParSimulationTool::replicaFor(int net) const
{
    if (tls_island >= 0)
        return *replicas_[tls_island];
    int owner = plan_.ownerOf[net];
    return *replicas_[owner >= 0 ? owner : 0];
}

void
ParSimulationTool::markMainFlop(int net)
{
    if (!is_main_flop_[net]) {
        is_main_flop_[net] = 1;
        main_flops_.push_back(net);
    }
}

Bits
ParSimulationTool::readNet(int net) const
{
    return replicaFor(net).read(net);
}

Bits
ParSimulationTool::read(const Signal &sig) const
{
    return replicaFor(sig.netId()).read(sig.netId());
}

void
ParSimulationTool::write(Signal &sig, const Bits &value)
{
    int net = sig.netId();
    if (tls_island >= 0) {
        // Comb lambda on a worker: writes are declared, so the push
        // lists already publish them; change detection is not needed
        // under static scheduling.
        replicas_[tls_island]->write(net, value);
        return;
    }
    // Coordinator (test bench or tick lambda): keep every replica
    // coherent so any reader island sees the value next phase.
    bool changed = replicaFor(net).write(net, value);
    for (auto &replica : replicas_)
        replica->write(net, value);
    if (changed) {
        dirty_ = true;
        if (gating_)
            markReaderIslandsDirty(net);
    }
}

void
ParSimulationTool::writeNext(Signal &sig, const Bits &value)
{
    int net = sig.netId();
    if (tls_island >= 0) {
        replicas_[tls_island]->writeNext(net, value);
        return;
    }
    for (auto &replica : replicas_)
        replica->writeNext(net, value);
    if (!static_island_flop_[net])
        markMainFlop(net);
}

// ------------------------------------------- SimSnap state capture

Bits
ParSimulationTool::readNetNext(int net) const
{
    return accessor_.readNetNext(net);
}

void
ParSimulationTool::pokeNet(int net, const Bits &value)
{
    accessor_.pokeNet(net, value);
}

void
ParSimulationTool::pokeNetNext(int net, const Bits &value)
{
    accessor_.pokeNetNext(net, value);
}

std::vector<int>
ParSimulationTool::dynamicFlopNets() const
{
    return NetAccessor::dynamicFlops(*elab_, main_flops_);
}

void
ParSimulationTool::registerDynamicFlops(const std::vector<int> &nets)
{
    for (int net : nets)
        if (!static_island_flop_[net])
            markMainFlop(net);
}

Bits
ParSimulationTool::readArray(const MemArray &array, uint64_t index) const
{
    int owner = plan_.ownerOf[elab_->arrayToken(array.arrayId())];
    return replicas_[owner >= 0 ? owner : 0]->arrayRead(array.arrayId(),
                                                        index);
}

void
ParSimulationTool::writeArray(MemArray &array, uint64_t index,
                              const Bits &value)
{
    int owner = plan_.ownerOf[elab_->arrayToken(array.arrayId())];
    replicas_[owner >= 0 ? owner : 0]->arrayWrite(array.arrayId(), index,
                                                  value);
    dirty_ = true;
    if (gating_)
        markReaderIslandsDirty(elab_->arrayToken(array.arrayId()));
}

// ---------------------------------------------------------- factory

std::unique_ptr<Simulator>
makeSimulator(std::shared_ptr<Elaboration> elab, SimConfig cfg)
{
    if (cfg.threads <= 1)
        return std::make_unique<SimulationTool>(std::move(elab), cfg);
    return std::make_unique<ParSimulationTool>(std::move(elab), cfg);
}

} // namespace cmtl
