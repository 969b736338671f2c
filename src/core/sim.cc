#include "sim.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <queue>
#include <stdexcept>
#include <utility>

#include "dataflow.h"
#include "ir_cpp.h"
#include "timing.h"

namespace cmtl {

// -------------------------------------------------------------- SimConfig

namespace {

/** Every Backend with its one canonical name. */
constexpr std::pair<Backend, const char *> kBackendNames[] = {
    {Backend::Interp, "interp"},
    {Backend::OptInterp, "optinterp"},
    {Backend::Bytecode, "bytecode"},
    {Backend::CppBlock, "cpp-block"},
    {Backend::CppDesign, "cpp-design"},
    {Backend::InterpBytecode, "interp+bytecode"},
    {Backend::InterpCppBlock, "interp+cpp-block"},
};

} // namespace

std::string
SimConfig::toString() const
{
    for (const auto &[b, name] : kBackendNames) {
        if (b == backend)
            return name;
    }
    throw std::logic_error("unnamed backend");
}

SimConfig
SimConfig::fromString(const std::string &name)
{
    for (const auto &[b, canonical] : kBackendNames) {
        if (name == canonical) {
            SimConfig cfg;
            cfg.backend = b;
            return cfg;
        }
    }
    throw std::invalid_argument(
        "unknown backend '" + name +
        "' (expected interp, optinterp, bytecode, cpp-block, "
        "cpp-design, interp+bytecode or interp+cpp-block)");
}

// ------------------------------------------------------------- Simulator

void
Simulator::cycle(uint64_t n)
{
    for (uint64_t i = 0; i < n; ++i)
        cycle();
}

bool
Simulator::runUntil(uint64_t target_cycle)
{
    while (numCycles() < target_cycle) {
        // Consume the request so the next runUntil resumes cleanly; a
        // request landing mid-cycle() is honored before the next one.
        if (pause_requested_.exchange(false, std::memory_order_acq_rel))
            return false;
        cycle();
    }
    return true;
}

void
Simulator::reset(int ncycles)
{
    elab_->top->reset.setValue(uint64_t(1));
    cycle(static_cast<uint64_t>(ncycles));
    elab_->top->reset.setValue(uint64_t(0));
}

std::string
Simulator::lineTrace() const
{
    std::string out;
    for (const Model *m : elab_->models) {
        std::string part = m->lineTrace();
        if (part.empty())
            continue;
        if (!out.empty())
            out += " | ";
        out += part;
    }
    return out;
}

// -------------------------------------------------------- SimulationTool

SimulationTool::SimulationTool(std::shared_ptr<Elaboration> elab,
                               SimConfig cfg)
    : Simulator(std::move(elab), cfg),
      boxed_host_(backendBoxedHost(cfg.backend))
{
    Stopwatch sw;

    event_driven_ = cfg_.sched == SchedMode::Event ||
                    (cfg_.sched == SchedMode::Auto && useBoxed());
    if (designMode() && event_driven_) {
        throw std::logic_error(
            "cpp-design fuses the static levelized schedule; "
            "SchedMode::Event is incompatible");
    }
    if (!event_driven_ && elab_->hasCombCycle) {
        throw std::logic_error(
            "design has a combinational cycle; static scheduling is "
            "impossible (use SchedMode::Event)");
    }

    if (useBoxed())
        boxed_ = std::make_unique<BoxedStore>(*elab_);
    if (!useBoxed() || specialized()) {
        // Sequential kernel: no partition plan, and heat arrives only
        // later through the PGO loop — the static profile layout
        // groups by producer-block schedule order for now.
        auto lay = std::make_shared<const ArenaLayout>(
            cfg_.layout == LayoutPolicy::Profile
                ? ArenaLayout::profiled(*elab_, nullptr, nullptr)
                : ArenaLayout::elabOrder(*elab_));
        arena_ = std::make_unique<ArenaStore>(*elab_, std::move(lay));
    }
    if (boxed_)
        boxed_eval_ = std::make_unique<BoxedEvaluator>(*boxed_);
    if (arena_)
        slot_eval_ = std::make_unique<SlotEvaluator>(*arena_);

    for (Signal *sig : elab_->signals)
        sig->setAccess(this);

    const size_t nnets = elab_->nets.size();
    is_flopped_.assign(nnets, 0);
    for (const Net &net : elab_->nets) {
        if (net.floppedStatic)
            markFlopped(net.id);
    }
    // The static flop set is final here; nets registered later (a
    // lambda's writeNext) append past this prefix and get their own
    // copy plan (flopDynamic). The copy plan coalesces the static set
    // into whole-word ranges where the layout allows.
    n_static_flops_ = flopped_nets_.size();
    dyn_planned_ = n_static_flops_;
    if (arena_)
        flop_plan_ = arena_->layout().flopPlan(flopped_nets_);
    publishSlotView();

    // Arrays written by tick blocks re-trigger their readers each
    // cycle under event-driven scheduling.
    for (const ElabBlock &blk : elab_->blocks) {
        if (!isTick(blk.kind))
            continue;
        for (int token : blk.writes) {
            if (token >= static_cast<int>(nnets))
                tick_array_tokens_.push_back(token);
        }
    }

    dead_block_.assign(elab_->blocks.size(), 0);
    if (cfg_.dead_elim) {
        DataflowResult flow = dataflowAnalyze(*elab_);
        for (int b : flow.deadCombBlocks())
            dead_block_[b] = 1;
        spec_stats_.deadBlocksElided = flow.deadBlocks;
        spec_stats_.deadNetsElided = flow.deadNets;
    }

    buildSchedule();
    double create_before_spec = sw.elapsed();
    if (specialized())
        specialize();

    accessor_.bind(arena_.get(), boxed_.get(),
                   [this](int token) { return tokenInArena(token); });
    accessor_.onPokeChanged([this](int net) {
        dirty_ = true;
        if (eventDriven())
            enqueueReaders(net);
        else if (gating_)
            markTokenBlocksDirty(net);
    });

    in_worklist_.assign(comb_steps_.size(), 0);
    if (eventDriven()) {
        // Seed the worklist with every combinational step.
        for (size_t i = 0; i < comb_steps_.size(); ++i) {
            worklist_.push_back(static_cast<int>(i));
            in_worklist_[i] = 1;
        }
    }
    buildGating();

    spec_stats_.simCreateSeconds =
        create_before_spec +
        (sw.elapsed() - create_before_spec - spec_stats_.codegenSeconds -
         spec_stats_.compileSeconds - spec_stats_.wrapSeconds);
}

SimulationTool::~SimulationTool()
{
    if (jit_thread_.joinable())
        jit_thread_.join();
    for (Signal *sig : elab_->signals) {
        if (sig->access() == this)
            sig->setAccess(nullptr);
    }
}

void
SimulationTool::publishSlotView()
{
    if (!arena_ || useBoxed())
        return;
    view_.words = arena_->data();
    view_.phase = arena_->wordsPerPhase();
    view_.offset = arena_->narrowOffsets();
    view_.shift = arena_->shifts();
    view_.flopped = is_flopped_.data();
}

SimulationTool::Step
SimulationTool::makeStep(int idx) const
{
    const ElabBlock &blk = elab_->blocks[idx];
    Step step;
    step.block = idx;
    step.reads = &blk.reads;
    step.writes = &blk.writes;
    step.sequential = isTick(blk.kind);
    switch (blk.kind) {
      case BlockKind::TickFl:
      case BlockKind::TickCl:
      case BlockKind::CombLambda:
        step.kind = Step::Kind::Lambda;
        break;
      case BlockKind::TickIr:
      case BlockKind::CombIr:
        step.kind = useBoxed() ? Step::Kind::BoxedIr
                               : Step::Kind::SlotIr;
        break;
    }
    return step;
}

void
SimulationTool::buildSchedule()
{
    const auto &blocks = elab_->blocks;
    spec_stats_.numBlocks = static_cast<int>(blocks.size());
    comb_step_of_block_.assign(blocks.size(), -1);

    // Combinational steps in topological order when available.
    std::vector<int> comb_order = elab_->combOrder;
    if (elab_->hasCombCycle) {
        comb_order.clear();
        for (size_t i = 0; i < blocks.size(); ++i) {
            if (!isTick(blocks[i].kind))
                comb_order.push_back(static_cast<int>(i));
        }
    }
    for (int idx : comb_order) {
        // Dead-logic elimination: proven-dead comb blocks never enter
        // the schedule (their step index stays -1, which the
        // event-driven enqueue path already skips).
        if (dead_block_[idx])
            continue;
        comb_step_of_block_[idx] = static_cast<int>(comb_steps_.size());
        comb_steps_.push_back(makeStep(idx));
    }
    for (int idx : elab_->tickOrder)
        tick_steps_.push_back(makeStep(idx));
}

void
SimulationTool::specialize()
{
    Stopwatch sw;
    const auto &blocks = elab_->blocks;
    std::vector<char> can(blocks.size(), 0);
    for (size_t i = 0; i < blocks.size(); ++i) {
        if (blocks[i].ir && bcSpecializable(blocks[i], *arena_)) {
            can[i] = 1;
            ++spec_stats_.numSpecialized;
        }
    }

    // Hybrid storage ownership: a token is arena-owned when it has a
    // writer, every writer is specialized, and no unspecialized IR
    // block touches it (lambda blocks and test benches access signals
    // through SignalAccess, which dispatches on ownership; boxed IR
    // evaluation does not).
    if (useBoxed()) {
        const size_t ntokens = elab_->nets.size() + elab_->arrays.size();
        std::vector<char> has_writer(ntokens, 0);
        std::vector<char> unspec_writer(ntokens, 0);
        std::vector<char> unspec_ir(ntokens, 0);
        for (size_t i = 0; i < blocks.size(); ++i) {
            for (int tok : blocks[i].writes) {
                has_writer[tok] = 1;
                if (!can[i])
                    unspec_writer[tok] = 1;
            }
            if (blocks[i].ir && !can[i]) {
                for (int tok : blocks[i].reads)
                    unspec_ir[tok] = 1;
                for (int tok : blocks[i].writes)
                    unspec_ir[tok] = 1;
            }
        }
        token_in_arena_.assign(ntokens, 0);
        for (size_t tok = 0; tok < ntokens; ++tok) {
            token_in_arena_[tok] = has_writer[tok] &&
                                   !unspec_writer[tok] &&
                                   !unspec_ir[tok];
        }
    }

    // Fuse contiguous runs of specializable blocks into groups, the
    // way SimJIT translates a whole component subtree into one
    // compiled unit: one entry point, one marshal boundary. Fusing
    // combinational blocks is legal because the comb schedule is a
    // fixed topological order and running a comb block with unchanged
    // inputs is idempotent; under event-driven scheduling the fused
    // group simply becomes the scheduling unit.
    //
    // cpp-block deliberately does NOT fuse: every specialized block is
    // its own compiled entry point, crossing the C ABI once per block
    // per phase (the paper's per-component SimJIT granularity and the
    // baseline cpp-design is measured against). cpp-design groups here
    // describe its bytecode warm-up tier; the fused native schedule is
    // built separately in specializeDesign().
    const bool design = designMode();
    const bool per_block = perBlockCpp();
    std::vector<std::vector<int>> groups;
    auto groupSteps = [&](std::vector<Step> &steps) {
        std::vector<Step> out;
        size_t i = 0;
        while (i < steps.size()) {
            if (!can[steps[i].block]) {
                out.push_back(steps[i]);
                ++i;
                continue;
            }
            std::vector<int> group;
            std::vector<int> reads, writes;
            size_t j = i;
            while (j < steps.size() && can[steps[j].block] &&
                   steps[j].sequential == steps[i].sequential &&
                   (group.empty() || !per_block)) {
                group.push_back(steps[j].block);
                const ElabBlock &blk = blocks[steps[j].block];
                reads.insert(reads.end(), blk.reads.begin(),
                             blk.reads.end());
                writes.insert(writes.end(), blk.writes.begin(),
                              blk.writes.end());
                ++j;
            }
            std::sort(reads.begin(), reads.end());
            reads.erase(std::unique(reads.begin(), reads.end()),
                        reads.end());
            std::sort(writes.begin(), writes.end());
            writes.erase(std::unique(writes.begin(), writes.end()),
                         writes.end());

            Step step;
            step.kind =
                per_block ? Step::Kind::Native : Step::Kind::Bytecode;
            step.block = steps[i].block;
            step.group = static_cast<int>(groups.size());
            step.sequential = steps[i].sequential;
            groups.push_back(std::move(group));
            group_reads_.push_back(std::move(reads));
            group_writes_.push_back(std::move(writes));
            step.reads = &group_reads_.back();
            step.writes = &group_writes_.back();
            out.push_back(step);
            i = j;
        }
        steps = std::move(out);
    };
    groupSteps(comb_steps_);
    groupSteps(tick_steps_);

    // group_reads_/group_writes_ grew by push_back; re-point the steps
    // now that the vectors' addresses are final.
    {
        auto repoint = [&](std::vector<Step> &steps) {
            for (Step &step : steps) {
                if (step.group >= 0) {
                    step.reads = &group_reads_[step.group];
                    step.writes = &group_writes_[step.group];
                }
            }
        };
        repoint(comb_steps_);
        repoint(tick_steps_);
    }

    // Rebuild the block -> comb step map after fusion: every member
    // block of a fused group maps to the group's step.
    comb_step_of_block_.assign(blocks.size(), -1);
    for (size_t i = 0; i < comb_steps_.size(); ++i) {
        const Step &step = comb_steps_[i];
        if (step.group >= 0) {
            for (int blk : groups[step.group]) {
                if (!isTick(blocks[blk].kind))
                    comb_step_of_block_[blk] = static_cast<int>(i);
            }
        } else {
            comb_step_of_block_[step.block] = static_cast<int>(i);
        }
    }

    spec_stats_.numGroups = static_cast<int>(groups.size());
    group_blocks_ = groups;

    if (!per_block) {
        bc_programs_.resize(blocks.size());
        int max_scratch = 0;
        group_bc_.resize(groups.size());
        for (size_t g = 0; g < groups.size(); ++g) {
            for (int blk : groups[g]) {
                bc_programs_[blk] = bcCompile(blocks[blk], *arena_);
                max_scratch =
                    std::max(max_scratch, bc_programs_[blk].nscratch);
                group_bc_[g].push_back(&bc_programs_[blk]);
            }
        }
        bc_scratch_.assign(static_cast<size_t>(max_scratch) + 1, 0);
        spec_stats_.codegenSeconds = sw.elapsed();
        if (!design)
            return;
        if (pgoActive()) {
            // Defer TU emission past the warm-up window: the bytecode
            // tier runs while the probe gathers block heat, then
            // startPgoBuild() derives the heat-refined layout and
            // emits against it. An internal sampled probe stands in
            // when no SimScope is attached.
            can_ = can;
            pgo_pending_ = true;
            spec_stats_.tiered = true;
            if (!probe_) {
                pgo_probe_ = std::make_unique<ScopeProbe>();
                pgo_probe_->exact = false;
                pgo_probe_->block_seconds.assign(blocks.size(), 0.0);
                pgo_probe_->block_calls.assign(blocks.size(), 0);
                pgo_probe_->until_sample.assign(
                    blocks.size(), pgo_probe_->sample_period);
                probe_ = pgo_probe_.get();
            }
            return;
        }
        specializeDesign(can, nullptr);
        return;
    }

    std::string source = cppEmitProgram(*elab_, *arena_, groups);
    spec_stats_.codegenSeconds = sw.elapsed();
    spec_stats_.emittedTuBytes = source.size();

    CppJit jit(cfg_.jit_cache_dir.empty() ? CppJit::defaultCacheDir()
                                          : cfg_.jit_cache_dir,
               cfg_.jit_cache);
    cpp_lib_ = jit.compile(source, static_cast<int>(groups.size()),
                           CppJitLibrary::Abi::Block);
    spec_stats_.compileSeconds = cpp_lib_.compileSeconds();
    spec_stats_.wrapSeconds = cpp_lib_.wrapSeconds();
    spec_stats_.cacheHit = cpp_lib_.cacheHit();
    for (auto *steps : {&comb_steps_, &tick_steps_}) {
        for (Step &step : *steps) {
            if (step.kind == Step::Kind::Native)
                step.block_fn = cpp_lib_.blocks()[step.group];
        }
    }
}

std::vector<int>
SimulationTool::designCombOrder(const std::vector<char> &can,
                                const std::vector<double> *heat) const
{
    // Any topological order of the comb dependency graph settles to
    // the same fixed point (each block runs once, after all writers of
    // its inputs), so we are free to re-levelize for fusion: a Kahn
    // traversal that prefers to keep emitting blocks of the current
    // specialization class clusters the specializable blocks into the
    // fewest contiguous runs — ideally the whole phase becomes one
    // compiled unit. Multiple writers of one token keep their relative
    // order from the baseline schedule via writer->writer chain edges.
    const auto &blocks = elab_->blocks;
    // Dead blocks never reach the schedule; a live block never reads a
    // dead block's output (that read would make the writer live), so
    // dropping them here leaves a closed dependency graph.
    std::vector<int> base;
    base.reserve(elab_->combOrder.size());
    for (int b : elab_->combOrder)
        if (!dead_block_[b])
            base.push_back(b);
    std::vector<int> pos(blocks.size(), -1);
    for (size_t i = 0; i < base.size(); ++i)
        pos[base[i]] = static_cast<int>(i);
    if (heat) {
        // PGO: among ready blocks prefer the hottest first, so the
        // fused unit executes hot logic in measured-heat order while
        // the Kahn traversal keeps the order topological (any topo
        // order settles to the same fixed point — see above). Sampled
        // heat is noisy, and a total order by raw heat lets that
        // jitter scramble the locality the baseline schedule already
        // has — on a homogeneous design (the fig14 mesh) the shuffle
        // costs 10-20% throughput for no gain. Quantize heat into
        // power-of-two buckets instead: only order-of-magnitude
        // differences move a block, ties keep the fusion-friendly
        // schedule order.
        std::vector<int> bucket(blocks.size(), 64);
        double hmax = 0.0;
        for (int b : base)
            hmax = std::max(hmax, (*heat)[b]);
        if (hmax > 0.0) {
            for (int b : base) {
                const double h = (*heat)[b];
                if (h <= 0.0)
                    continue;
                int k = 0;
                double t = hmax;
                while (k < 63 && h < t / 8) {
                    t /= 8;
                    ++k;
                }
                bucket[b] = k;
            }
            std::vector<int> by_heat = base;
            std::stable_sort(by_heat.begin(), by_heat.end(),
                             [&](int a, int b) {
                                 return bucket[a] < bucket[b];
                             });
            for (size_t i = 0; i < by_heat.size(); ++i)
                pos[by_heat[i]] = static_cast<int>(i);
        }
    }

    const size_t ntokens = elab_->nets.size() + elab_->arrays.size();
    std::vector<std::vector<int>> writers(ntokens);
    for (int b : base) {
        for (int tok : blocks[b].writes)
            writers[tok].push_back(b);
    }
    std::vector<std::vector<int>> succ(blocks.size());
    std::vector<int> indeg(blocks.size(), 0);
    auto addEdge = [&](int a, int b) {
        if (a == b)
            return;
        succ[a].push_back(b);
        ++indeg[b];
    };
    for (int b : base) {
        for (int tok : blocks[b].reads) {
            for (int wtr : writers[tok])
                addEdge(wtr, b);
        }
    }
    for (const auto &ws : writers) {
        for (size_t i = 1; i < ws.size(); ++i)
            addEdge(ws[i - 1], ws[i]);
    }

    auto later = [&](int a, int b) { return pos[a] > pos[b]; };
    using Queue = std::priority_queue<int, std::vector<int>, decltype(later)>;
    Queue ready[2] = {Queue(later), Queue(later)};
    for (int b : base) {
        if (indeg[b] == 0)
            ready[can[b] ? 1 : 0].push(b);
    }
    std::vector<int> order;
    order.reserve(base.size());
    int cls = 1;
    while (order.size() < base.size()) {
        if (ready[cls].empty()) {
            if (ready[1 - cls].empty())
                break;
            cls = 1 - cls;
        }
        int b = ready[cls].top();
        ready[cls].pop();
        order.push_back(b);
        for (int s : succ[b]) {
            if (--indeg[s] == 0)
                ready[can[s] ? 1 : 0].push(s);
        }
    }
    if (order.size() != base.size())
        return base; // defensive: fall back to the baseline order
    return order;
}

void
SimulationTool::specializeDesign(const std::vector<char> &can,
                                 const std::vector<double> *heat)
{
    Stopwatch sw;
    // PGO emits against the heat-refined arena awaiting adoption; the
    // plain path emits against the live one. Offsets baked into the
    // module always match the arena it will run on.
    ArenaStore &store = pgo_arena_ ? *pgo_arena_ : *arena_;
    // Native whole-design schedule: cluster the specializable blocks
    // with a class-aware levelization, fuse each contiguous run into
    // one emitted unit, and translate the flop phase itself.
    std::vector<CppUnit> units;
    auto addNativeStep = [&](const std::vector<int> &run,
                             std::vector<Step> &out, bool seq) {
        Step step;
        step.kind = Step::Kind::Native;
        step.block = run.front();
        step.group = static_cast<int>(units.size());
        step.sequential = seq;
        const ElabBlock &blk = elab_->blocks[run.front()];
        step.reads = &blk.reads; // unused on the pure-arena path
        step.writes = &blk.writes;
        CppUnit unit;
        for (int b : run)
            unit.items.push_back(CppUnit::Item{b});
        units.push_back(std::move(unit));
        out.push_back(step);
    };
    auto buildSteps = [&](const std::vector<int> &order,
                          std::vector<Step> &out, bool seq) {
        std::vector<int> run;
        for (int b : order) {
            if (can[b]) {
                run.push_back(b);
                continue;
            }
            if (!run.empty()) {
                addNativeStep(run, out, seq);
                run.clear();
            }
            out.push_back(makeStep(b));
        }
        if (!run.empty())
            addNativeStep(run, out, seq);
    };
    buildSteps(designCombOrder(can, heat), design_comb_steps_, false);
    buildSteps(elab_->tickOrder, design_tick_steps_, true);

    // The flop phase of the static flop set, coalesced into whole-word
    // next->current copy ranges. Nets registered dynamically later (a
    // lambda's writeNext) get their own plan — see flopDynamic.
    std::vector<int> static_flops(flopped_nets_.begin(),
                                  flopped_nets_.begin() +
                                      static_cast<long>(n_static_flops_));
    FlopCopyPlan plan = store.layout().flopPlan(static_flops);
    CppUnit flop_unit;
    for (const FlopRange &r : plan.ranges)
        flop_unit.items.push_back(CppUnit::Item{-1, r.off, r.nwords});
    design_flop_unit_ = static_cast<int>(units.size());
    units.push_back(flop_unit);

    // When every tick and comb block fused, also emit one whole-cycle
    // step() entry point — ticks, flops, settle in a single call.
    bool comb_native =
        design_comb_steps_.empty() ||
        (design_comb_steps_.size() == 1 &&
         design_comb_steps_[0].kind == Step::Kind::Native);
    bool tick_native =
        design_tick_steps_.empty() ||
        (design_tick_steps_.size() == 1 &&
         design_tick_steps_[0].kind == Step::Kind::Native);
    if (comb_native && tick_native) {
        CppUnit step_unit;
        if (!design_tick_steps_.empty())
            step_unit.items = units[design_tick_steps_[0].group].items;
        step_unit.items.insert(step_unit.items.end(),
                               flop_unit.items.begin(),
                               flop_unit.items.end());
        if (!design_comb_steps_.empty()) {
            const auto &comb = units[design_comb_steps_[0].group].items;
            step_unit.items.insert(step_unit.items.end(), comb.begin(),
                                   comb.end());
        }
        design_step_unit_ = static_cast<int>(units.size());
        units.push_back(std::move(step_unit));
    }

    design_source_ = cppEmitProgram(*elab_, store, units);
    design_nunits_ = static_cast<int>(units.size());
    spec_stats_.emittedTuBytes = design_source_.size();
    spec_stats_.codegenSeconds += sw.elapsed();
    spec_stats_.tiered = cfg_.jit_tiered;

    std::string cache_dir = cfg_.jit_cache_dir.empty()
                                ? CppJit::defaultCacheDir()
                                : cfg_.jit_cache_dir;
    if (!cfg_.jit_tiered) {
        CppJit jit(cache_dir, cfg_.jit_cache, CppJit::kWholeDesignFlags);
        cpp_lib_ = jit.compile(design_source_, design_nunits_,
                               CppJitLibrary::Abi::Unit);
        adoptNativeTier();
        return;
    }
    // Tiered warm-up: keep simulating on the bytecode schedule while
    // the compiler runs; maybeSwapTier() adopts the module at the next
    // cycle boundary after the thread finishes.
    jit_thread_ = std::thread([this, cache_dir] {
        try {
            CppJit jit(cache_dir, cfg_.jit_cache,
                       CppJit::kWholeDesignFlags);
            pending_lib_ = jit.compile(design_source_, design_nunits_,
                                       CppJitLibrary::Abi::Unit);
        } catch (...) {
            jit_error_ = std::current_exception();
        }
        jit_ready_.store(true, std::memory_order_release);
    });
}

void
SimulationTool::adoptNativeTier()
{
    spec_stats_.compileSeconds = cpp_lib_.compileSeconds();
    spec_stats_.wrapSeconds = cpp_lib_.wrapSeconds();
    spec_stats_.cacheHit = cpp_lib_.cacheHit();
    spec_stats_.numGroups = design_nunits_;
    spec_stats_.tierSwapCycle = static_cast<int64_t>(numCycles());
    const auto &fns = cpp_lib_.units();
    for (auto *steps : {&design_comb_steps_, &design_tick_steps_}) {
        for (Step &step : *steps) {
            if (step.kind == Step::Kind::Native)
                step.unit_fn = fns[step.group];
        }
    }
    design_flop_fn_ = fns[design_flop_unit_];
    design_step_fn_ = design_step_unit_ >= 0 ? fns[design_step_unit_]
                                             : nullptr;
    active_comb_ = &design_comb_steps_;
    active_tick_ = &design_tick_steps_;
    design_native_ = true;
}

void
SimulationTool::maybeSwapTier()
{
    if (pgo_pending_ && numCycles() >= cfg_.pgo_warm_cycles)
        startPgoBuild();
    if (!designMode() || design_native_ || tier_failed_ ||
        !cfg_.jit_tiered)
        return;
    if (!jit_ready_.load(std::memory_order_acquire))
        return;
    if (jit_thread_.joinable())
        jit_thread_.join();
    if (jit_error_) {
        // Report the failure once; the bytecode tier stays active (it
        // is correct, just slower — and under PGO it keeps the old
        // layout, the pending arena is simply never adopted), so a
        // caller may swallow this and keep simulating.
        tier_failed_ = true;
        std::exception_ptr err = jit_error_;
        jit_error_ = nullptr;
        std::rethrow_exception(err);
    }
    cpp_lib_ = std::move(pending_lib_);
    if (pgo_arena_)
        migrateArena();
    adoptNativeTier();
}

void
SimulationTool::startPgoBuild()
{
    pgo_pending_ = false;
    // Heat is consumed synchronously here (layout + schedule order);
    // only the compile itself runs on the background thread.
    const std::vector<double> *heat = nullptr;
    if (probe_ && probe_->block_seconds.size() == elab_->blocks.size())
        heat = &probe_->block_seconds;
    auto lay = std::make_shared<const ArenaLayout>(
        ArenaLayout::profiled(*elab_, nullptr, heat));
    pgo_arena_ = std::make_unique<ArenaStore>(*elab_, std::move(lay));
    specializeDesign(can_, heat);
    // Drop the internal warm-up probe (an externally attached SimScope
    // stays); its heat is already baked into the pending layout.
    if (probe_ == pgo_probe_.get())
        probe_ = nullptr;
    pgo_probe_.reset();
    can_.clear();
    can_.shrink_to_fit();
}

void
SimulationTool::migrateArena()
{
    // Per-net logical copy old arena -> heat-refined arena: values
    // land in their new physical slots, so the native module and the
    // migrated state agree from the first post-swap instruction.
    const int nnets = static_cast<int>(elab_->nets.size());
    for (int net = 0; net < nnets; ++net) {
        pgo_arena_->write(net, arena_->read(net));
        pgo_arena_->writeNext(net, arena_->readNext(net));
    }
    for (size_t a = 0; a < elab_->arrays.size(); ++a) {
        const MemArray *array = elab_->arrays[a];
        for (int i = 0; i < array->depth(); ++i) {
            pgo_arena_->arrayWrite(static_cast<int>(a), i,
                                   arena_->arrayRead(static_cast<int>(a),
                                                     i));
        }
    }
    arena_ = std::move(pgo_arena_);
    publishSlotView();
    slot_eval_ = std::make_unique<SlotEvaluator>(*arena_);
    accessor_.bind(arena_.get(), boxed_.get(),
                   [this](int token) { return tokenInArena(token); });
    flop_plan_ = arena_->layout().flopPlan(
        std::vector<int>(flopped_nets_.begin(),
                         flopped_nets_.begin() +
                             static_cast<long>(n_static_flops_)));
    planDynamicFlops();
    // The bytecode tier's programs still index the old layout, but
    // they die with the swap: active_* swing to the design schedule in
    // adoptNativeTier() and never swing back.
}

bool
SimulationTool::tierPending() const
{
    return designMode() && cfg_.jit_tiered && !design_native_ &&
           !tier_failed_;
}

LayoutStats
SimulationTool::layoutStats() const
{
    if (!arena_)
        return LayoutStats{};
    LayoutStats s = arena_->layout().stats();
    s.flop_memcpy_ranges = static_cast<int>(flop_plan_.ranges.size());
    return s;
}

void
SimulationTool::markFlopped(int net)
{
    if (!is_flopped_[net]) {
        is_flopped_[net] = 1;
        flopped_nets_.push_back(net);
    }
}

void
SimulationTool::enqueueReaders(int net)
{
    for (int blk : elab_->netReaders[net]) {
        int step = comb_step_of_block_[blk];
        if (step >= 0 && !in_worklist_[step]) {
            in_worklist_[step] = 1;
            worklist_.push_back(step);
        }
    }
}

void
SimulationTool::buildGating()
{
    // The event-driven scheduler is already change-driven, and the
    // fused cpp-design tiers run the whole settle as one compiled
    // call — gating applies to the static per-step schedules only.
    gating_ = cfg_.gating && !eventDriven() && !designMode();
    if (!gating_)
        return;
    const auto &blocks = elab_->blocks;
    const int ntokens =
        static_cast<int>(elab_->nets.size() + elab_->arrays.size());
    block_dirty_.assign(blocks.size(), 1);

    // Token -> scheduled comb readers and writers (dead and tick
    // blocks have no comb step and never enter a list).
    auto scheduled = [&](int blk) { return comb_step_of_block_[blk] >= 0; };
    std::vector<std::vector<int>> writers(ntokens);
    for (size_t b = 0; b < blocks.size(); ++b) {
        if (scheduled(static_cast<int>(b))) {
            for (int token : blocks[b].writes)
                writers[token].push_back(static_cast<int>(b));
        }
    }
    comb_writers_ = Csr<int>::fromRows(writers);
    for (int t = 0; t < ntokens; ++t) {
        for (int blk : elab_->netReaders[t]) {
            if (scheduled(blk))
                comb_readers_.items.push_back(blk);
        }
        comb_readers_.endRow();
    }

    // Block -> arena output spans: diffed around a bytecode block's
    // run, and the nets a native block's change mask indexes. Comb
    // blocks never write arrays (the IR builder rejects it; a lambda's
    // writes go through writeArray(), which marks readers), so word
    // diffs see every settle-internal change.
    const bool spans = arena_ && !useBoxed();
    size_t max_words = 0;
    for (size_t b = 0; b < blocks.size(); ++b) {
        size_t words = 0;
        if (spans && scheduled(static_cast<int>(b))) {
            for (int token : blocks[b].writes) {
                assert(!isArrayToken(token));
                block_spans_.items.push_back({token, arena_->offset(token),
                                              arena_->nwords(token)});
                words += static_cast<size_t>(arena_->nwords(token));
            }
        }
        block_spans_.endRow();
        if (!bc_programs_.empty())
            max_words = std::max(max_words, words);
    }
    span_snapshot_.assign(max_words, 0);

    // Flop range -> the static flop nets it holds, so a range whose
    // next words differ marks exactly its changed nets.
    if (spans) {
        range_nets_ = rangeNets(flop_plan_, flopped_nets_.data(),
                                flopped_nets_.data() + n_static_flops_);
    }

    // Tokens tick blocks may write with blocking semantics: plain
    // nets that are not statically flopped (a flopped net's blocking
    // write is clobbered by the flop before the post-tick settle can
    // read it) and every tick-written array. A net that only later
    // becomes a dynamic flop stays on the list — marking it is merely
    // conservative.
    for (const Step &step : tick_steps_) {
        for (int token : *step.writes) {
            if (isArrayToken(token) || !is_flopped_[token])
                tick_dirty_tokens_.push_back(token);
        }
    }
    std::sort(tick_dirty_tokens_.begin(), tick_dirty_tokens_.end());
    tick_dirty_tokens_.erase(std::unique(tick_dirty_tokens_.begin(),
                                         tick_dirty_tokens_.end()),
                             tick_dirty_tokens_.end());
}

bool
SimulationTool::isArrayToken(int token) const
{
    return token >= static_cast<int>(elab_->nets.size());
}

void
SimulationTool::copyArrayToArena(int token)
{
    int id = token - static_cast<int>(elab_->nets.size());
    const MemArray *array = elab_->arrays[id];
    for (int i = 0; i < array->depth(); ++i)
        arena_->arrayWrite(id, i, boxed_->arrayRead(id, i));
}

void
SimulationTool::copyArrayToBoxed(int token)
{
    int id = token - static_cast<int>(elab_->nets.size());
    const MemArray *array = elab_->arrays[id];
    for (int i = 0; i < array->depth(); ++i)
        boxed_->arrayWrite(id, i, arena_->arrayRead(id, i));
}

void
SimulationTool::syncIn(const Step &step)
{
    // Marshal boundary state into the arena before a specialized
    // group runs (the Python -> C++ call boundary). Arena-owned
    // tokens never cross: the compiled component keeps them.
    for (int net : *step.reads) {
        if (tokenInArena(net))
            continue;
        if (isArrayToken(net))
            copyArrayToArena(net);
        else
            arena_->write(net, boxed_->read(net));
    }
    for (int net : *step.writes) {
        if (tokenInArena(net))
            continue;
        if (isArrayToken(net)) {
            copyArrayToArena(net);
        } else if (step.sequential) {
            arena_->writeNext(net, boxed_->readNext(net));
        } else {
            arena_->write(net, boxed_->read(net));
        }
    }
}

void
SimulationTool::syncOut(const Step &step, std::vector<int> *changed)
{
    // Marshal boundary results back (the C++ -> Python return
    // boundary); arena-owned writes stay put (their change detection
    // runs against the pre-run snapshot, see diffWrites).
    for (int net : *step.writes) {
        if (tokenInArena(net))
            continue;
        if (isArrayToken(net)) {
            copyArrayToBoxed(net);
        } else if (step.sequential) {
            boxed_->writeNext(net, arena_->readNext(net));
        } else {
            if (boxed_->write(net, arena_->read(net)) && changed)
                changed->push_back(net);
        }
    }
}

void
SimulationTool::snapshotWrites(const Step &step)
{
    write_snapshot_.clear();
    for (int net : *step.writes) {
        if (!tokenInArena(net) || isArrayToken(net))
            continue;
        const uint64_t *words = arena_->data() + arena_->offset(net);
        for (int w = 0; w < arena_->nwords(net); ++w)
            write_snapshot_.push_back(words[w]);
    }
}

void
SimulationTool::diffWrites(const Step &step, std::vector<int> *changed)
{
    size_t at = 0;
    for (int net : *step.writes) {
        if (!tokenInArena(net) || isArrayToken(net))
            continue;
        const uint64_t *words = arena_->data() + arena_->offset(net);
        bool differs = false;
        for (int w = 0; w < arena_->nwords(net); ++w)
            differs |= words[w] != write_snapshot_[at++];
        if (differs)
            changed->push_back(net);
    }
}

void
SimulationTool::runStep(const Step &step, std::vector<int> *changed)
{
    if (ScopeProbe *p = probe_) {
        // A fused bytecode group runs many blocks in one step; timing
        // the step as a whole would credit the entire group to one
        // block id and starve every other member of heat (the PGO
        // re-layout and SimScope rankings both read per-block heat).
        // Descend and account each member program individually.
        if (step.kind == Step::Kind::Bytecode && step.group >= 0 &&
            group_blocks_[step.group].size() > 1 && !changed &&
            !useBoxed()) {
            const auto &blks = group_blocks_[step.group];
            const auto &progs = group_bc_[step.group];
            for (size_t i = 0; i < progs.size(); ++i) {
                if (p->shouldTime(blks[i])) {
                    Stopwatch sw;
                    bcRun(*progs[i], arena_->data(),
                          bc_scratch_.data());
                    p->addBlockTime(blks[i], sw.elapsed());
                } else {
                    bcRun(*progs[i], arena_->data(),
                          bc_scratch_.data());
                }
            }
            return;
        }
        if (p->shouldTime(step.block)) {
            Stopwatch sw;
            runStepImpl(step, changed);
            p->addBlockTime(step.block, sw.elapsed());
            return;
        }
    }
    runStepImpl(step, changed);
}

void
SimulationTool::runStepImpl(const Step &step, std::vector<int> *changed)
{
    const bool hybrid = useBoxed() && arena_ != nullptr;
    switch (step.kind) {
      case Step::Kind::Lambda:
        // Writes route through the SignalAccess interface, which
        // performs change detection and reader scheduling itself.
        elab_->blocks[step.block].fn();
        break;
      case Step::Kind::BoxedIr:
        boxed_eval_->run(elab_->blocks[step.block], changed);
        break;
      case Step::Kind::SlotIr:
        slot_eval_->run(elab_->blocks[step.block], changed);
        break;
      case Step::Kind::Bytecode:
      case Step::Kind::Native: {
        if (hybrid)
            syncIn(step);
        bool track = changed && !step.sequential;
        if (track)
            snapshotWrites(step);
        if (step.unit_fn) {
            step.unit_fn(arena_->data());
        } else if (step.block_fn) {
            step.block_fn(arena_->data()); // change mask unused here
        } else {
            for (const BcProgram *bc : group_bc_[step.group])
                bcRun(*bc, arena_->data(), bc_scratch_.data());
        }
        if (track)
            diffWrites(step, changed);
        if (hybrid)
            syncOut(step, changed);
        break;
      }
    }
}

void
SimulationTool::settle()
{
    if (eventDriven()) {
        std::vector<int> changed;
        size_t head = 0;
        size_t iterations = 0;
        const size_t limit = (elab_->blocks.size() + 1) * 10000;
        while (head < worklist_.size()) {
            int step = worklist_[head++];
            in_worklist_[step] = 0;
            changed.clear();
            runStep(comb_steps_[step], &changed);
            for (int net : changed)
                enqueueReaders(net);
            if (++iterations > limit) {
                throw std::runtime_error(
                    "combinational logic failed to converge "
                    "(oscillating cycle?)");
            }
        }
        worklist_.clear();
    } else if (gating_) {
        settleGated();
    } else {
        for (const Step &step : *active_comb_)
            runStep(step, nullptr);
    }
    dirty_ = false;
}

void
SimulationTool::settleGated()
{
    // Static order, change-driven execution: a block whose inputs did
    // not change since its last run recomputes values it already
    // holds, so it is skipped. Dirty bits set mid-loop belong to later
    // blocks (the schedule is topological), so one pass still settles
    // fully.
    uint64_t skipped = 0;
    for (const Step &step : comb_steps_) {
        if (step.group >= 0 && !useBoxed()) {
            // Arena-hosted specialized step: gate each member block.
            if (step.kind == Step::Kind::Native) {
                skipped += !runBlockGated(step, step.block, nullptr);
                continue;
            }
            const auto &blks = group_blocks_[step.group];
            const auto &progs = group_bc_[step.group];
            for (size_t i = 0; i < blks.size(); ++i)
                skipped += !runBlockGated(step, blks[i], progs[i]);
            continue;
        }
        // Lambda, slot-IR and hybrid steps run whole (a hybrid group
        // marshals its boundary once): dirty when any member is.
        const int *first = &step.block, *last = first + 1;
        if (step.group >= 0) {
            const auto &blks = group_blocks_[step.group];
            first = blks.data();
            last = first + blks.size();
        }
        bool dirty = false;
        for (const int *b = first; b != last; ++b) {
            dirty |= block_dirty_[*b] != 0;
            block_dirty_[*b] = 0;
        }
        if (!dirty) {
            skipped += static_cast<uint64_t>(last - first);
            continue;
        }
        gate_changed_.clear();
        runStep(step, &gate_changed_);
        for (int net : gate_changed_)
            markReaderBlocksDirty(net);
    }
    gated_steps_ += skipped;
    if (probe_)
        probe_->gated_steps += skipped;
}

bool
SimulationTool::runBlockGated(const Step &step, int blk,
                              const BcProgram *bc)
{
    if (!block_dirty_[blk])
        return false;
    block_dirty_[blk] = 0;
    uint64_t *words = arena_->data();
    const WordSpan *first = block_spans_.begin(blk);
    const WordSpan *last = block_spans_.end(blk);
    if (bc) {
        uint64_t *snap = span_snapshot_.data();
        for (const WordSpan *s = first; s != last; ++s) {
            for (int w = 0; w < s->nwords; ++w)
                *snap++ = words[s->off + w];
        }
    }
    auto run = [&]() -> uint64_t {
        if (!bc)
            return step.block_fn(words);
        bcRun(*bc, words, bc_scratch_.data());
        return 0;
    };
    uint64_t mask;
    ScopeProbe *p = probe_;
    if (p && p->shouldTime(blk)) {
        Stopwatch sw;
        mask = run();
        p->addBlockTime(blk, sw.elapsed());
    } else {
        mask = run();
    }
    if (bc) {
        const uint64_t *snap = span_snapshot_.data();
        for (const WordSpan *s = first; s != last; ++s) {
            bool differs = false;
            for (int w = 0; w < s->nwords; ++w)
                differs |= words[s->off + w] != *snap++;
            if (differs)
                markReaderBlocksDirty(s->net);
        }
        return true;
    }
    // Native code compared its outputs itself: bit i names span i,
    // bit 63 every span from the 64th on.
    while (mask) {
        const int i = std::countr_zero(mask);
        mask &= mask - 1;
        if (i < 63) {
            markReaderBlocksDirty(first[i].net);
            continue;
        }
        for (const WordSpan *s = first + 63; s < last; ++s)
            markReaderBlocksDirty(s->net);
    }
    return true;
}

void
SimulationTool::cycle()
{
    maybeSwapTier();
    if (probe_) {
        cycleProfiled();
    } else if (design_step_fn_ &&
               flopped_nets_.size() == n_static_flops_) {
        // Whole cycle in one native call: ticks, flops, settle. Legal
        // only while no dynamically registered flops exist; settle()
        // here runs no lambdas (everything fused), so the flop set
        // cannot change under us.
        if (dirty_)
            settle();
        design_step_fn_(arena_->data());
    } else {
        if (eventDriven() || dirty_)
            settle();
        for (const Step &step : *active_tick_)
            runStep(step, nullptr);
        if (gating_) {
            for (int token : tick_dirty_tokens_)
                markTokenBlocksDirty(token);
        }
        std::vector<int> changed;
        doFlop(eventDriven() ? &changed : nullptr);
        if (eventDriven()) {
            for (int token : tick_array_tokens_)
                enqueueReaders(token);
        }
        settle();
    }
    uint64_t now = ncycles_.fetch_add(1, std::memory_order_relaxed) + 1;
    for (const auto &hook : cycle_hooks_)
        hook(now);
}

void
SimulationTool::cycleProfiled()
{
    ScopeProbe *p = probe_;
    Stopwatch sw;
    if (eventDriven() || dirty_)
        settle();
    p->settle_seconds += sw.elapsed();

    sw.restart();
    for (const Step &step : *active_tick_)
        runStep(step, nullptr);
    if (gating_) {
        for (int token : tick_dirty_tokens_)
            markTokenBlocksDirty(token);
    }
    p->tick_seconds += sw.elapsed();

    sw.restart();
    std::vector<int> changed;
    doFlop(eventDriven() ? &changed : nullptr);
    if (eventDriven()) {
        for (int token : tick_array_tokens_)
            enqueueReaders(token);
    }
    p->flop_seconds += sw.elapsed();

    sw.restart();
    settle();
    p->settle_seconds += sw.elapsed();
}

void
SimulationTool::eval()
{
    maybeSwapTier();
    if (ScopeProbe *p = probe_) {
        Stopwatch sw;
        settle();
        p->settle_seconds += sw.elapsed();
        return;
    }
    settle();
}

void
SimulationTool::doFlop(std::vector<int> *changed)
{
    if (design_native_) {
        // Statically flopped nets are copied by the compiled flop
        // unit, the dynamically registered tail by its own plan.
        // cpp-design is never event-driven, so no change notification
        // is needed.
        (void)changed;
        design_flop_fn_(arena_->data());
        flopDynamic();
        return;
    }
    if (arena_ && !useBoxed() && !changed) {
        // Copy the static flop set as whole-word ranges, then the
        // dynamic tail; gating change-detects per range.
        if (gating_)
            flopRangesGated(flop_plan_.ranges, range_nets_);
        else
            arena_->flopRanges(flop_plan_.ranges);
        flopDynamic();
        return;
    }
    for (int net : flopped_nets_) {
        bool ch = tokenInArena(net) ? arena_->flop(net)
                                    : boxed_->flop(net);
        if (ch) {
            if (changed)
                enqueueReaders(net);
            if (gating_)
                markTokenBlocksDirty(net);
        }
    }
}

void
SimulationTool::flopDynamic()
{
    if (flopped_nets_.size() != dyn_planned_)
        planDynamicFlops();
    if (gating_)
        flopRangesGated(dyn_plan_.ranges, dyn_range_nets_);
    else
        arena_->flopRanges(dyn_plan_.ranges);
    for (int net : dyn_plan_.nets) {
        if (arena_->flop(net) && gating_)
            markTokenBlocksDirty(net);
    }
}

void
SimulationTool::planDynamicFlops()
{
    dyn_planned_ = flopped_nets_.size();
    const std::vector<int> tail(
        flopped_nets_.begin() + static_cast<long>(n_static_flops_),
        flopped_nets_.end());
    dyn_plan_ = arena_->layout().dynamicFlopPlan(tail, is_flopped_);
    if (gating_) {
        dyn_range_nets_ =
            rangeNets(dyn_plan_, tail.data(), tail.data() + tail.size());
    }
}

SimulationTool::Csr<SimulationTool::WordSpan>
SimulationTool::rangeNets(const FlopCopyPlan &plan, const int *first,
                          const int *last) const
{
    std::vector<std::vector<WordSpan>> rows(plan.ranges.size());
    for (const int *n = first; n != last; ++n) {
        const int off = arena_->offset(*n);
        // The last range starting at or before the net's first word.
        auto it = std::upper_bound(
            plan.ranges.begin(), plan.ranges.end(), off,
            [](int w, const FlopRange &r) { return w < r.off; });
        if (it == plan.ranges.begin())
            continue;
        --it;
        if (off < it->off + it->nwords)
            rows[it - plan.ranges.begin()].push_back(
                {*n, off, arena_->nwords(*n)});
    }
    return Csr<WordSpan>::fromRows(rows);
}

void
SimulationTool::flopRangesGated(const std::vector<FlopRange> &ranges,
                                const Csr<WordSpan> &range_nets)
{
    // An unchanged range is skipped outright; a changed one marks the
    // flop nets whose words differ (a packed word compares whole —
    // conservative: a word-mate's change also re-runs this net's
    // readers), then copies as one block.
    uint64_t *words = arena_->data();
    const int phase = arena_->wordsPerPhase();
    for (size_t r = 0; r < ranges.size(); ++r) {
        const FlopRange &rg = ranges[r];
        uint64_t *cur = words + rg.off;
        const size_t bytes = static_cast<size_t>(rg.nwords) * sizeof(uint64_t);
        if (std::memcmp(cur, cur + phase, bytes) == 0)
            continue;
        for (const WordSpan *s = range_nets.begin(static_cast<int>(r)),
                            *e = range_nets.end(static_cast<int>(r));
             s != e; ++s) {
            const uint64_t *w = words + s->off;
            bool differs = false;
            for (int i = 0; i < s->nwords; ++i)
                differs |= w[i] != w[i + phase];
            if (differs)
                markTokenBlocksDirty(s->net);
        }
        std::memcpy(cur, cur + phase, bytes);
    }
}

Bits
SimulationTool::readNet(int net) const
{
    return tokenInArena(net) ? arena_->read(net) : boxed_->read(net);
}

Bits
SimulationTool::readArray(const MemArray &array, uint64_t index) const
{
    int id = array.arrayId();
    return tokenInArena(elab_->arrayToken(id))
               ? arena_->arrayRead(id, index)
               : boxed_->arrayRead(id, index);
}

void
SimulationTool::writeArray(MemArray &array, uint64_t index,
                           const Bits &value)
{
    int id = array.arrayId();
    if (tokenInArena(elab_->arrayToken(id)))
        arena_->arrayWrite(id, index, value);
    else
        boxed_->arrayWrite(id, index, value);
    dirty_ = true;
    if (eventDriven())
        enqueueReaders(elab_->arrayToken(id));
    else if (gating_)
        markTokenBlocksDirty(elab_->arrayToken(id));
}

Bits
SimulationTool::read(const Signal &sig) const
{
    int net = sig.netId();
    return tokenInArena(net) ? arena_->read(net) : boxed_->read(net);
}

void
SimulationTool::write(Signal &sig, const Bits &value)
{
    int net = sig.netId();
    bool ch = tokenInArena(net) ? arena_->write(net, value)
                                : boxed_->write(net, value);
    if (ch) {
        dirty_ = true;
        if (eventDriven())
            enqueueReaders(net);
        else if (gating_)
            markTokenBlocksDirty(net);
    }
}

void
SimulationTool::writeNext(Signal &sig, const Bits &value)
{
    int net = sig.netId();
    markFlopped(net);
    if (tokenInArena(net))
        arena_->writeNext(net, value);
    else
        boxed_->writeNext(net, value);
}

// ------------------------------------------- SimSnap state capture

Bits
SimulationTool::readNetNext(int net) const
{
    return accessor_.readNetNext(net);
}

void
SimulationTool::pokeNet(int net, const Bits &value)
{
    accessor_.pokeNet(net, value);
}

void
SimulationTool::pokeNetNext(int net, const Bits &value)
{
    accessor_.pokeNetNext(net, value);
}

std::vector<int>
SimulationTool::dynamicFlopNets() const
{
    return NetAccessor::dynamicFlops(*elab_, flopped_nets_);
}

void
SimulationTool::registerDynamicFlops(const std::vector<int> &nets)
{
    for (int net : nets)
        markFlopped(net);
}

} // namespace cmtl
