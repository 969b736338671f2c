/**
 * @file
 * SimulationTool: the CMTL simulator generator.
 *
 * Consumes an Elaboration and builds a simulator for it. The execution
 * strategy — SimConfig::backend, spelled by its canonical string —
 * reproduces the performance axes studied in the PyMTL paper:
 *
 *   "interp"      "CPython"  boxed dictionary storage, dynamic
 *                            event-driven scheduling, tree-walk IR
 *                            evaluation over boxed values
 *   "optinterp"   "PyPy"     dense arena storage, slot-bound accessors,
 *                            statically levelized scheduling, by-value
 *                            tree-walk IR
 *   "bytecode"    "SimJIT"   IR blocks compiled to a flat
 *                            register-machine bytecode over the arena
 *                            at simulator construction
 *   "cpp-block"   "SimJIT"   IR blocks translated to C++, compiled with
 *                            the system compiler, dlopen'ed and called
 *                            natively, one entry point per block
 *   "cpp-design"             the whole design fused into one compiled
 *                            translation unit (see Backend)
 *
 * The hybrids "interp+bytecode" and "interp+cpp-block" reproduce the
 * paper's "SimJIT under CPython" configuration: specialized blocks run
 * on the arena, but every entry/exit crosses a boxed<->arena marshal
 * boundary (the CFFI wrapper overhead); unspecialized lambda blocks
 * stay fully boxed. On the arena-hosted backends the arena is shared
 * and boundary crossings vanish (the "SimJIT+PyPy" configuration).
 *
 * Cycle semantics (two-phase): cycle() settles combinational logic,
 * runs all tick blocks (which read current values and write next
 * values), flops next->current for registered nets, then settles
 * again. Blocking writes from test benches are visible after the next
 * settle/cycle/eval call.
 */

#ifndef CMTL_CORE_SIM_H
#define CMTL_CORE_SIM_H

#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "accessor.h"
#include "ir_bytecode.h"
#include "ir_eval.h"
#include "jit_cpp.h"
#include "model.h"
#include "store.h"

namespace cmtl {

/** Combinational scheduling policy. */
enum class SchedMode
{
    Auto,   //!< event-driven on the boxed host, static otherwise
    Event,  //!< dynamic event-driven with sensitivity lists
    Static, //!< statically levelized (rejects combinational cycles)
};

/**
 * How a design runs: the one execution-strategy selector. Each value
 * has one canonical string (SimConfig::toString / fromString
 * round-trip):
 *
 *   "interp"            boxed storage, event-driven, tree-walk
 *                       ("CPython")
 *   "optinterp"         arena storage, static levelized schedule
 *                       ("PyPy")
 *   "bytecode"          arena + per-block register bytecode ("SimJIT")
 *   "cpp-block"         per-block compiled C++, one C-ABI call per
 *                       block per phase (the paper's per-component
 *                       SimJIT)
 *   "cpp-design"        the whole elaborated design fused into a single
 *                       compiled translation unit with tiered warm-up:
 *                       the simulator starts on the bytecode tier and
 *                       hot-swaps to the native module at a cycle
 *                       boundary when the background compile finishes
 *   "interp+bytecode"   boxed host + bytecode-specialized blocks
 *   "interp+cpp-block"  boxed host + per-block compiled C++
 *
 * The two hybrids run specialized blocks on the arena while every
 * entry/exit crosses the boxed<->arena marshal boundary — the CFFI
 * overhead configuration of the paper. Interp and the hybrids are the
 * boxed-host backends; the rest are arena-hosted.
 */
enum class Backend
{
    OptInterp,      //!< "optinterp" (the default)
    Bytecode,       //!< "bytecode"
    CppBlock,       //!< "cpp-block"
    CppDesign,      //!< "cpp-design"
    Interp,         //!< "interp"
    InterpBytecode, //!< "interp+bytecode"
    InterpCppBlock, //!< "interp+cpp-block"
};

/** True for the backends that keep boxed (dictionary) storage. */
constexpr bool
backendBoxedHost(Backend b)
{
    return b == Backend::Interp || b == Backend::InterpBytecode ||
           b == Backend::InterpCppBlock;
}

/** Simulator configuration. */
struct SimConfig
{
    /** How the design runs (see Backend). */
    Backend backend = Backend::OptInterp;
    SchedMode sched = SchedMode::Auto;
    std::string jit_cache_dir; //!< empty = CppJit::defaultCacheDir()
    bool jit_cache = true;     //!< reuse compiled libraries on disk
    /**
     * Host threads for the ParSim bulk-synchronous kernel (psim.h).
     * 1 = the sequential kernel below; makeSimulator() dispatches.
     */
    int threads = 1;
    /**
     * cpp-design only: run on the bytecode tier while the compiler
     * runs in a background thread, hot-swapping at a cycle boundary
     * (false = block in the constructor until the module is built).
     */
    bool jit_tiered = true;
    /**
     * Skip combinational IR blocks the whole-design dataflow analysis
     * (dataflow.h) proves dead — outside every observed sink's cone of
     * influence. Equivalent for every observed value; nets written
     * only by skipped blocks retain their initial value, so designs
     * with dead logic show different *dead* net values (and VCD bytes)
     * than an unoptimized run. Off by default.
     */
    bool dead_elim = false;
    /**
     * Activity gating: skip work that provably cannot change state.
     * The sequential kernel skips a combinational block when none of
     * its inputs changed since its last run — also inside a fused
     * bytecode group, whose clean members are stepped over one by one
     * (static schedules only — the event-driven scheduler is already
     * change-driven) — and its flop phase copies only the flop ranges
     * whose next words differ; ParSim skips a whole island's settle
     * superstep when the island saw no input change, the island only
     * joining the barriers. Results are bit- and VCD-identical to an
     * ungated run by construction: a block/island is skipped only
     * when re-running it would recompute the values it already holds.
     * Ignored by the fused cpp-design native tier (the whole cycle is
     * one compiled call). On by default.
     */
    bool gating = true;
    /**
     * Arena data-layout policy (layout.h). Elab reproduces the
     * historical elaboration-order layout; Profile groups nets by
     * partition island and producer block, bit-packs narrow nets and
     * coalesces the flop phase into contiguous word-copy ranges.
     * Orthogonal to the backend string (not part of toString());
     * results are bit- and VCD-identical across policies.
     */
    LayoutPolicy layout = LayoutPolicy::Elab;
    /**
     * cpp-design + Profile + jit_tiered only: cycles to run on the
     * bytecode warm-up tier gathering block heat before the layout is
     * re-derived from the measured profile and the fused translation
     * unit is emitted and compiled in the background (the PGO loop).
     */
    uint64_t pgo_warm_cycles = 2000;

    /** Canonical backend string ("cpp-design", "interp+bytecode", ...). */
    std::string toString() const;

    /**
     * Parse a canonical backend string. Other fields take their
     * defaults. Throws std::invalid_argument on an unknown name.
     */
    static SimConfig fromString(const std::string &name);
};

/**
 * Instrumentation sink filled by the execution kernels while a
 * SimScope (scope.h) is attached. The kernels test one pointer per
 * phase / per step when detached, so the disabled-path cost is a
 * handful of predictable branches per cycle.
 *
 * Threading: per-block entries are written only by the thread that
 * executes the block (each block belongs to exactly one island), and
 * per-island entries only by that island's worker; the coordinator
 * reads them between phases, ordered by the phase barriers.
 */
struct ScopeProbe
{
    /** Exact = time every block execution; sampled = time one out of
     *  sample_period executions and scale. */
    bool exact = true;
    uint32_t sample_period = 64;

    // Per-block self time, indexed by ElabBlock id. Fused
    // specialization groups attribute to the group's first block.
    std::vector<double> block_seconds;
    std::vector<uint64_t> block_calls;
    std::vector<uint32_t> until_sample;

    // Sequential-kernel phase totals.
    double settle_seconds = 0.0;
    double tick_seconds = 0.0;
    double flop_seconds = 0.0;

    // ParSim per-island phase breakdown (empty on the sequential
    // kernel). Barrier seconds cover superstep and phase-done waits;
    // boundary bytes count words pushed into other replicas.
    std::vector<double> island_settle_seconds;
    std::vector<double> island_tick_seconds;
    std::vector<double> island_flop_seconds;
    std::vector<double> island_barrier_seconds;
    std::vector<uint64_t> island_boundary_bytes;

    // Activity gating (SimConfig::gating). Sequential kernel: comb
    // blocks skipped because no input changed. ParSim: per-island
    // settle supersteps skipped because the island was quiescent.
    uint64_t gated_steps = 0;
    std::vector<uint64_t> island_gated_supersteps;

    /** Count a block call; true when this execution should be timed. */
    bool
    shouldTime(int block)
    {
        ++block_calls[block];
        if (exact)
            return true;
        if (--until_sample[block] == 0) {
            until_sample[block] = sample_period;
            return true;
        }
        return false;
    }

    /** Record a timed execution (scaled under sampled timing). */
    void
    addBlockTime(int block, double seconds)
    {
        block_seconds[block] += exact ? seconds : seconds * sample_period;
    }
};

/** Construction-time specializer overheads (paper Figure 16). */
struct SpecStats
{
    double codegenSeconds = 0.0;   //!< IR -> bytecode or C++ source
    double compileSeconds = 0.0;   //!< external compiler
    double wrapSeconds = 0.0;      //!< dlopen + symbol binding
    double simCreateSeconds = 0.0; //!< kernel datastructure setup
    bool cacheHit = false;
    int numBlocks = 0;
    int numSpecialized = 0;
    int numGroups = 0;
    /** cpp-design: cycle at which the native tier was swapped in
     *  (0 = before the first cycle, -1 = still on the warm-up tier). */
    int64_t tierSwapCycle = -1;
    bool tiered = false; //!< cpp-design with background compilation
    // --- dead-logic elimination (SimConfig::dead_elim) -------------
    int deadBlocksElided = 0;  //!< comb blocks skipped by the schedule
    int deadNetsElided = 0;    //!< driven+read nets proven dead
    /** Bytes of the emitted C++ translation unit (cpp-block fused
     *  groups or the cpp-design whole-design unit); 0 for
     *  interpreter/bytecode backends. */
    size_t emittedTuBytes = 0;
};

/**
 * Abstract simulator interface (the tool-facing contract).
 *
 * Both execution kernels — the sequential SimulationTool below and the
 * parallel bulk-synchronous ParSimulationTool (psim.h) — implement
 * this interface, so waveform dumpers, activity counters and test
 * benches drive either one interchangeably. A simulator doubles as the
 * SignalAccess backend: test benches and lambda blocks transparently
 * read and write through the active storage strategy. One simulator
 * may be live per elaboration at a time.
 */
class Simulator : public SignalAccess
{
  public:
    Simulator(std::shared_ptr<Elaboration> elab, SimConfig cfg)
        : elab_(std::move(elab)), cfg_(cfg)
    {}

    /** Advance one clock cycle. */
    virtual void cycle() = 0;
    /** Advance @p n clock cycles. */
    void cycle(uint64_t n);
    /** Propagate combinational logic only (no clock edge). */
    virtual void eval() = 0;
    /** Assert the implicit reset for @p ncycles cycles. */
    void reset(int ncycles = 1);

    uint64_t
    numCycles() const
    {
        return ncycles_.load(std::memory_order_relaxed);
    }
    const SpecStats &specStats() const { return spec_stats_; }

    /**
     * Units of work skipped by activity gating (SimConfig::gating)
     * since construction: combinational blocks on the sequential
     * kernel (a fused bytecode group counts each clean member), island
     * settle supersteps on ParSim. 0 when gating is off or the backend
     * ignores it. Updated between cycles only — read it from the
     * cycling thread.
     */
    uint64_t gatedSteps() const { return gated_steps_; }

    // --- cooperative pause (SimServer scheduler, debugger) ---------

    /**
     * Ask the running kernel to pause at the next cycle boundary.
     * Thread-safe: any thread may request a pause while another runs
     * runUntil(). The flag is consumed by runUntil(), which returns
     * false with the simulator stopped between cycles — ParSim workers
     * parked, all state quiescent — so snapSave() may capture it and a
     * later restore resumes bit-identically.
     */
    void
    requestPause()
    {
        pause_requested_.store(true, std::memory_order_release);
    }

    /** True while a pause request is pending (not yet consumed). */
    bool
    pauseRequested() const
    {
        return pause_requested_.load(std::memory_order_acquire);
    }

    /** Drop a pending pause request without honoring it. */
    void
    clearPauseRequest()
    {
        pause_requested_.store(false, std::memory_order_relaxed);
    }

    /**
     * Run cycles until numCycles() reaches @p target_cycle or a pause
     * is requested. Returns true when the target was reached, false
     * when a pause request stopped the run early (the request is
     * consumed; call runUntil again to resume). The pause flag is
     * checked once per cycle boundary on both kernels, so the
     * disabled-path cost is one atomic load per cycle.
     */
    bool runUntil(uint64_t target_cycle);

    /**
     * True while a tiered cpp-design simulator is still executing on
     * the bytecode warm-up tier (the background compile has not been
     * adopted yet). Benches drain this before measuring steady state.
     */
    virtual bool tierPending() const { return false; }
    const Elaboration &elaboration() const { return *elab_; }
    const SimConfig &config() const { return cfg_; }

    /** Concatenated lineTrace() of every model, pre-order. */
    std::string lineTrace() const;

    /** Hook invoked after every cycle (VCD dumping etc.). */
    void
    onCycleEnd(std::function<void(uint64_t)> hook)
    {
        cycle_hooks_.push_back(std::move(hook));
    }

    /**
     * Attach a SimScope instrumentation sink (nullptr detaches). The
     * probe's vectors must already be sized for this elaboration; at
     * most one probe is active at a time (last attach wins). Owned by
     * the SimScope tool — call only between cycles.
     */
    void attachScope(ScopeProbe *probe) { probe_ = probe; }
    ScopeProbe *scopeProbe() const { return probe_; }

    /**
     * Data-layout observability: the active arena layout's counters
     * with flop_memcpy_ranges filled in from the kernel's flop plan.
     * Defaults (elab policy, zero counters) on storage without an
     * arena (pure interp).
     */
    virtual LayoutStats layoutStats() const { return LayoutStats{}; }

    /** Direct net-level value access for tools (VCD, testing). */
    virtual Bits readNet(int net) const = 0;

    /** Host access to a memory array element. */
    virtual Bits readArray(const MemArray &array, uint64_t index) const = 0;
    virtual void writeArray(MemArray &array, uint64_t index,
                            const Bits &value) = 0;

    // --- SimSnap state-capture hooks (snap.h) ----------------------

    /** Next-phase (flop shadow) value of a net. */
    virtual Bits readNetNext(int net) const = 0;
    /** Restore a net's current value (blocking-write semantics). */
    virtual void pokeNet(int net, const Bits &value) = 0;
    /**
     * Restore a net's next-phase value WITHOUT registering the net as
     * dynamically flopped the way writeNext() does — flop membership
     * is restored separately through registerDynamicFlops(), so a
     * restore never turns combinational nets into registers.
     */
    virtual void pokeNetNext(int net, const Bits &value) = 0;
    /** Nets registered as flopped at run time by lambda writeNext. */
    virtual std::vector<int> dynamicFlopNets() const = 0;
    /** Re-register dynamically flopped nets on a fresh simulator. */
    virtual void registerDynamicFlops(const std::vector<int> &nets) = 0;
    /** Overwrite the cycle counter (snapshot restore only). */
    void
    setRestoredCycleCount(uint64_t n)
    {
        ncycles_.store(n, std::memory_order_relaxed);
    }

  protected:
    /** Every backend but "interp" and "optinterp" specializes blocks. */
    bool specialized() const
    {
        return cfg_.backend != Backend::Interp &&
               cfg_.backend != Backend::OptInterp;
    }
    /** One compiled C++ entry point per block: "cpp-block" and
     *  "interp+cpp-block". */
    bool perBlockCpp() const
    {
        return cfg_.backend == Backend::CppBlock ||
               cfg_.backend == Backend::InterpCppBlock;
    }
    bool designMode() const { return cfg_.backend == Backend::CppDesign; }

    std::shared_ptr<Elaboration> elab_;
    SimConfig cfg_;
    SpecStats spec_stats_;
    /**
     * Atomic so progress monitors (SimServer job status) may read the
     * counter while another thread cycles the kernel; all accesses are
     * relaxed — the counter orders nothing.
     */
    std::atomic<uint64_t> ncycles_{0};
    std::atomic<bool> pause_requested_{false};
    std::vector<std::function<void(uint64_t)>> cycle_hooks_;
    ScopeProbe *probe_ = nullptr;
    uint64_t gated_steps_ = 0;
};

/**
 * The sequential simulator generator (the paper's kernel).
 */
class SimulationTool : public Simulator
{
  public:
    explicit SimulationTool(std::shared_ptr<Elaboration> elab,
                            SimConfig cfg = SimConfig{});
    ~SimulationTool() override;

    using Simulator::cycle;
    void cycle() override;
    void eval() override;

    Bits readNet(int net) const override;
    Bits readArray(const MemArray &array, uint64_t index) const override;
    void writeArray(MemArray &array, uint64_t index,
                    const Bits &value) override;

    Bits readNetNext(int net) const override;
    void pokeNet(int net, const Bits &value) override;
    void pokeNetNext(int net, const Bits &value) override;
    std::vector<int> dynamicFlopNets() const override;
    void registerDynamicFlops(const std::vector<int> &nets) override;

    bool tierPending() const override;
    LayoutStats layoutStats() const override;

    // --- SignalAccess ----------------------------------------------
    Bits read(const Signal &sig) const override;
    void write(Signal &sig, const Bits &value) override;
    void writeNext(Signal &sig, const Bits &value) override;

  private:
    struct Step
    {
        enum class Kind { Lambda, BoxedIr, SlotIr, Bytecode, Native };
        Kind kind;
        int block = -1; //!< ElabBlock index (Lambda/Ir)
        int group = -1; //!< specialization group index
        /** Nets to marshal for hybrid boxed+specialized execution. */
        const std::vector<int> *reads = nullptr;
        const std::vector<int> *writes = nullptr;
        bool sequential = false;
        /** Bound compiled entry of a Native step, set once the library
         *  loads (cpp-block) or the tier swaps (cpp-design). */
        CppJitLibrary::BlockFn block_fn = nullptr;
        CppJitLibrary::UnitFn unit_fn = nullptr;
    };

    bool useBoxed() const { return boxed_host_; }
    bool eventDriven() const { return event_driven_; }

    Step makeStep(int idx) const;
    void buildSchedule();
    void specialize();
    void specializeDesign(const std::vector<char> &can,
                          const std::vector<double> *heat);
    std::vector<int> designCombOrder(const std::vector<char> &can,
                                     const std::vector<double> *heat) const;
    void adoptNativeTier();
    void maybeSwapTier();
    /** True when the layout will be re-derived from measured heat. */
    bool pgoActive() const
    {
        return designMode() && cfg_.jit_tiered &&
               cfg_.layout == LayoutPolicy::Profile;
    }
    void startPgoBuild();
    void migrateArena();
    /** Point the SignalAccess slot view at the current arena (arena-
     *  hosted only; boxed hosts publish none). */
    void publishSlotView();
    void runStep(const Step &step, std::vector<int> *changed);
    void runStepImpl(const Step &step, std::vector<int> *changed);
    void cycleProfiled();
    void syncIn(const Step &step);
    void syncOut(const Step &step, std::vector<int> *changed);
    void snapshotWrites(const Step &step);
    void diffWrites(const Step &step, std::vector<int> *changed);
    bool isArrayToken(int token) const;
    void copyArrayToArena(int token);
    void copyArrayToBoxed(int token);
    /**
     * Hybrid (boxed exec + specialization) storage dispatch: tokens
     * whose every writer is specialized live permanently in the
     * arena — the state a SimJIT-compiled component owns internally —
     * and only boundary tokens are marshalled at group entry/exit.
     */
    bool tokenInArena(int token) const
    {
        return !useBoxed() ||
               (token < static_cast<int>(token_in_arena_.size()) &&
                token_in_arena_[token]);
    }
    void settle();
    void settleEvent(std::vector<int> &seed);
    void enqueueReaders(int net);
    void markFlopped(int net);
    void doFlop(std::vector<int> *changed);
    /** Flop the dynamically registered tail through its copy plan,
     *  rebuilding the plan first when the tail has grown. */
    void flopDynamic();
    void planDynamicFlops();
    void buildGating();
    void settleGated();
    /** Gated run of one arena-hosted specialized comb block (@p bc, or
     *  the step's native entry when null); false when it was clean.
     *  Bytecode diffs a snapshot of the block's output words; native
     *  code reports changed outputs itself (ir_cpp.h mask). */
    bool runBlockGated(const Step &step, int blk, const BcProgram *bc);
    struct WordSpan;
    template <typename T> struct Csr;
    /** Copy @p ranges, marking the readers of each net in
     *  @p range_nets (row per range) whose words changed. */
    void flopRangesGated(const std::vector<FlopRange> &ranges,
                         const Csr<WordSpan> &range_nets);
    /** Per range of @p plan: the @p nets whose first word lies in it. */
    Csr<WordSpan> rangeNets(const FlopCopyPlan &plan,
                            const int *first, const int *last) const;
    /** Settle-internal change: re-run the token's comb readers. */
    void markReaderBlocksDirty(int token)
    {
        for (const int *b = comb_readers_.begin(token),
                       *e = comb_readers_.end(token);
             b != e; ++b)
            block_dirty_[*b] = 1;
    }
    /** External change (testbench write, flop, poke): re-run the
     *  token's comb readers AND its comb drivers, so a poked value a
     *  driver would overwrite is overwritten exactly as when every
     *  block runs unconditionally. */
    void markTokenBlocksDirty(int token)
    {
        markReaderBlocksDirty(token);
        for (const int *b = comb_writers_.begin(token),
                       *e = comb_writers_.end(token);
             b != e; ++b)
            block_dirty_[*b] = 1;
    }

    /** Boxed-host backend; fixed at construction (accessor hot path). */
    const bool boxed_host_;
    std::unique_ptr<BoxedStore> boxed_;
    std::unique_ptr<ArenaStore> arena_;
    std::unique_ptr<BoxedEvaluator> boxed_eval_;
    std::unique_ptr<SlotEvaluator> slot_eval_;
    /** Snap/poke hooks delegate here (accessor.h). */
    NetAccessor accessor_;

    bool event_driven_ = false;
    std::vector<Step> comb_steps_; //!< static order (or event pool)
    std::vector<Step> tick_steps_;
    std::vector<int> comb_step_of_block_; //!< block idx -> comb step idx

    // --- cpp-design tiering ----------------------------------------
    // Tier 0 runs the bytecode schedule in comb_steps_/tick_steps_;
    // the native whole-design schedule below is adopted by swinging
    // the active_* pointers at a cycle boundary once the background
    // compile lands. Bit-identical by construction: the native order
    // is a valid topological order of the same blocks and the flop
    // unit copies exactly the statically flopped nets.
    std::vector<Step> design_comb_steps_;
    std::vector<Step> design_tick_steps_;
    std::vector<Step> *active_comb_ = &comb_steps_;
    std::vector<Step> *active_tick_ = &tick_steps_;
    std::string design_source_;
    int design_nunits_ = 0;
    int design_flop_unit_ = -1;
    int design_step_unit_ = -1; //!< fused whole-cycle entry, or -1
    /** design_flop_unit_ / design_step_unit_ bound at the tier swap. */
    CppJitLibrary::UnitFn design_flop_fn_ = nullptr;
    CppJitLibrary::UnitFn design_step_fn_ = nullptr;
    size_t n_static_flops_ = 0;
    bool design_native_ = false;
    bool tier_failed_ = false;
    std::thread jit_thread_;
    std::atomic<bool> jit_ready_{false};
    CppJitLibrary pending_lib_;
    std::exception_ptr jit_error_;

    // --- profile-guided layout (cpp-design + Profile + tiered) -----
    // TU emission is deferred past a warm-up window; the heat the
    // probe gathered refines the layout and orders the fused schedule,
    // then the normal background tier swap adopts module AND arena
    // together (migrateArena).
    bool pgo_pending_ = false;
    std::vector<char> can_; //!< saved specializable mask for re-emit
    std::unique_ptr<ScopeProbe> pgo_probe_; //!< internal heat source
    std::unique_ptr<ArenaStore> pgo_arena_; //!< awaiting adoption
    /** Static-flop copy plan for the active arena (doFlop fast path). */
    FlopCopyPlan flop_plan_;
    /** Copy plan of the dynamic tail flopped_nets_[n_static_flops_..),
     *  valid while flopped_nets_.size() == dyn_planned_. */
    FlopCopyPlan dyn_plan_;
    size_t dyn_planned_ = 0;

    std::vector<BcProgram> bc_programs_; //!< per specialized block
    std::vector<uint64_t> bc_scratch_;
    CppJitLibrary cpp_lib_;
    /** Per specialization group: member programs + marshal sets. */
    std::vector<std::vector<const BcProgram *>> group_bc_;
    /** Member block ids of each bytecode group, in execution order —
     *  lets a probe attribute time per block inside a fused step. */
    std::vector<std::vector<int>> group_blocks_;
    std::vector<std::vector<int>> group_reads_;
    std::vector<std::vector<int>> group_writes_;

    /** Comb blocks elided by dead-logic elimination (dead_elim). */
    std::vector<char> dead_block_;

    std::vector<int> flopped_nets_;
    std::vector<char> is_flopped_;
    std::vector<int> tick_array_tokens_; //!< arrays written at ticks
    std::vector<char> token_in_arena_;   //!< hybrid-mode ownership
    std::vector<uint64_t> write_snapshot_; //!< event change detection

    // Event-driven worklist state.
    std::vector<int> worklist_;
    std::vector<char> in_worklist_;

    /** Flat sensitivity list: row r is items[off[r] .. off[r + 1]). */
    template <typename T>
    struct Csr
    {
        std::vector<int> off{0};
        std::vector<T> items;
        void endRow() { off.push_back(static_cast<int>(items.size())); }
        static Csr
        fromRows(const std::vector<std::vector<T>> &rows)
        {
            Csr csr;
            for (const auto &row : rows) {
                csr.items.insert(csr.items.end(), row.begin(), row.end());
                csr.endRow();
            }
            return csr;
        }
        const T *begin(int row) const { return items.data() + off[row]; }
        const T *end(int row) const { return items.data() + off[row + 1]; }
    };
    /** Arena words of one net: (net, first word, word count). */
    struct WordSpan
    {
        int net;
        int off;
        int nwords;
    };

    // Activity gating (static schedules only; see SimConfig::gating).
    // The unit is one comb block, even inside a fused bytecode group.
    bool gating_ = false;
    std::vector<char> block_dirty_; //!< ElabBlock id -> must re-run
    Csr<int> comb_readers_;         //!< token -> scheduled comb readers
    Csr<int> comb_writers_;         //!< token -> scheduled comb writers
    /** Block -> arena-resident net writes, in ElabBlock::writes order
     *  (the bit order of a native block's change mask). */
    Csr<WordSpan> block_spans_;
    /** flop_plan_.ranges[r] -> the static flop nets inside it. */
    Csr<WordSpan> range_nets_;
    /** dyn_plan_.ranges[r] -> the dynamic flop nets inside it. */
    Csr<WordSpan> dyn_range_nets_;
    /** One bytecode block's output words, diffed around its run. */
    std::vector<uint64_t> span_snapshot_;
    std::vector<int> gate_changed_;       //!< step-level change list
    /** Tokens tick blocks write with blocking semantics (plain nets
     *  never statically flopped, and every tick-written array): their
     *  readers re-run each cycle; the flop phase change-detects the
     *  registered rest. */
    std::vector<int> tick_dirty_tokens_;

    bool dirty_ = true;
};

} // namespace cmtl

#endif // CMTL_CORE_SIM_H
