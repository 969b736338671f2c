/**
 * @file
 * ParSim: the bulk-synchronous parallel simulation kernel.
 *
 * ParSimulationTool runs a statically partitioned design (partition.h)
 * on a persistent pool of worker threads, one per island, coordinated
 * by the calling thread. Each island owns a full-size *replica* of the
 * dense word arena: every replica is built over ONE shared ArenaLayout
 * (layout.h) — identical offsets by construction — so bytecode and
 * compiled-C++ programs run unchanged on any replica's data pointer.
 * Under the profile layout the partition plan itself shapes placement:
 * nets group by owner island and packed word-mates never cross an
 * ownership boundary, so whole-word boundary pushes stay sound.
 * Islands write only tokens they own and read everything from their
 * local replica; owners push boundary values into reader replicas at
 * phase ends, so all sharing is one-way word copies separated by
 * barriers.
 *
 * Cycle protocol (each parallel phase is fenced by a start and a done
 * barrier over all participants):
 *
 *   settle  - skipped when no external write is pending, like the
 *             sequential kernel. Runs the islands' levelized comb
 *             schedules as nlevels supersteps: superstep L executes
 *             every comb block whose longest cross-island dependency
 *             chain has length L, pushes the values written to
 *             cross-island readers, and joins a workers-only barrier.
 *   tick    - islands run their sequential IR blocks against their
 *             replicas; concurrently the coordinating thread runs every
 *             tick lambda (TickFl/TickCl) in declaration order, since
 *             lambda effects are undeclared. Ticks read current values
 *             and write next values, so the phase needs no internal
 *             synchronization.
 *   flop    - each island copies next->current for its owned flopped
 *             nets, then pushes post-flop values (and values written
 *             blockingly at tick time) to reader replicas; the
 *             coordinating thread flops nets registered dynamically by
 *             lambda writeNext in every replica. All targets are
 *             disjoint words.
 *   settle  - as above, always runs.
 *
 * Determinism: islands execute their blocks in the global static
 * schedule restricted to the island, values cross islands only at
 * barriers, and tick lambdas always run on one thread in declaration
 * order — so results are bit-identical to SimulationTool at any thread
 * count. The one pattern outside the guarantee is a design whose tick
 * blocks communicate through *blocking* writes with a tick lambda
 * (already tick-order-fragile sequentially); blocking communication
 * between IR tick blocks is detected and the blocks are co-located.
 *
 * Requires an arena-hosted backend ("optinterp", "bytecode",
 * "cpp-block" or "cpp-design") and a statically schedulable design
 * (no combinational cycles).
 */

#ifndef CMTL_CORE_PSIM_H
#define CMTL_CORE_PSIM_H

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "partition.h"
#include "sim.h"

namespace cmtl {

/**
 * Sense-reversing spin barrier (with yield fallback). Worker counts
 * are small (one per island), so spinning through the short exchange
 * windows is cheaper than parking on a futex every superstep.
 */
class SpinBarrier
{
  public:
    explicit SpinBarrier(int nthreads) : nthreads_(nthreads) {}

    void
    arriveAndWait()
    {
        uint64_t phase = phase_.load(std::memory_order_acquire);
        if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            nthreads_) {
            arrived_.store(0, std::memory_order_relaxed);
            phase_.fetch_add(1, std::memory_order_acq_rel);
        } else {
            int spins = 0;
            while (phase_.load(std::memory_order_acquire) == phase) {
                if (++spins > 4096)
                    std::this_thread::yield();
            }
        }
    }

  private:
    std::atomic<int> arrived_{0};
    std::atomic<uint64_t> phase_{0};
    const int nthreads_;
};

/**
 * The parallel bulk-synchronous simulator. Drop-in replacement for
 * SimulationTool behind the Simulator interface; construct directly or
 * through makeSimulator() with cfg.threads > 1.
 */
class ParSimulationTool : public Simulator
{
  public:
    explicit ParSimulationTool(std::shared_ptr<Elaboration> elab,
                               SimConfig cfg = SimConfig{});
    ~ParSimulationTool() override;

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

    /** The partition this simulator runs (for quality reporting). */
    const PartitionPlan &plan() const { return plan_; }

  private:
    enum class Cmd { Settle, Tick, Flop, Exit };

    /** One scheduled unit of an island. */
    struct PStep
    {
        enum class Kind { Slot, Bytecode, Native };
        Kind kind = Kind::Slot;
        int block = -1; //!< ElabBlock index (Slot/Bytecode)
        int group = -1; //!< compiled-C++ group index (Native)
        int level = 0;  //!< settle superstep (comb steps only)
        /** Bound entry of a Native step: a cpp-block group (its change
         *  mask is unused here) or a cpp-design unit of the island's
         *  library; set once the library loads or the tier swaps. */
        CppJitLibrary::BlockFn block_fn = nullptr;
        CppJitLibrary::UnitFn unit_fn = nullptr;
    };

    /** Boundary word copy: cur words [off, off+n) into replica dst. */
    struct CopyOp
    {
        int dst;
        int off;
        int n;
    };

    void buildIslandSchedules();
    void buildGating();
    /** Mark every island with a static reader of @p token (plus its
     *  owner, whose driver must overwrite externally poked values)
     *  as having seen an input change. Coordinator-side marks only;
     *  workers mark through pushCur / runIslandFlop. */
    void markReaderIslandsDirty(int token);
    void specialize();
    void specializeDesign();
    void adoptNativeTier();
    void maybeSwapTier();
    void startWorkers();
    void shutdownWorkers();
    void workerLoop(int island);
    void runPhase(Cmd cmd);
    void settlePhase();
    void runPStep(int island, const PStep &step);
    void runPStepImpl(int island, const PStep &step);
    void runIslandSettle(int island);
    void runIslandTick(int island);
    void runIslandFlop(int island);
    void pushCur(int island, const CopyOp &op);

    ArenaStore &replicaFor(int net) const;
    void markMainFlop(int net);

    PartitionPlan plan_;
    std::vector<std::unique_ptr<ArenaStore>> replicas_;
    std::vector<std::unique_ptr<SlotEvaluator>> evals_;
    /** Snap/poke hooks delegate here (accessor.h). */
    NetAccessor accessor_;
    /** Per-island flop phase coalesced into whole-word copy ranges
     *  (shared layout, so ranges are valid in every replica). */
    std::vector<FlopCopyPlan> island_flop_plans_;

    // Per-island schedules (comb steps sorted by superstep level).
    std::vector<std::vector<PStep>> comb_steps_;
    std::vector<std::vector<PStep>> tick_steps_;
    /** comb_pushes_[island][level]: copies at the end of a superstep. */
    std::vector<std::vector<std::vector<CopyOp>>> comb_pushes_;
    /** flop_pushes_[island]: copies after the island's flops. */
    std::vector<std::vector<CopyOp>> flop_pushes_;

    // Specialization (shared read-only across islands; programs use
    // absolute arena offsets, identical in every replica).
    std::vector<BcProgram> bc_programs_;
    std::vector<std::vector<uint64_t>> bc_scratch_; //!< per island
    CppJitLibrary cpp_lib_;
    std::vector<char> specialized_;
    std::vector<char> dead_block_; //!< comb blocks elided by dead_elim

    // --- cpp-design tiering ----------------------------------------
    // Tier 0 runs the per-island bytecode schedules; the fused native
    // schedules below replace comb_steps_/tick_steps_ wholesale when
    // the background compile is adopted. The swap happens on the
    // coordinator while every worker is parked before a start barrier,
    // which also publishes the new schedules to them. Codegen is one
    // translation unit PER ISLAND — island_libs_[i] holds island i's
    // fused modules and design-native PStep::group indices are local
    // to that island's library — so each island's module caches
    // independently and only an island's own code is resident on its
    // worker.
    std::vector<std::vector<PStep>> nat_comb_steps_;
    std::vector<std::vector<PStep>> nat_tick_steps_;
    std::vector<int> island_flop_unit_; //!< island-local flop module
    /** island_flop_unit_ entries, bound at the tier swap. */
    std::vector<CppJitLibrary::UnitFn> island_flop_fn_;
    std::vector<std::string> island_sources_;
    std::vector<int> island_nunits_;
    std::vector<CppJitLibrary> island_libs_;
    int design_nunits_ = 0; //!< total units across island TUs
    bool design_native_ = false;
    bool tier_failed_ = false;
    std::thread jit_thread_;
    std::atomic<bool> jit_ready_{false};
    std::vector<CppJitLibrary> pending_libs_;
    std::exception_ptr jit_error_;

    // Nets flopped by the coordinating thread (registered dynamically
    // by lambda writeNext; statically flopped nets belong to islands).
    std::vector<int> main_flops_;
    std::vector<char> is_main_flop_;
    std::vector<char> static_island_flop_;

    // --- activity gating (SimConfig::gating) -----------------------
    // An island whose inputs did not change since its last settle
    // holds exactly the values a re-settle would recompute, so its
    // worker skips the superstep compute and pushes, joining only the
    // barriers. Dirt sources: its own flops changing value, boundary
    // pushes that actually changed its replica (pushCur compares
    // before copying), its own tick blocks' blocking writes
    // (conservative, per cycle), and coordinator-side writes. Before
    // each settle the coordinator closes the dirty set transitively
    // over the static island push graph — an active island's comb
    // outputs may change mid-settle, so every island it pushes to
    // must run as well — then clears all flags once the phase ends.
    bool gating_ = false;
    /** Flagged islands saw an input change since their last settle.
     *  Atomic because several islands may push into one destination
     *  concurrently during the flop phase; all accesses are relaxed —
     *  the phase barriers order them. */
    std::vector<std::atomic<uint8_t>> island_dirty_;
    /** Published by the coordinator before each settle start barrier:
     *  islands that must run the phase (dirty set, closed over the
     *  push graph). */
    std::vector<char> settle_active_;
    /** Static island adjacency: comb_push_islands_[i] lists islands
     *  island i's settle pushes target (any level). */
    std::vector<std::vector<int>> comb_push_islands_;
    /** Island has a tick block writing an array or a never-flopped
     *  net: its own comb inputs may change blockingly every cycle. */
    std::vector<char> tick_dirty_island_;

    // Thread pool and phase coordination.
    std::vector<std::thread> workers_;
    SpinBarrier bar_all_;     //!< workers + coordinator
    SpinBarrier bar_workers_; //!< workers only (settle supersteps)
    Cmd cmd_ = Cmd::Settle;   //!< written before the start barrier
    std::atomic<bool> failed_{false};
    std::exception_ptr worker_error_;
    std::mutex error_mu_;

    bool dirty_ = true;
};

/**
 * Construct the simulator cfg asks for: the sequential SimulationTool
 * when cfg.threads <= 1, the parallel ParSimulationTool otherwise.
 */
std::unique_ptr<Simulator> makeSimulator(std::shared_ptr<Elaboration> elab,
                                         SimConfig cfg = SimConfig{});

} // namespace cmtl

#endif // CMTL_CORE_PSIM_H
