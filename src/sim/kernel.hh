/**
 * @file
 * The simulation kernel: the one run-loop driver both machines share.
 *
 * The kernel owns tick ordering, quiescent-cycle skipping (next-event
 * time advance via each shard's nextEventCycle), stall-skip flushing,
 * and budget/timeout accounting; System and HierSystem are
 * configuration + component wiring over it.  A machine registers an
 * optional *serial* shard (ticked first each cycle, by the
 * coordinating thread — the hierarchical machine's global bus) and
 * any number of *parallel* shards (the clusters), then calls run().
 *
 * With more than one worker lane the parallel shards tick
 * concurrently on a persistent worker pool, with a barrier before the
 * clock advances; the quiescent-skip window (the minimum of every
 * shard's nextEventCycle) is computed by the coordinator between
 * barriers, reusing the PR-3 machinery as the conservative lookahead.
 * Between barriers the coordinator additionally computes a safe
 * multi-cycle window: the earliest cycle any shard could next arm the
 * global interconnect (its earliestGlobalEmission) plus the one-cycle
 * serial-observation latency bounds how many cycles the lanes may run
 * unsynchronized, so quiet stretches pay one barrier for k cycles
 * instead of k barriers.  In deterministic mode (the default) the
 * shard-to-lane schedule is static and results are byte-identical to
 * a sequential run; see DESIGN.md, "The kernel and shard contract"
 * and "The lookahead contract".
 */

#ifndef DDC_SIM_KERNEL_HH
#define DDC_SIM_KERNEL_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "obs/recorder.hh"
#include "sim/clock.hh"
#include "sim/shard.hh"

namespace ddc {

/** How a bounded run ended. */
enum class RunStatus
{
    /** Every agent finished within the cycle budget. */
    Finished,
    /** The cycle budget elapsed first (deadlock or runaway scenario). */
    TimedOut,
};

/** Stable name of @p status ("finished" / "timed_out"). */
std::string_view toString(RunStatus status);

/**
 * Process-wide quiescent-skip switch, default on.  The --no-skip flag
 * clears it so every machine built afterwards — including ones buried
 * inside custom experiment points — runs cycle by cycle, without
 * threading a flag through each construction site.
 */
void setQuiescentSkipEnabled(bool enabled);
bool quiescentSkipEnabled();

/**
 * Process-wide conservative-lookahead switch, default on.  The
 * --no-lookahead flag clears it so every sharded machine built
 * afterwards barriers once per simulated cycle — the PR-6 baseline —
 * without threading a flag through each construction site.  Purely a
 * host-performance knob: results are byte-identical either way.
 */
void setLookaheadEnabled(bool enabled);
bool lookaheadEnabled();

/**
 * Process-wide default worker-lane count for machines whose config
 * leaves shards = 0, default 1.  The --shards flag sets it so every
 * hierarchical machine built afterwards — including ones buried
 * inside custom experiment points — runs its clusters on that many
 * host threads.  Purely a host-performance knob: results are
 * byte-identical for every value.
 */
void setDefaultShards(int shards);
int defaultShards();

/** Kernel tuning knobs (resolved by the owning machine's config). */
struct KernelConfig
{
    /**
     * Worker lanes for the parallel shard group (clamped to the
     * number of parallel shards; 1 = tick everything on the calling
     * thread).
     */
    int shards = 1;
    /**
     * Static shard-to-lane schedule with byte-identical output (the
     * default).  When false the lanes claim shards dynamically
     * (load-balanced); every shard still ticks exactly once per
     * cycle, so simulation results do not change — but only the
     * deterministic mode *guarantees* byte-identity as a contract.
     */
    bool deterministic = true;
    /**
     * Fast-forward run() across quiescent cycles (next-event time
     * advance).  Results are byte-identical either way; off is the
     * A/B-debugging baseline.  ANDed with the process-wide
     * setQuiescentSkipEnabled() switch (the --no-skip flag).
     */
    bool skip_quiescent = true;
    /**
     * Conservative lookahead: let parallel lanes tick multi-cycle
     * windows between barriers when no shard can reach the global
     * edge sooner.  Byte-identical either way; only a parallel run
     * (more than one lane) ever forms windows.  ANDed with the
     * process-wide setLookaheadEnabled() switch (--no-lookahead).
     */
    bool lookahead = true;
};

/** The shared run-loop driver (see file comment). */
class Kernel
{
  public:
    Kernel(Clock &clock, const KernelConfig &config);

    /** Joins the worker pool; shards die with the kernel. */
    ~Kernel();

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    /**
     * Create the serial shard (at most one): ticked first each cycle,
     * always by the coordinating thread.  @p seed is the machine
     * seed; shard ids are assigned in creation order.
     */
    Shard &makeSerialShard(std::uint64_t seed, std::size_t agent_slots);

    /** Create the next parallel shard. */
    Shard &makeShard(std::uint64_t seed, std::size_t agent_slots);

    /**
     * Quiesce-category trace buffer (may be null; off by default).
     * Written only from the coordinating thread — outer skips and
     * window-overlap segments are both serial-phase work — so a
     * single buffer suffices at any lane count.
     */
    void setQuiesceSink(obs::TraceBuffer *sink) { quiesce = sink; }

    /**
     * Kernel self-profiling trace (--trace-categories=kernel): the
     * lookahead-window counter track, per-lane tick spans, and the
     * coordinator's barrier-wait spans.  The kernel allocates one
     * private buffer per lane from @p sink when the worker pool
     * starts.  Host-dependent by design (spans carry wall-clock
     * args and the lane layout), so enabling it forfeits the
     * byte-identical-across---shards trace guarantee; a single-lane
     * run emits nothing (there are no epochs to profile).
     */
    void setKernelTrace(obs::TraceSink *sink) { kernelSink = sink; }

    /** Counter sampler polled each loop iteration (may be null). */
    void setSampler(obs::CounterSampler *sampler) { this->sampler = sampler; }

    /**
     * Pin this kernel to one lane regardless of config: a machine
     * whose run must stay on the calling thread (serial execution
     * log, attached observability recorder) calls this once at
     * construction.  Results are identical either way — parallel
     * lanes are disabled, not the shard structure.
     */
    void forceSequential() { sequentialOnly = true; }

    /**
     * Run until every shard is done or @p max_cycles elapse, then
     * flush accrued stalls so counters are readable.  The caller owns
     * warning/reporting on timeout.
     */
    RunStatus run(Cycle max_cycles);

    /**
     * Advance exactly one cycle on the calling thread: serial shard,
     * parallel shards in id order, clock.  Manual ticking is always
     * sequential (and byte-identical to a parallel run()).
     */
    void tickOnce();

    /** True when every shard's agents have finished. */
    bool allDone() const;

    /**
     * Cycles run() fast-forwarded instead of ticking (0 with skipping
     * disabled); included in the clock advance.
     */
    Cycle skippedCycles() const { return skipped; }

    /** Flush every shard's accrued stall cycles (counter reads). */
    void flushStalls() const;

    /**
     * Worker lanes the next run() will use: config.shards clamped to
     * the parallel shard count, 1 when forceSequential() was called.
     */
    int workerLanes() const;

    /**
     * Parallel barriers executed by run() so far: one per parallel
     * phase, whether it covered one cycle or a multi-cycle lookahead
     * window (0 on a single-lane run).
     */
    std::uint64_t barrierEpochs() const { return epochs; }

    /**
     * Mean cycles per barrier window (0 with no parallel phases);
     * 1.0 means lookahead never beat the cycle-per-barrier baseline.
     */
    double
    meanLookaheadWindow() const
    {
        return epochs == 0
            ? 0.0
            : static_cast<double>(windowSum) / static_cast<double>(epochs);
    }

    /**
     * Accumulate host wall time split between the coordinator's own
     * tick work and its wait at the barrier into @p profile
     * (kernel_tick_ms / kernel_barrier_ms; chrono calls only when
     * non-null, off by default).  Purely host-side observability:
     * simulation results are unaffected, so unlike the simulated
     * trace hooks this never needs to pin the kernel to one lane.
     */
    void setProfile(obs::PhaseProfile *profile)
    {
        this->profile = profile;
    }

  private:
    /** Earliest next event across every shard (see Shard). */
    Cycle earliestNextEvent() const;

    /** Fast-forward @p count quiescent cycles on every shard. */
    void skipQuiescent(Cycle count);

    /**
     * Safe lookahead window from clock.now: the largest k such that no
     * shard's global-ward traffic could become serially observable,
     * and the machine could not finish, strictly inside the window.
     * Clamped to the budget @p end; at least 1.
     */
    Cycle lookaheadWindow(Cycle end) const;

    /**
     * One parallel phase: release lanes, tick each shard windowLen
     * cycles, barrier.  The caller skips/ticks the serial shard first
     * and advances the clock after.
     */
    void tickShardsParallel();

    /** Coordinator's acquire-wait for every worker lane's arrival. */
    void awaitArrivals();

    /** Tick the shards assigned to (or claimed by) @p lane. */
    void runLane(int lane);

    /**
     * Run shard @p index through the current multi-cycle window:
     * cycle-by-cycle ticks, with shard-local quiescent stretches
     * skipped (and recorded for the cross-shard skip accounting) when
     * windowSkipping is set.
     */
    void tickShardWindow(Shard &shard, std::size_t index);

    /**
     * Cycles inside the window starting at @p base on which *every*
     * parallel shard was skipped as quiescent — exactly the cycles a
     * sequential run would have covered with a whole-machine skip
     * (the serial shard is quiescent for the entire window by
     * construction), so they land in skippedCycles().  Each overlap
     * segment is also emitted as a quiesce trace span; the writer
     * coalesces abutting spans, so the written intervals match the
     * sequential run's whole-machine skips exactly.
     */
    Cycle windowQuiescentOverlap(Cycle base, Cycle window);

    void startWorkers(int lanes);
    void stopWorkers();
    void workerMain(int lane, std::uint64_t seen);

    Clock &clock;
    KernelConfig config;
    bool sequentialOnly = false;
    int nextShardId = 0;
    std::unique_ptr<Shard> serial;
    std::vector<std::unique_ptr<Shard>> group;
    Cycle skipped = 0;

    obs::TraceBuffer *quiesce = nullptr;
    obs::CounterSampler *sampler = nullptr;
    /** Kernel-category sink; lane buffers are cut from it on start. */
    obs::TraceSink *kernelSink = nullptr;
    /** Per-lane kernel trace buffers (empty = kernel trace off). */
    std::vector<obs::TraceBuffer *> laneTrace;

    // Lookahead-window state.  windowLen / windowSkipping are written
    // by the coordinator before the epoch release-publish and only
    // read by lanes after the acquire, so they need no atomicity;
    // windowQuiescent has exactly one writer per entry (the lane that
    // ran that shard) and is read by the coordinator after the
    // barrier.
    Cycle windowLen = 1;
    bool windowSkipping = false;
    std::vector<std::vector<std::pair<Cycle, Cycle>>> windowQuiescent;
    std::uint64_t epochs = 0;
    std::uint64_t windowSum = 0;

    // Opt-in host phase timing (see setProfile()).
    obs::PhaseProfile *profile = nullptr;

    // Persistent worker pool (workers = lanes - 1; the coordinator is
    // lane 0).  Per cycle: the coordinator publishes a new epoch
    // (release), lanes tick their shards, and the coordinator waits
    // for the arrival count (acquire) — the acquire/release pair is
    // the barrier that makes all shard-phase writes visible before
    // the serial phase of the next cycle.  Both sides spin-then-park
    // (see kBarrierSpin in kernel.cc).
    std::vector<std::thread> workers;
    std::atomic<std::uint64_t> epoch{0};
    std::atomic<int> arrivalsPending{0};
    /** Next unclaimed shard index (dynamic schedule only). */
    std::atomic<std::size_t> claim{0};
    std::atomic<bool> quitting{false};
    /** Lanes the pool was started with (0 = not started). */
    int laneCount = 0;
};

} // namespace ddc

#endif // DDC_SIM_KERNEL_HH
