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
 * concurrently on a persistent worker pool: each cycle the
 * coordinator runs the serial phase, every parallel shard ticks once
 * on its static lane (shard i on lane i % lanes), and a barrier
 * precedes the clock advance.  The quiescent-skip window (the minimum
 * of every shard's nextEventCycle) is computed by the coordinator
 * between barriers.  Because the shard-to-lane partition is a pure
 * function of (shard count, lane count) and every shard ticks exactly
 * once per cycle, results are byte-identical to a sequential run; see
 * DESIGN.md, "The kernel and shard contract".
 */

#ifndef DDC_SIM_KERNEL_HH
#define DDC_SIM_KERNEL_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <thread>
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
 * How the engine runs a machine, as opposed to what machine it runs
 * (MachineShape, sim/system.hh).  SystemConfig and HierConfig both
 * inherit it; the session flags (--no-skip, --no-snoop-filter,
 * --histograms, --sample-every, --shards) fill one value that the
 * experiment runner hands every point, and each point copies it into
 * the machines it builds with `config.engine() = engine;`.
 *
 * No field changes a simulated result: skip_quiescent, snoop_filter
 * and shards are host-speed knobs whose off/1 settings are the A/B
 * baselines, and histograms / sample_every only add observational
 * output.
 */
struct EngineOptions
{
    /**
     * Fast-forward run() across quiescent cycles (next-event time
     * advance).  Results are byte-identical either way; off is the
     * A/B-debugging baseline.
     */
    bool skip_quiescent = true;
    /**
     * Resolve bus broadcasts and supplier scans through each bus's
     * sharer index (O(holders) per transaction) instead of visiting
     * every attached cache (O(PEs)).  Results are byte-identical
     * either way; off is the A/B baseline.
     */
    bool snoop_filter = true;
    /**
     * Collect latency histograms (miss service, bus wait, retries,
     * lock acquisition, inter-write distance).  All inputs are cycle
     * counts: the recorded distributions never perturb (and are never
     * perturbed by) simulation results.
     */
    bool histograms = false;
    /**
     * Snapshot selected counters every N cycles into a per-run time
     * series (0 = off).
     */
    Cycle sample_every = 0;
    /**
     * Worker lanes for the parallel shard group (clamped to the
     * number of parallel shards, so a flat machine always runs one;
     * 1 = tick everything on the calling thread).
     */
    int shards = 1;

    /** These options as the base of a machine config. */
    EngineOptions &engine() { return *this; }
};

/** The shared run-loop driver (see file comment). */
class Kernel
{
  public:
    Kernel(Clock &clock, const EngineOptions &config);

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
     * Written only from the coordinating thread (skips are
     * serial-phase work), so a single buffer suffices at any lane
     * count.
     */
    void setQuiesceSink(obs::TraceBuffer *sink) { quiesce = sink; }

    /**
     * Kernel self-profiling trace (--trace-categories=kernel):
     * per-lane tick spans and the coordinator's barrier-wait spans.
     * The kernel allocates one private buffer per lane from @p sink
     * when the worker pool starts.  Host-dependent by design (spans
     * carry wall-clock args and the lane layout), so enabling it
     * forfeits the byte-identical-across---shards trace guarantee; a
     * single-lane run emits nothing (there are no epochs to
     * profile).
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
     * Parallel barriers executed by run() so far: one per ticked
     * cycle of a multi-lane run (0 on a single-lane run).
     */
    std::uint64_t barrierEpochs() const { return epochs; }

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
     * One parallel phase: release lanes, tick each shard once,
     * barrier.  The caller ticks the serial shard first and advances
     * the clock after.
     */
    void tickShardsParallel();

    /** Coordinator's acquire-wait for every worker lane's arrival. */
    void awaitArrivals();

    /** Tick the shards statically assigned to @p lane. */
    void runLane(int lane);

    void startWorkers(int lanes);
    void stopWorkers();
    void workerMain(int lane, std::uint64_t seen);

    Clock &clock;
    EngineOptions config;
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

    std::uint64_t epochs = 0;

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
    std::atomic<bool> quitting{false};
    /** Lanes the pool was started with (0 = not started). */
    int laneCount = 0;
};

} // namespace ddc

#endif // DDC_SIM_KERNEL_HH
