/**
 * @file
 * Per-System observability recorder plus the two process-wide
 * opt-ins the session flags set (--trace-out / --trace-categories
 * and --profile).  Histograms and counter sampling are per machine:
 * they arrive as makeRecorder() arguments from the machine's
 * EngineOptions.
 *
 * A System asks makeRecorder() for a Recorder at construction; the
 * result is null when nothing is enabled, and components then cache
 * null buffer/metrics pointers — the zero-overhead-when-off contract.
 * The trace output file is claimed by the first System that asks for
 * it (one file, one run); parallel experiment workers therefore
 * trace exactly one run instead of interleaving into one file.
 *
 * Shard safety: every mutable stream is striped per shard — trace
 * events via TraceSink buffers, histograms via RunMetrics lanes,
 * lock events via append-only LockLogs — so parallel phases write
 * without locks.  Reads (metrics(), the trace file, the lock-episode
 * replay) merge the lanes deterministically; because the shard
 * partition is fixed by configuration, every merged result is
 * independent of the worker-lane count.
 */

#ifndef DDC_OBS_RECORDER_HH
#define DDC_OBS_RECORDER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"

namespace ddc {
namespace obs {

/**
 * Set the process-wide trace destination (--trace-out /
 * --trace-categories).  Process-wide because there is one trace file
 * per process, claimed by the first machine built after this call.
 * Re-arms that claim, so tests can trace several successive Systems.
 * An empty @p path disables tracing.
 */
void setTraceOutput(std::string path,
                    std::uint32_t categories = kAllCategories);

/**
 * Process-wide --profile flag (host wall-clock phase splits).  A
 * setter rather than an EngineOptions field because perfbench, which
 * builds its machines without the experiment engine, turns it on
 * around its traced runs.
 */
void setPhaseProfilingEnabled(bool enabled);
bool phaseProfilingEnabled();

/**
 * Host wall-clock phase splits (--profile): where the simulator
 * itself spends real time, as opposed to the simulated-cycle
 * quantities every other obs stream records.  Written only from
 * serial phases (the kernel coordinator, the fabric tick), read
 * after the run; host-dependent by design, so the values ride the
 * timing-gated JSON block, never the deterministic result surface.
 */
struct PhaseProfile
{
    /** Coordinator tick work (serial shard + own lane share). */
    double kernel_tick_ms = 0.0;
    /** Coordinator wait for the other lanes at the epoch barrier. */
    double kernel_barrier_ms = 0.0;
    /** Directory fabric: request routing pass. */
    double fabric_route_ms = 0.0;
    /** Directory fabric: home-node service pass. */
    double fabric_serve_ms = 0.0;
};

/** One raw lock-word event, appended by a Bus on its own shard. */
struct LockEvent
{
    Cycle cycle = 0;
    Addr addr = 0;
    PeId pe = 0;
    /** 0 = failed RMW, 1 = successful RMW, 2 = release write. */
    std::uint8_t kind = 0;
};

/**
 * One shard's append-only lock-event log.  Buses record raw
 * attempt/release events here instead of driving episode state
 * machines directly: episode reconstruction (spin spans, acquire
 * latency, hand-off gaps) needs cross-shard order, so it runs as a
 * single-threaded replay over the merged logs after the run.
 */
class LockLog
{
  public:
    /** An RMW for @p addr reached the bus. */
    void
    attempt(PeId pe, Addr addr, Cycle now, bool success)
    {
        events.push_back({now, addr, pe,
                          static_cast<std::uint8_t>(success ? 1 : 0)});
    }

    /** A write completed to @p addr (a release if it is a lock). */
    void
    release(PeId pe, Addr addr, Cycle now)
    {
        events.push_back({now, addr, pe, 2});
    }

    const std::vector<LockEvent> &entries() const { return events; }

  private:
    std::vector<LockEvent> events;
};

/**
 * One System's observability state: the trace sink (if this System
 * won the claim), the per-shard histogram lanes, the counter
 * sampler, the per-shard lock logs, and the host phase profile.
 *
 * Writers address their shard's lane (trace(category, shard),
 * metricsLane(shard), lockLane(shard)); readers use the merging
 * accessors (metrics(), the written trace).  Shard 0 is the serial
 * shard (global bus / directory fabric); cluster c writes lane 1+c.
 * Flat systems use shard 0 throughout.
 */
class Recorder
{
  public:
    /**
     * @param shards Number of metric/lock lanes to provision (the
     *        machine's shard count, not the worker-lane count).
     * @param profiling Allocate the PhaseProfile.
     */
    Recorder(std::unique_ptr<TraceSink> trace_sink, bool histograms,
             Cycle sample_every, std::size_t shards = 1,
             bool profiling = false);

    /** Replays the lock trace, then the sink writes its file. */
    ~Recorder();

    /** Buffer for @p category on @p shard, or null when not traced. */
    TraceBuffer *
    trace(Category category, std::size_t shard = 0)
    {
        return traceSink && traceSink->enabled(category)
                   ? traceSink->buffer(shard)
                   : nullptr;
    }

    /** The trace sink itself, or null (kernel lanes, writeFile). */
    TraceSink *sink() { return traceSink.get(); }

    /** Histogram lane for @p shard, or null when --histograms off. */
    RunMetrics *metricsLane(std::size_t shard);

    /**
     * The merged view: all lanes folded together plus the lock
     * episodes replayed.  Recomputed on each call; valid until the
     * next call.  Null when --histograms is off.
     */
    RunMetrics *metrics();

    /** Counter sampler, or null when --sample-every is off. */
    CounterSampler *sampler() { return counterSampler.get(); }

    /** Host phase profile, or null when --profile is off. */
    PhaseProfile *profile() { return phaseProfile.get(); }

    /** True when the Bus should report lock events at all. */
    bool
    wantsLockEvents() const
    {
        return histogramsOn ||
               (traceSink && traceSink->enabled(Category::Lock));
    }

    /** Lock log for @p shard, or null when lock events are off. */
    LockLog *lockLane(std::size_t shard);

    /**
     * Replay the merged lock logs into the trace's lock track
     * (spin B/E spans, acquire/release markers).  Idempotent; runs
     * automatically at destruction, before the sink writes.  Call
     * early only to write the trace while the Recorder is alive.
     */
    void flushLockTrace();

  private:
    /**
     * Single-threaded episode reconstruction over the merged lock
     * logs (stable by cycle, shard order breaking ties — the serial
     * kernel's tick order).  Feeds lock_acquire / lock_handoff into
     * @p into and/or emits lock-track events into @p lock_trace.
     */
    void replayLocks(RunMetrics *into, TraceBuffer *lock_trace) const;

    std::unique_ptr<TraceSink> traceSink;
    bool histogramsOn;
    std::vector<std::unique_ptr<RunMetrics>> metricsLanes;
    RunMetrics mergedMetrics;
    std::unique_ptr<CounterSampler> counterSampler;
    std::vector<std::unique_ptr<LockLog>> lockLanes;
    std::unique_ptr<PhaseProfile> phaseProfile;
    bool lockTraceFlushed = false;
};

/**
 * Build the Recorder for a System given its histogram flag, sampling
 * interval (0 = off) and shard count; the trace claim and --profile
 * are the only process-wide inputs.
 * @return null when no observability feature is enabled.
 */
std::unique_ptr<Recorder> makeRecorder(bool histograms,
                                       Cycle sample_every,
                                       std::size_t shards = 1);

} // namespace obs
} // namespace ddc

#endif // DDC_OBS_RECORDER_HH
