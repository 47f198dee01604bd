#include "sim/kernel.hh"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "base/logging.hh"

namespace ddc {

std::string_view
toString(RunStatus status)
{
    switch (status) {
      case RunStatus::Finished: return "finished";
      case RunStatus::TimedOut: return "timed_out";
    }
    return "?";
}

namespace {

/**
 * How long a barrier party spins on the barrier atomic before parking
 * on it with atomic::wait (a futex).  Parking costs the party a
 * scheduler round trip and its releaser a wake syscall, together some
 * 10-25 us per epoch on a 4-thread x86 host.  The bound covers what a
 * worker lane usually waits out: the serial fabric phase plus the
 * coordinator's own lane, which on the 1024-PE directory point (32x32
 * PEs, 8 homes, 4 lanes) averages about 35-50 us per one-cycle epoch
 * (route + serve time over 23 199 epochs).  A party still waiting
 * after the bound (a long serial phase, the pool idle between runs)
 * parks, so a spin burns at most this much CPU per epoch.
 */
constexpr std::chrono::microseconds kBarrierSpin{100};

/** One busy-wait step: lets the core know it is spinning. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#endif
}

/**
 * Spin until @p ready() holds or kBarrierSpin has passed; true when
 * it held.  Every 64 polls the spinner reads the clock and yields its
 * core: with nothing else runnable the yield returns at once, but when
 * other threads compete for the cores (a `ctest -j` run, a shared
 * host, more lanes than hardware threads) a pure spin would keep the
 * thread the barrier waits for off the CPU: on a 4-thread host under
 * `ctest -j4` that made the parallel test suites ~10x slower.
 */
template <typename Ready>
bool
spinUntil(Ready ready)
{
    const auto deadline = std::chrono::steady_clock::now() + kBarrierSpin;
    for (unsigned polls = 1;; polls++) {
        if (ready())
            return true;
        cpuRelax();
        if (polls % 64 == 0) {
            if (std::chrono::steady_clock::now() >= deadline)
                return false;
            std::this_thread::yield();
        }
    }
}

/** Wall ms between two steady-clock points. */
double
elapsedMs(std::chrono::steady_clock::time_point from,
          std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

/** Wall us between two steady-clock points (kernel trace args). */
std::int64_t
elapsedUs(std::chrono::steady_clock::time_point from,
          std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               to - from)
        .count();
}

} // namespace

Kernel::Kernel(Clock &clock, const EngineOptions &config)
    : clock(clock), config(config)
{
    ddc_assert(config.shards >= 1, "kernel needs at least one lane");
}

Kernel::~Kernel()
{
    stopWorkers();
}

Shard &
Kernel::makeSerialShard(std::uint64_t seed, std::size_t agent_slots)
{
    ddc_assert(!serial, "a kernel has at most one serial shard");
    serial = std::make_unique<Shard>(nextShardId++, seed, agent_slots);
    return *serial;
}

Shard &
Kernel::makeShard(std::uint64_t seed, std::size_t agent_slots)
{
    ddc_assert(laneCount == 0, "shards must be created before running");
    group.push_back(
        std::make_unique<Shard>(nextShardId++, seed, agent_slots));
    return *group.back();
}

int
Kernel::workerLanes() const
{
    if (sequentialOnly || group.size() <= 1)
        return 1;
    return std::min<int>(config.shards,
                         static_cast<int>(group.size()));
}

void
Kernel::tickOnce()
{
    if (serial)
        serial->tick();
    for (auto &shard : group)
        shard->tick();
    clock.now++;
}

bool
Kernel::allDone() const
{
    if (serial && !serial->done())
        return false;
    for (const auto &shard : group) {
        if (!shard->done())
            return false;
    }
    return true;
}

Cycle
Kernel::earliestNextEvent() const
{
    Cycle earliest = kNever;
    if (serial) {
        earliest = serial->nextEventCycle(clock.now);
        if (earliest <= clock.now)
            return clock.now;
    }
    for (const auto &shard : group) {
        Cycle next = shard->nextEventCycle(clock.now);
        if (next <= clock.now)
            return clock.now;
        earliest = std::min(earliest, next);
    }
    return earliest;
}

void
Kernel::skipQuiescent(Cycle count)
{
    if (quiesce) {
        obs::TraceEvent event;
        event.ts = clock.now;
        event.dur = count;
        event.name = "quiesce";
        event.phase = 'X';
        event.track = obs::kTrackSim;
        event.tid = 0;
        quiesce->push(event);
    }
    if (serial)
        serial->skipCycles(count);
    for (auto &shard : group)
        shard->skipCycles(count);
    clock.now += count;
    skipped += count;
}

void
Kernel::flushStalls() const
{
    if (serial)
        serial->flushStalls();
    for (const auto &shard : group)
        shard->flushStalls();
}

RunStatus
Kernel::run(Cycle max_cycles)
{
    Cycle end = clock.now + max_cycles;
    // Next-event time advance: when no bus can grant and no agent can
    // act this cycle, jump the clock to the earliest future event
    // (typically the end of a memory-latency transfer) instead of
    // ticking through the quiescent interval.  Every skipped cycle is
    // bulk-accounted exactly as a tick would have, so counters, the
    // execution log, and arbiter RNG streams are byte-identical with
    // skipping on or off.
    bool skipping = config.skip_quiescent;
    int lanes = workerLanes();
    if (lanes > 1)
        startWorkers(lanes);
    while (!allDone() && clock.now < end) {
        if (sampler && sampler->due(clock.now))
            sampler->sample(clock.now);
        if (skipping) {
            Cycle next = earliestNextEvent();
            if (next > clock.now) {
                // kNever (all components blocked on each other) fast-
                // forwards to the budget, reported as timed_out by the
                // caller.  The skip lands exactly on the next sample
                // point when one is nearer, so the recorded series is
                // identical at every lane count.
                Cycle to = std::min(next, end);
                if (sampler)
                    to = std::min(to, sampler->nextAt());
                skipQuiescent(to - clock.now);
                continue;
            }
        }
        if (lanes > 1) {
            if (serial)
                serial->tick();
            tickShardsParallel();
            epochs++;
            clock.now++;
        } else {
            tickOnce();
        }
    }
    // Agents still stalled (timeout) carry unflushed skipped-stall
    // cycles; account them before anyone reads counters.
    flushStalls();
    return allDone() ? RunStatus::Finished : RunStatus::TimedOut;
}

void
Kernel::runLane(int lane)
{
    obs::TraceBuffer *lane_trace =
        laneTrace.empty() ? nullptr : laneTrace[lane];
    std::chrono::steady_clock::time_point started;
    if (lane_trace)
        started = std::chrono::steady_clock::now();
    // Static schedule: shard i always ticks on lane i % lanes, so the
    // partition — and with it every observable byte — is a pure
    // function of (shard count, lane count).
    for (std::size_t i = static_cast<std::size_t>(lane); i < group.size();
         i += static_cast<std::size_t>(laneCount))
        group[i]->tick();
    if (lane_trace) {
        obs::TraceEvent event;
        event.ts = clock.now;
        event.dur = 1;
        event.name = "tick";
        event.value = elapsedUs(started,
                                std::chrono::steady_clock::now());
        event.value_name = "wall_us";
        event.phase = 'X';
        event.track = obs::kTrackKernel;
        event.tid = lane;
        lane_trace->push(event);
    }
}

void
Kernel::awaitArrivals()
{
    // Barrier: wait for every worker lane's arrival; the acquire
    // loads pair with the workers' release decrements so all shard
    // writes are visible to the next serial phase.  Spin first, then
    // park (see kBarrierSpin).
    if (spinUntil([this] {
            return arrivalsPending.load(std::memory_order_acquire) == 0;
        }))
        return;
    for (int left = arrivalsPending.load(std::memory_order_acquire);
         left != 0;
         left = arrivalsPending.load(std::memory_order_acquire)) {
        arrivalsPending.wait(left, std::memory_order_acquire);
    }
}

void
Kernel::tickShardsParallel()
{
    arrivalsPending.store(laneCount - 1, std::memory_order_relaxed);
    // The release publish of the new epoch orders the arrival reset
    // and this cycle's serial-phase writes before any worker starts
    // ticking.
    epoch.fetch_add(1, std::memory_order_release);
    epoch.notify_all();
    if (profile || !laneTrace.empty()) {
        auto start = std::chrono::steady_clock::now();
        runLane(0);
        auto ticked = std::chrono::steady_clock::now();
        awaitArrivals();
        auto arrived = std::chrono::steady_clock::now();
        if (profile) {
            profile->kernel_tick_ms += elapsedMs(start, ticked);
            profile->kernel_barrier_ms += elapsedMs(ticked, arrived);
        }
        if (!laneTrace.empty()) {
            obs::TraceEvent event;
            event.ts = clock.now;
            event.dur = 1;
            event.name = "wait";
            event.value = elapsedUs(ticked, arrived);
            event.value_name = "wall_us";
            event.phase = 'X';
            event.track = obs::kTrackKernel;
            event.tid = 0;
            laneTrace[0]->push(event);
        }
    } else {
        runLane(0);
        awaitArrivals();
    }
}

void
Kernel::workerMain(int lane, std::uint64_t seen)
{
    for (;;) {
        // Spin for the next epoch's release before parking on it; the
        // acquire loads pair with the coordinator's release bump.
        spinUntil([this, seen] {
            return epoch.load(std::memory_order_acquire) != seen;
        });
        epoch.wait(seen, std::memory_order_acquire);
        seen = epoch.load(std::memory_order_acquire);
        if (quitting.load(std::memory_order_acquire))
            return;
        runLane(lane);
        if (arrivalsPending.fetch_sub(1, std::memory_order_acq_rel) == 1)
            arrivalsPending.notify_all();
    }
}

void
Kernel::startWorkers(int lanes)
{
    if (laneCount == lanes)
        return;
    stopWorkers();
    laneCount = lanes;
    // Cut each lane a private kernel-trace buffer (serial phase; the
    // pool is not running yet).  Buffers persist across pool
    // restarts, so a lane always reuses its earlier stream.
    if (kernelSink) {
        while (laneTrace.size() < static_cast<std::size_t>(lanes))
            laneTrace.push_back(kernelSink->newBuffer());
    }
    workers.reserve(static_cast<std::size_t>(lanes - 1));
    // Capture the epoch on this thread: a worker that read it itself
    // could miss a bump published between spawn and its first load and
    // deadlock the first barrier.
    std::uint64_t seen = epoch.load(std::memory_order_relaxed);
    for (int lane = 1; lane < lanes; lane++)
        workers.emplace_back([this, lane, seen] { workerMain(lane, seen); });
}

void
Kernel::stopWorkers()
{
    if (workers.empty()) {
        laneCount = 0;
        return;
    }
    quitting.store(true, std::memory_order_release);
    epoch.fetch_add(1, std::memory_order_release);
    epoch.notify_all();
    for (auto &worker : workers)
        worker.join();
    workers.clear();
    quitting.store(false, std::memory_order_relaxed);
    laneCount = 0;
}

} // namespace ddc
