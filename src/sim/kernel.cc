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

// Atomic so parallel sweeps (exp runner worker threads) may read them
// while the main thread parses flags; flipped only before any machine
// runs in practice.
std::atomic<bool> quiescentSkip{true};
std::atomic<bool> lookaheadSwitch{true};
std::atomic<int> defaultShardLanes{1};

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

void
setQuiescentSkipEnabled(bool enabled)
{
    quiescentSkip.store(enabled, std::memory_order_relaxed);
}

bool
quiescentSkipEnabled()
{
    return quiescentSkip.load(std::memory_order_relaxed);
}

void
setLookaheadEnabled(bool enabled)
{
    lookaheadSwitch.store(enabled, std::memory_order_relaxed);
}

bool
lookaheadEnabled()
{
    return lookaheadSwitch.load(std::memory_order_relaxed);
}

void
setDefaultShards(int shards)
{
    ddc_assert(shards >= 1, "shard count must be positive");
    defaultShardLanes.store(shards, std::memory_order_relaxed);
}

int
defaultShards()
{
    return defaultShardLanes.load(std::memory_order_relaxed);
}

Kernel::Kernel(Clock &clock, const KernelConfig &config)
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
    // Every shard is synced before the serial phase, not just before
    // its own tick: a serial-phase commit (a global bus grant, a home
    // node completion) delivers synchronously into cluster-resident
    // caches, and those must stamp the commit cycle.
    if (serial)
        serial->syncLocalTime(clock.now);
    for (auto &shard : group)
        shard->syncLocalTime(clock.now);
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
    if (serial) {
        serial->syncLocalTime(clock.now);
        serial->skipCycles(count);
    }
    for (auto &shard : group) {
        shard->syncLocalTime(clock.now);
        shard->skipCycles(count);
    }
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

Cycle
Kernel::lookaheadWindow(Cycle end) const
{
    const Cycle now = clock.now;
    // The serial shard is bulk-skipped, not ticked, across a window:
    // the window may not cross its next event (a pending arm or the
    // end of a global transfer both pull this to now / now + left).
    Cycle bound = end;
    // Sampling clamp: rows must land exactly on the sampling grid so
    // the recorded series is identical at every lane count; the
    // window may not jump past the next sample point.
    if (sampler)
        bound = std::min(bound, sampler->nextAt());
    if (serial)
        bound = std::min(bound, serial->nextEventCycle(now));
    if (bound <= now + 1)
        return 1;
    // Cross-shard edge: shard traffic first lands on the global
    // interconnect at the shard's earliestGlobalEmission, and the
    // serial phase first observes it one cycle after that.
    for (const auto &shard : group) {
        Cycle emission = shard->earliestGlobalEmission(now);
        if (emission == kNever)
            continue;
        bound = std::min(bound, emission + 1);
        if (bound <= now + 1)
            return 1;
    }
    // Completion clamp: allDone() is only re-checked at the barrier,
    // so the window may not run past the cycle after the one whose
    // tick could first finish the machine.
    Cycle done_by = now;
    if (serial && !serial->done())
        done_by = std::max(done_by, serial->earliestDoneCycle(now));
    for (const auto &shard : group) {
        if (!shard->done())
            done_by = std::max(done_by, shard->earliestDoneCycle(now));
    }
    if (done_by != kNever)
        bound = std::min(bound, done_by + 1);
    return bound > now ? bound - now : 1;
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
    bool skipping = config.skip_quiescent && quiescentSkipEnabled();
    bool lookahead = config.lookahead && lookaheadEnabled();
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
            Cycle window = lookahead ? lookaheadWindow(end) : 1;
            windowLen = window;
            windowSkipping = skipping && window > 1;
            if (serial) {
                serial->syncLocalTime(clock.now);
                // The serial phase delivers synchronously into the
                // parallel shards' caches (see tickOnce); sync them
                // to the commit cycle before it runs.
                for (auto &shard : group)
                    shard->syncLocalTime(clock.now);
                if (window > 1) {
                    // No serial event strictly inside the window (the
                    // lookahead bound): the serial phases it replaces
                    // are pure idle/stream accounting, and any arms
                    // the lanes post land too late to be observable
                    // before the barrier.
                    serial->skipCycles(window);
                } else {
                    serial->tick();
                }
            }
            tickShardsParallel();
            if (windowSkipping)
                skipped += windowQuiescentOverlap(clock.now, window);
            epochs++;
            windowSum += window;
            clock.now += window;
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
Kernel::tickShardWindow(Shard &shard, std::size_t index)
{
    const Cycle base = clock.now;
    const Cycle limit = base + windowLen;
    if (windowSkipping)
        windowQuiescent[index].clear();
    for (Cycle at = base; at < limit;) {
        // The shared clock is frozen at the window base until the
        // barrier; the shard-local clock carries the cycle actually
        // being ticked so observability stamps stay lane-invariant.
        shard.syncLocalTime(at);
        if (windowSkipping) {
            // The quiescent-skip engine composed inside the window:
            // shard-local next-event time advance, with the skipped
            // stretch recorded so the coordinator can re-derive which
            // cycles the whole machine sat quiescent.
            Cycle next = shard.nextEventCycle(at);
            if (next > at) {
                Cycle to = std::min(next, limit);
                shard.skipCycles(to - at);
                windowQuiescent[index].emplace_back(at, to);
                at = to;
                continue;
            }
        }
        shard.tick();
        at++;
    }
}

void
Kernel::runLane(int lane)
{
    obs::TraceBuffer *lane_trace =
        laneTrace.empty() ? nullptr : laneTrace[lane];
    std::chrono::steady_clock::time_point started;
    if (lane_trace)
        started = std::chrono::steady_clock::now();
    if (config.deterministic) {
        // Static schedule: shard i always ticks on lane i % lanes, so
        // the partition — and with it every observable byte — is a
        // pure function of (shard count, lane count).
        for (std::size_t i = static_cast<std::size_t>(lane);
             i < group.size();
             i += static_cast<std::size_t>(laneCount)) {
            if (windowLen == 1) {
                group[i]->syncLocalTime(clock.now);
                group[i]->tick();
            } else {
                tickShardWindow(*group[i], i);
            }
        }
    } else {
        // Dynamic schedule: lanes claim the next unticked shard.
        // Every shard still ticks exactly once per window and shards
        // are independent within a window, so results do not change —
        // but the assignment is load-balanced, not reproducible.
        for (std::size_t i = claim.fetch_add(1, std::memory_order_relaxed);
             i < group.size();
             i = claim.fetch_add(1, std::memory_order_relaxed)) {
            if (windowLen == 1) {
                group[i]->syncLocalTime(clock.now);
                group[i]->tick();
            } else {
                tickShardWindow(*group[i], i);
            }
        }
    }
    if (lane_trace) {
        obs::TraceEvent event;
        event.ts = clock.now;
        event.dur = windowLen;
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
    if (!config.deterministic)
        claim.store(0, std::memory_order_relaxed);
    if (windowSkipping && windowQuiescent.size() != group.size())
        windowQuiescent.resize(group.size());
    // Epoch bookkeeping for the kernel trace: the lookahead-window
    // counter track, pushed before the release so it precedes this
    // epoch's lane spans in buffer order.
    if (!laneTrace.empty()) {
        obs::TraceEvent event;
        event.ts = clock.now;
        event.name = "window";
        event.value = static_cast<std::int64_t>(windowLen);
        event.value_name = "cycles";
        event.phase = 'C';
        event.track = obs::kTrackKernel;
        event.tid = 0;
        laneTrace[0]->push(event);
    }
    arrivalsPending.store(laneCount - 1, std::memory_order_relaxed);
    // The release publish of the new epoch orders the claim/arrival
    // resets, the window parameters, and last cycle's serial-phase
    // writes before any worker starts ticking.
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
            event.dur = windowLen;
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

Cycle
Kernel::windowQuiescentOverlap(Cycle base, Cycle window)
{
    // Intersect the per-shard quiescent stretches: a cycle every
    // parallel shard skipped (the serial shard is quiescent across
    // the whole window by the lookahead bound) is exactly a cycle the
    // sequential run's whole-machine skip would have covered.
    std::vector<std::pair<Cycle, Cycle>> overlap{{base, base + window}};
    std::vector<std::pair<Cycle, Cycle>> merged;
    for (const auto &segments : windowQuiescent) {
        if (segments.empty())
            return 0;
        merged.clear();
        for (const auto &have : overlap) {
            for (const auto &seg : segments) {
                Cycle lo = std::max(have.first, seg.first);
                Cycle hi = std::min(have.second, seg.second);
                if (lo < hi)
                    merged.emplace_back(lo, hi);
            }
        }
        if (merged.empty())
            return 0;
        overlap.swap(merged);
    }
    Cycle total = 0;
    for (const auto &have : overlap) {
        total += have.second - have.first;
        // Segments are ascending; the writer coalesces abutting
        // spans, so the trace shows the same maximal quiescent
        // intervals a sequential run's whole-machine skips produce.
        if (quiesce) {
            obs::TraceEvent event;
            event.ts = have.first;
            event.dur = have.second - have.first;
            event.name = "quiesce";
            event.phase = 'X';
            event.track = obs::kTrackSim;
            event.tid = 0;
            quiesce->push(event);
        }
    }
    return total;
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
