/**
 * @file
 * Layer probes: one public layer call timed in isolation, each fed
 * from a workload's own generated input.  Each probe reports the best
 * of kBatches batches, every batch at least kBatchSeconds long: the
 * batches repeat identical work, so the slower ones measure host
 * interference, and short batches fit between its bursts.
 */

#include <algorithm>
#include <chrono>
#include <memory>

#include "base/flat_map.hh"
#include "core/factory.hh"
#include "dir/directory.hh"
#include "machines.hh"
#include "sim/bus.hh"
#include "sim/cache.hh"
#include "sim/memory.hh"

namespace perfbench {

using namespace ddc;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kBatches = 20;
constexpr double kBatchSeconds = 0.05;

/** Keeps probe results observable so the timed work is not elided. */
volatile std::uint64_t sink;

/**
 * Best over kBatches of ns per operation; @p pass runs one pass and
 * returns the operations it did.
 */
template <typename Pass>
double
bestNsPerOp(Pass &&pass)
{
    std::vector<double> batches;
    for (int b = 0; b < kBatches; b++) {
        std::uint64_t ops = 0;
        auto start = Clock::now();
        double elapsed = 0.0;
        do {
            ops += pass();
            elapsed = std::chrono::duration<double>(Clock::now() - start)
                          .count();
        } while (elapsed < kBatchSeconds);
        batches.push_back(elapsed * 1e9 / static_cast<double>(ops));
    }
    return *std::min_element(batches.begin(), batches.end());
}

/** One reference and the PE that issues it. */
struct IssuedRef
{
    PeId pe;
    MemRef ref;
};

/** References of every PE, interleaved one per PE in turn. */
std::vector<IssuedRef>
interleaved(const Trace &trace)
{
    std::vector<IssuedRef> refs;
    refs.reserve(trace.totalRefs());
    for (std::size_t i = 0;; i++) {
        bool any = false;
        for (PeId pe = 0; pe < trace.numPes(); pe++) {
            const auto &stream = trace.stream(pe);
            if (i < stream.size()) {
                refs.push_back({pe, stream[i]});
                any = true;
            }
        }
        if (!any)
            return refs;
    }
}

/** Home 0's block addresses in reference order, and its distinct set. */
struct HomeKeys
{
    std::vector<Addr> refs;
    std::vector<Addr> distinct;
};

HomeKeys
homeKeys(const Trace &trace, int homes)
{
    HomeKeys keys;
    FlatMap<Addr, char> seen;
    for (const auto &[pe, ref] : interleaved(trace)) {
        if (ref.addr % static_cast<Addr>(homes) != 0)
            continue;
        keys.refs.push_back(ref.addr);
        if (!seen.contains(ref.addr)) {
            seen[ref.addr] = 1;
            keys.distinct.push_back(ref.addr);
        }
    }
    return keys;
}

/** A directory-shaped map holding the first @p blocks distinct keys. */
FlatMap<Addr, dir::DirEntry>
fillDirectory(const HomeKeys &keys, std::size_t blocks)
{
    FlatMap<Addr, dir::DirEntry> map;
    for (std::size_t i = 0; i < blocks && i < keys.distinct.size(); i++)
        map.findOrInsert(keys.distinct[i]).owner = static_cast<int>(i % 32);
    return map;
}

/** Run @p cache's outstanding access to completion on @p bus. */
std::uint64_t
drain(Cache &cache, Bus &bus, std::int64_t &guard)
{
    std::uint64_t ticks = 0;
    while (!cache.hasCompletion() && guard-- > 0) {
        bus.tick();
        ticks++;
    }
    if (cache.hasCompletion())
        cache.takeCompletion();
    return ticks;
}

/** A bus, its memory and @p clients RWB caches (snoop filter on). */
struct BusRig
{
    explicit BusRig(int clients)
        : protocol(makeProtocol(ProtocolKind::Rwb)), memory(stats),
          bus(memory, ArbiterKind::RoundRobin, clock, stats)
    {
        for (int c = 0; c < clients; c++) {
            caches.push_back(std::make_unique<Cache>(
                c, 1024, *protocol, clock, stats));
            caches.back()->connectBus(bus);
        }
    }

    stats::CounterSet stats;
    ddc::Clock clock;
    std::unique_ptr<Protocol> protocol;
    Memory memory;
    Bus bus;
    std::vector<std::unique_ptr<Cache>> caches;
};

} // namespace

ProbeResult
probeFlatMapFind(const Trace &trace, int homes, std::size_t blocks_per_home)
{
    HomeKeys keys = homeKeys(trace, homes);
    auto map = fillDirectory(keys, blocks_per_home);
    if (keys.refs.empty() || map.empty())
        return {0.0, "flat_map probe: no keys"};
    ProbeResult result;
    result.value_ns = bestNsPerOp([&] {
        std::uint64_t found = 0;
        for (Addr key : keys.refs)
            found += map.lookup(key) != nullptr;
        sink = sink + found;
        return static_cast<std::uint64_t>(keys.refs.size());
    });
    return result;
}

ProbeResult
probeFlatMapInsertErase(const Trace &trace, int homes,
                        std::size_t blocks_per_home)
{
    HomeKeys keys = homeKeys(trace, homes);
    auto map = fillDirectory(keys, blocks_per_home);
    if (keys.refs.empty() || map.empty())
        return {0.0, "flat_map probe: no keys"};
    // The trace's own keys, moved clear of every stored block: each
    // pair inserts one absent block and erases it again, so the map
    // stays at the measured load.
    constexpr Addr kAbsent = Addr{1} << 40;
    std::size_t stored = map.size();
    ProbeResult result;
    result.value_ns = bestNsPerOp([&] {
        for (Addr key : keys.refs) {
            map.findOrInsert(key + kAbsent).owner = 1;
            map.erase(key + kAbsent);
        }
        sink = sink + map.size();
        return static_cast<std::uint64_t>(keys.refs.size());
    });
    if (map.size() != stored)
        result.error = "flat_map probe: insert/erase changed the size";
    return result;
}

ProbeResult
probeCacheHit(const Trace &trace)
{
    BusRig rig(1);
    Cache &cache = *rig.caches[0];
    std::int64_t guard = std::int64_t{1} << 30;
    const auto &stream = trace.stream(0);
    for (const MemRef &ref : stream) {
        if (!cache.cpuAccess(ref).complete)
            drain(cache, rig.bus, guard);
    }
    // Keep the stream's reads that hit, until a whole pass hits: read
    // hits change no line state, so every timed pass below stays on
    // the hit path.
    std::vector<MemRef> hits;
    for (const MemRef &ref : stream) {
        if (ref.op == CpuOp::Read)
            hits.push_back(ref);
    }
    for (std::size_t before = 0; before != hits.size() && guard > 0;) {
        before = hits.size();
        std::vector<MemRef> kept;
        for (const MemRef &ref : hits) {
            if (cache.cpuAccess(ref).complete)
                kept.push_back(ref);
            else
                drain(cache, rig.bus, guard);
        }
        hits = std::move(kept);
    }
    if (hits.empty() || guard <= 0)
        return {0.0, "cache probe: no resident reads"};
    ProbeResult result;
    std::uint64_t misses = 0;
    result.value_ns = bestNsPerOp([&] {
        Word sum = 0;
        for (const MemRef &ref : hits) {
            auto access = cache.cpuAccess(ref);
            misses += !access.complete;
            sum += access.value;
        }
        sink = sink + sum;
        return static_cast<std::uint64_t>(hits.size());
    });
    if (misses > 0)
        result.error = "cache probe: a timed access missed";
    return result;
}

ProbeResult
probeBusGrant(const Trace &trace, int clients)
{
    std::vector<MemRef> shared;
    std::vector<int> owner;
    for (const auto &[pe, ref] : interleaved(trace)) {
        if (ref.cls == DataClass::Shared) {
            shared.push_back(ref);
            owner.push_back(pe % clients);
        }
    }
    if (shared.empty())
        return {0.0, "bus probe: no shared references"};
    BusRig rig(clients);
    std::int64_t guard = std::int64_t{1} << 40;
    ProbeResult result;
    result.value_ns = bestNsPerOp([&] {
        std::uint64_t ticks = 0;
        for (std::size_t i = 0; i < shared.size(); i++) {
            Cache &cache = *rig.caches[static_cast<std::size_t>(owner[i])];
            if (!cache.cpuAccess(shared[i]).complete)
                ticks += drain(cache, rig.bus, guard);
        }
        return std::max<std::uint64_t>(ticks, 1);
    });
    if (guard <= 0)
        result.error = "bus probe: an access never completed";
    return result;
}

} // namespace perfbench
