#include "machines.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "hier/hier_system.hh"
#include "sim/system.hh"
#include "sync/programs.hh"
#include "sync/workload.hh"
#include "trace/rng.hh"
#include "trace/synthetic.hh"

namespace perfbench {

using namespace ddc;

namespace {

// flat_cmstar64: the single snooping bus saturated by the Cm* mix.
constexpr int kFlatPes = 64;
constexpr std::size_t kFlatLines = 1024;
constexpr std::size_t kFlatRefsPerPe = 20000;

// dir1024_clustered: 32 x 32 PEs on an 8-home directory.
constexpr int kDirClusters = 32;
constexpr int kDirPesPerCluster = 32;
constexpr std::size_t kDirLines = 256;
constexpr std::size_t kDirRefsPerPe = 800;
constexpr double kDirClusterLocal = 0.8;
constexpr double kDirWrites = 0.3;

// locks_ts_tts: TS then TTS on one RB bus with slow memory.
constexpr int kLockPes = 16;
constexpr int kLockAcquisitions = 1024;
constexpr int kLockCsIncrements = 8;
constexpr std::size_t kLockMemoryLatency = 16;
constexpr std::size_t kLockLines = 256;
/**
 * The seed picks which half of the PEs do one private store between
 * acquisitions; the total work is the same for every seed.
 */
constexpr int kLockWorkingPes = kLockPes / 2;

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

std::uint64_t
fnv1a(std::string_view text, std::uint64_t hash = 0xcbf29ce484222325ULL)
{
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** The cache.* classes that needed the bus at issue time. */
std::uint64_t
missRefs(const stats::CounterSet &counters)
{
    return counters.sumPrefix("cache.read_miss.") +
           counters.sumPrefix("cache.write_miss.") +
           counters.sumPrefix("cache.ts.") +
           counters.sumPrefix("cache.readlock.") +
           counters.sumPrefix("cache.writeunlock.");
}

/**
 * Transactions granted on the buses or homes behind @p counters: busy
 * cycles less the extra cycles of multi-cycle transfers.
 */
std::uint64_t
grants(const stats::CounterSet &counters)
{
    return counters.get("bus.busy_cycles") -
           counters.get("bus.transfer_cycles");
}

/** Counter-set facts shared by every machine kind. */
void
readCounters(const stats::CounterSet &counters, RunReport &report)
{
    report.digest.refs += counters.get("cache.refs");
    report.digest.counters_hash =
        fnv1a(counters.report(), report.digest.counters_hash);
    report.nacks += counters.get("bus.nack");
    report.kills += counters.get("bus.kill");
    report.rmw_fail += counters.get("bus.rmw_fail");
    report.rmw_success += counters.get("bus.rmw_success");
    report.miss_refs += missRefs(counters);
    report.snarfs += counters.get("cache.snarf");
    report.stall_cycles += counters.get("pe.stall_cycles");
}

/**
 * Times layer calls and, in traced runs, records a span around each
 * one, nested under the innermost span still open.
 */
struct Stopwatch
{
    template <typename Fn>
    double
    time(const char *name, Fn &&fn)
    {
        int outer = current;
        if (spans)
            current = spans->open(name, outer);
        auto start = Clock::now();
        fn();
        auto end = Clock::now();
        if (spans) {
            spans->close(current);
            current = outer;
        }
        return seconds(start, end);
    }

    /** Null in untraced runs. */
    SpanLog *spans;
    /** The innermost open span (-1 when none). */
    int current;
};

/**
 * The setup of a trace-driven machine: Trace::load of the input file,
 * then construction and loadTrace inside @p build.  The parsed trace
 * is freed after the setup span and before run(): the machine holds
 * its own copy, and peak_rss_mb should not count both.  Returns false
 * when the file does not load.
 */
template <typename Build>
bool
setUpFromTrace(const Input &input, RunReport &report, Stopwatch &watch,
               Build &&build)
{
    Trace trace;
    bool loaded = false;
    report.setup_s += watch.time("setup", [&] {
        report.load_s += watch.time("trace.load", [&] {
            std::ifstream file(input.trace_path);
            loaded = file && trace.load(file);
        });
        report.refs_in = trace.totalRefs();
        if (loaded) {
            report.build_s +=
                watch.time("sim.build", [&] { build(trace); });
        }
    });
    if (!loaded)
        report.error = "cannot load trace " + input.trace_path;
    return loaded;
}

void
runFlat(const Input &input, bool traced, RunReport &report,
        Stopwatch &watch)
{
    std::unique_ptr<System> system;
    bool ready = setUpFromTrace(input, report, watch, [&](const Trace &trace) {
        SystemConfig config;
        config.num_pes = kFlatPes;
        config.cache_lines = kFlatLines;
        config.protocol = ProtocolKind::Rwb;
        config.histograms = traced;
        system = std::make_unique<System>(config);
        system->loadTrace(trace);
    });
    if (!ready)
        return;

    Cycle cycles = 0;
    report.run_s += watch.time("kernel.run",
                               [&] { cycles = system->run(); });
    report.finished = !system->timedOut();
    report.digest.cycles += cycles;
    report.skipped_cycles += system->skippedCycles();
    stats::CounterSet counters = system->counters();
    report.bus_txns += grants(counters);
    report.digest.global_txns += grants(counters);
    report.snoop_visits += system->snoopVisits();
    report.snoop_filter_fallbacks += system->snoopFilterFallbacks();
    readCounters(counters, report);
    if (auto *observability = system->observability()) {
        if (const auto *profile = observability->profile())
            report.profile = *profile;
    }
}

void
runDirectory(const Input &input, int lanes, bool traced,
             RunReport &report, Stopwatch &watch)
{
    std::unique_ptr<hier::HierSystem> system;
    bool ready = setUpFromTrace(input, report, watch, [&](const Trace &trace) {
        hier::HierConfig config;
        config.num_clusters = kDirClusters;
        config.pes_per_cluster = kDirPesPerCluster;
        config.cache_lines = kDirLines;
        config.protocol = ProtocolKind::Rb;
        config.global = hier::GlobalKind::Directory;
        config.home_nodes = kDirHomes;
        config.shards = lanes;
        config.histograms = traced;
        system = std::make_unique<hier::HierSystem>(config);
        system->loadTrace(trace);
    });
    if (!ready)
        return;

    Cycle cycles = 0;
    report.run_s += watch.time("kernel.run",
                               [&] { cycles = system->run(); });
    report.finished = !system->timedOut();
    report.digest.cycles += cycles;
    report.digest.global_txns += grants(system->globalCounters());
    for (int c = 0; c < kDirClusters; c++)
        report.digest.cluster_txns += grants(system->clusterCounters(c));
    report.skipped_cycles += system->skippedCycles();
    report.barrier_epochs += system->barrierEpochs();
    report.mean_window = system->meanLookaheadWindow();
    report.bus_txns += report.digest.cluster_txns;
    report.snoop_visits += system->snoopVisits() - system->globalVisits();
    report.snoop_filter_fallbacks += system->snoopFilterFallbacks();
    readCounters(system->counters(), report);

    const dir::DirectoryFabric *fabric = system->directoryFabric();
    report.dir_msgs = fabric->messageVisits();
    report.dir_blocks = fabric->directoryBlocks();
    report.dir_max_load_factor = fabric->maxLoadFactor();
    double mean = fabric->meanHomeMessages();
    report.hot_home_skew =
        mean > 0.0 ? static_cast<double>(fabric->maxHomeMessages()) / mean
                   : 0.0;
    if (auto *observability = system->observability()) {
        if (const auto *profile = observability->profile())
            report.profile = *profile;
        if (const auto *metrics = observability->metrics()) {
            report.home_service_p50 =
                metrics->home_service.percentile(0.50);
            report.home_service_p99 =
                metrics->home_service.percentile(0.99);
        }
    }
}

void
runLocks(const Input &input, bool traced, RunReport &report,
         Stopwatch &watch)
{
    report.finished = true;
    const sync::LockKind kinds[] = {sync::LockKind::TestAndSet,
                                    sync::LockKind::TestAndTestAndSet};
    for (sync::LockKind kind : kinds) {
        std::unique_ptr<System> system;
        double build_s = watch.time("sim.build", [&] {
            SystemConfig config;
            config.num_pes = kLockPes;
            config.cache_lines = kLockLines;
            config.protocol = ProtocolKind::Rb;
            config.memory_latency = kLockMemoryLatency;
            config.histograms = traced;
            system = std::make_unique<System>(config);
            for (PeId pe = 0; pe < kLockPes; pe++) {
                sync::LockProgramParams params;
                params.kind = kind;
                params.lock_addr = sync::lockAddr();
                params.counter_addr = sync::counterAddr();
                params.acquisitions = kLockAcquisitions;
                params.cs_increments = kLockCsIncrements;
                params.local_work =
                    input.local_work[static_cast<std::size_t>(pe)];
                params.local_base = localBase(pe);
                system->setProgram(pe, sync::makeLockProgram(params));
            }
        });
        // No input file: set-up is construction plus setProgram.
        report.build_s += build_s;
        report.setup_s += build_s;

        Cycle cycles = 0;
        report.run_s += watch.time("kernel.run",
                                   [&] { cycles = system->run(); });
        report.finished = report.finished && !system->timedOut();
        report.digest.cycles += cycles;
        report.skipped_cycles += system->skippedCycles();
        stats::CounterSet counters = system->counters();
        report.bus_txns += grants(counters);
        report.digest.global_txns += grants(counters);
        report.snoop_visits += system->snoopVisits();
        report.snoop_filter_fallbacks += system->snoopFilterFallbacks();
        readCounters(counters, report);
        if (auto *observability = system->observability()) {
            if (const auto *profile = observability->profile()) {
                report.profile.kernel_tick_ms += profile->kernel_tick_ms;
                report.profile.kernel_barrier_ms +=
                    profile->kernel_barrier_ms;
            }
        }

        Word expected = static_cast<Word>(kLockPes) * kLockAcquisitions *
                        kLockCsIncrements;
        Word counter = system->coherentValue(sync::counterAddr());
        if (counter != expected && report.error.empty()) {
            report.error = std::string(sync::toString(kind)) +
                           " lock counter " + std::to_string(counter) +
                           ", expected " + std::to_string(expected);
        }
    }
}

} // namespace

std::optional<WorkloadKind>
parseWorkload(std::string_view name)
{
    for (WorkloadKind kind :
         {WorkloadKind::FlatCmStar64, WorkloadKind::Dir1024Clustered,
          WorkloadKind::LocksTsTts}) {
        if (name == toString(kind))
            return kind;
    }
    return std::nullopt;
}

std::string_view
toString(WorkloadKind kind)
{
    switch (kind) {
    case WorkloadKind::FlatCmStar64:
        return "flat_cmstar64";
    case WorkloadKind::Dir1024Clustered:
        return "dir1024_clustered";
    case WorkloadKind::LocksTsTts:
        return "locks_ts_tts";
    }
    return "?";
}

Input
makeInput(WorkloadKind kind, std::uint64_t seed,
          const std::string &work_dir)
{
    Input input;
    input.kind = kind;
    if (kind == WorkloadKind::LocksTsTts) {
        input.local_work.assign(kLockPes, 0);
        std::fill_n(input.local_work.begin(), kLockWorkingPes, 1);
        Rng rng(seed);
        for (std::size_t i = input.local_work.size() - 1; i > 0; i--)
            std::swap(input.local_work[i],
                      input.local_work[rng.nextBelow(i + 1)]);
        return input;
    }

    Trace trace = kind == WorkloadKind::FlatCmStar64
                      ? makeCmStarTrace(cmStarApplicationA(), kFlatPes,
                                        kFlatRefsPerPe, seed)
                      : makeClusteredTrace(kDirClusters, kDirPesPerCluster,
                                           kDirRefsPerPe, kDirClusterLocal,
                                           kDirWrites, seed);
    input.trace_path = work_dir + "/" + std::string(toString(kind)) + "-" +
                       std::to_string(seed) + ".ddctrace";
    std::ofstream file(input.trace_path);
    trace.save(file);
    file.flush();
    if (file)
        input.trace_bytes = static_cast<std::uint64_t>(file.tellp());
    else
        input.trace_path.clear();
    return input;
}

std::string
toString(const Digest &digest)
{
    std::ostringstream os;
    os << "cycles=" << digest.cycles << " global_txns=" << digest.global_txns
       << " cluster_txns=" << digest.cluster_txns
       << " refs=" << digest.refs << " counters=0x" << std::hex
       << digest.counters_hash;
    return os.str();
}

std::optional<Digest>
pinnedDigest(WorkloadKind kind, std::uint64_t seed)
{
    struct Pin
    {
        WorkloadKind kind;
        std::uint64_t seed;
        Digest digest;
    };
    // Pinned on the parent commit of the benchmark; any change to the
    // simulated behaviour of these machines shows up here.
    static const Pin kPins[] = {
        {WorkloadKind::FlatCmStar64, kDefaultSeed,
         {312241, 311861, 0, 1280000, 0x40774f4347ef5310ULL}},
        {WorkloadKind::FlatCmStar64, kHeldOutSeed,
         {292417, 289512, 0, 1280000, 0x4da7248aaf0c15f8ULL}},
        {WorkloadKind::Dir1024Clustered, kDefaultSeed,
         {23213, 159626, 727042, 819200, 0xad1f29f3e30162e3ULL}},
        {WorkloadKind::Dir1024Clustered, kHeldOutSeed,
         {22989, 159233, 724414, 819200, 0xcafacebc07e0ce84ULL}},
        {WorkloadKind::LocksTsTts, kDefaultSeed,
         {17307682, 1007486, 0, 10049034, 0x2b1e4c689e04b558ULL}},
        {WorkloadKind::LocksTsTts, kHeldOutSeed,
         {17043041, 990113, 0, 10042661, 0xc6e2c59821848b06ULL}},
    };
    for (const Pin &pin : kPins) {
        if (pin.kind == kind && pin.seed == seed)
            return pin.digest;
    }
    return std::nullopt;
}

int
SpanLog::open(std::string name, int parent)
{
    log.push_back({std::move(name), now(), 0.0, parent});
    return static_cast<int>(log.size()) - 1;
}

void
SpanLog::close(int span)
{
    log[static_cast<std::size_t>(span)].end_s = now();
}

double
SpanLog::now() const
{
    return seconds(origin, Clock::now());
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream file(path);
    file << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < log.size(); i++) {
        const Span &span = log[i];
        file << "  {\"name\": \"" << span.name
             << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
             << span.start_s * 1e6
             << ", \"dur\": " << (span.end_s - span.start_s) * 1e6
             << ", \"args\": {\"id\": " << i
             << ", \"parent\": " << span.parent << "}}"
             << (i + 1 < log.size() ? ",\n" : "\n");
    }
    file << "]}\n";
    return static_cast<bool>(file);
}

RunReport
runMachine(const Input &input, int lanes, bool traced, SpanLog *spans)
{
    obs::setPhaseProfilingEnabled(traced);
    RunReport report;
    auto start = Clock::now();
    Stopwatch watch{spans, spans ? spans->open("machine", -1) : -1};
    switch (input.kind) {
    case WorkloadKind::FlatCmStar64:
        runFlat(input, traced, report, watch);
        break;
    case WorkloadKind::Dir1024Clustered:
        runDirectory(input, lanes, traced, report, watch);
        break;
    case WorkloadKind::LocksTsTts:
        runLocks(input, traced, report, watch);
        break;
    }
    obs::setPhaseProfilingEnabled(false);

    if (report.error.empty() && !report.finished)
        report.error = "run timed out";
    if (report.error.empty() && input.kind != WorkloadKind::LocksTsTts &&
        report.digest.refs != report.refs_in) {
        report.error = "retired " + std::to_string(report.digest.refs) +
                       " of " + std::to_string(report.refs_in) + " refs";
    }
    report.wall_s = seconds(start, Clock::now());
    if (spans)
        spans->close(watch.current);
    return report;
}

} // namespace perfbench
