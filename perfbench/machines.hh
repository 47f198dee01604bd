/**
 * @file
 * The benchmark's three workloads: how each one's input is made from
 * a seed, how one machine run is driven through the library's public
 * layer calls, and what a run reports.  Every host time here is taken
 * from outside the library, around one layer call; the only host
 * splits from inside run() come from obs::PhaseProfile, which is on
 * only in traced runs.
 */

#ifndef PERFBENCH_MACHINES_HH
#define PERFBENCH_MACHINES_HH

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/recorder.hh"
#include "trace/trace.hh"

namespace perfbench {

enum class WorkloadKind
{
    FlatCmStar64,
    Dir1024Clustered,
    LocksTsTts,
};

std::optional<WorkloadKind> parseWorkload(std::string_view name);
std::string_view toString(WorkloadKind kind);

/** Kernel lanes the directory workload asks for (capped at the host). */
constexpr int kDirLanes = 4;

/** Home nodes of the directory workload's fabric. */
constexpr int kDirHomes = 8;

/**
 * A workload's generated input.  Trace-driven workloads replay a
 * ddctrace text file written from the seed; the lock workload's input
 * is its per-PE local-work lengths, drawn from the seed.
 */
struct Input
{
    WorkloadKind kind{};
    /** ddctrace file (empty for the lock workload). */
    std::string trace_path;
    std::uint64_t trace_bytes = 0;
    /** Private-region stores between acquisitions, per PE. */
    std::vector<int> local_work;
};

/** Write @p kind's input for @p seed under @p work_dir. */
Input makeInput(WorkloadKind kind, std::uint64_t seed,
                const std::string &work_dir);

/**
 * What a run must reproduce exactly: simulated cycles, the global
 * interconnect's and the cluster buses' transaction counts, retired
 * references, and an FNV-1a hash of the full counters() report.
 */
struct Digest
{
    std::uint64_t cycles = 0;
    std::uint64_t global_txns = 0;
    std::uint64_t cluster_txns = 0;
    std::uint64_t refs = 0;
    std::uint64_t counters_hash = 0;

    bool operator==(const Digest &) const = default;
};

std::string toString(const Digest &digest);

/** The pinned digest of @p kind at @p seed, when one is pinned. */
std::optional<Digest> pinnedDigest(WorkloadKind kind, std::uint64_t seed);

/** Seeds whose digests are pinned: the default and a held-out one. */
inline constexpr std::uint64_t kDefaultSeed = 1;
inline constexpr std::uint64_t kHeldOutSeed = 1009;

/** One span recorded around a layer call (host seconds). */
struct Span
{
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    /** Index of the enclosing span in the same log, or -1. */
    int parent = -1;
};

/** In-memory span log, written out once when the benchmark ends. */
class SpanLog
{
  public:
    using Clock = std::chrono::steady_clock;

    SpanLog() : origin(Clock::now()) {}

    /** Open a span; returns its index. */
    int open(std::string name, int parent);
    void close(int span);

    /** Write the log as Chrome trace-event JSON. */
    bool write(const std::string &path) const;

  private:
    double now() const;

    Clock::time_point origin;
    std::vector<Span> log;
};

/** Everything one machine run reports. */
struct RunReport
{
    bool finished = false;
    /** Empty when every output check passed. */
    std::string error;
    Digest digest;

    // Host seconds, each around one layer call.
    /** Trace::load plus construction and loadTrace/setProgram. */
    double setup_s = 0.0;
    double load_s = 0.0;
    double build_s = 0.0;
    double run_s = 0.0;
    double wall_s = 0.0;

    // Counts read after run() through public accessors.
    std::uint64_t refs_in = 0;
    std::uint64_t skipped_cycles = 0;
    std::uint64_t barrier_epochs = 0;
    double mean_window = 0.0;
    std::uint64_t bus_txns = 0;
    std::uint64_t snoop_visits = 0;
    std::uint64_t snoop_filter_fallbacks = 0;
    std::uint64_t nacks = 0;
    std::uint64_t kills = 0;
    std::uint64_t rmw_fail = 0;
    std::uint64_t rmw_success = 0;
    std::uint64_t miss_refs = 0;
    std::uint64_t snarfs = 0;
    std::uint64_t stall_cycles = 0;
    std::uint64_t dir_msgs = 0;
    std::uint64_t dir_blocks = 0;
    double dir_max_load_factor = 0.0;
    double hot_home_skew = 0.0;
    std::uint64_t home_service_p50 = 0;
    std::uint64_t home_service_p99 = 0;
    /** Host splits inside run() (traced runs only). */
    ddc::obs::PhaseProfile profile;
};

/**
 * Replay @p input on a fresh machine with cold caches: Trace::load
 * of the file, machine construction, loadTrace/setProgram, run(),
 * then the output checks.  @p traced switches on PhaseProfile and
 * histograms for this run and records spans into @p spans.
 */
RunReport runMachine(const Input &input, int lanes, bool traced,
                     SpanLog *spans);

// ---- Layer probes (probes.cc) -------------------------------------

struct ProbeResult
{
    double value_ns = 0.0;
    std::string error;
};

/**
 * FlatMap lookups and insert+erase pairs on the directory's entry
 * type, keyed by the trace's block addresses of one home and filled
 * to @p blocks_per_home entries (the measured per-home peak).
 */
ProbeResult probeFlatMapFind(const ddc::Trace &trace, int homes,
                             std::size_t blocks_per_home);
ProbeResult probeFlatMapInsertErase(const ddc::Trace &trace, int homes,
                                    std::size_t blocks_per_home);

/** Cache::cpuAccess on resident lines of PE 0's stream. */
ProbeResult probeCacheHit(const ddc::Trace &trace);

/**
 * One bus grant with its broadcast: the trace's shared references
 * replayed round-robin on @p clients RWB caches (snoop filter on);
 * host ns per bus transaction.
 */
ProbeResult probeBusGrant(const ddc::Trace &trace, int clients);

} // namespace perfbench

#endif // PERFBENCH_MACHINES_HH
