/**
 * @file
 * perfbench: the repository benchmark program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --work-dir DIR [--commit SHA]
 *
 * Load is a closed loop: one process runs one machine at a time, each
 * from cold caches, repeating until S seconds have passed.  Every run
 * is checked (status, retired references, lock counters, a digest
 * identical across repeats), and gate runs compare the digest against
 * the pinned one at the default and held-out seeds and, for the
 * directory workload, against a one-lane run.
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 prints the
 * per-layer metrics of a separate traced run (PhaseProfile and
 * histograms on, spans around every layer call) plus the layer
 * probes.  The last stdout line is one JSON object:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 */

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "machines.hh"

namespace {

using namespace perfbench;

/** Repeats per run even when --seconds has already passed. */
constexpr int kMinRepeats = 3;

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir;
    std::string commit = "unknown";
};

/** Parse all of @p text as a number; false on anything else. */
template <typename T>
bool
parseNumber(const std::string &text, T &out)
{
    const char *last = text.data() + text.size();
    auto [end, error] = std::from_chars(text.data(), last, out);
    return error == std::errc() && end == last && !text.empty();
}

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        if (i + 1 >= argc) {
            std::cerr << "perfbench: " << arg << " needs a value\n";
            return false;
        }
        std::string value = argv[++i];
        int trace = 0;
        bool ok = true;
        if (arg == "--workload") {
            args.workload = value;
        } else if (arg == "--seed") {
            ok = parseNumber(value, args.seed);
        } else if (arg == "--seconds") {
            ok = parseNumber(value, args.seconds) && args.seconds > 0.0;
        } else if (arg == "--trace") {
            ok = parseNumber(value, trace) && (trace == 0 || trace == 1);
            args.trace = trace == 1;
        } else if (arg == "--work-dir") {
            args.work_dir = value;
        } else if (arg == "--commit") {
            args.commit = value;
        } else {
            std::cerr << "perfbench: unknown option " << arg << "\n";
            return false;
        }
        if (!ok) {
            std::cerr << "perfbench: bad value for " << arg << ": "
                      << value << "\n";
            return false;
        }
    }
    if (args.workload.empty() || args.work_dir.empty()) {
        std::cerr << "perfbench: need --workload and --work-dir\n";
        return false;
    }
    return true;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                   : (values[mid - 1] + values[mid]) / 2.0;
}

/**
 * Host times are the best of a run's repeats: every repeat does the
 * same deterministic work, so the spread between repeats is
 * interference from the host, which only ever adds time.
 */
double
best(const std::vector<double> &values)
{
    return *std::min_element(values.begin(), values.end());
}

double
ratio(double numerator, double denominator)
{
    return denominator > 0.0 ? numerator / denominator : 0.0;
}

double
peakRssMiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** One named metric with its unit, printed in insertion order. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
jsonNumber(double value)
{
    std::ostringstream os;
    os << std::setprecision(17) << value;
    return os.str();
}

/** Counts attempted and failed machine runs and their checks. */
struct Tally
{
    int attempted = 0;
    int failed = 0;
    std::vector<std::string> errors;

    void
    check(bool ok, const std::string &what)
    {
        attempted++;
        if (!ok) {
            failed++;
            errors.push_back(what);
        }
    }
};

struct Bench
{
    Args args;
    WorkloadKind kind{};
    int lanes = 1;
    Input input;
    Tally tally;
    /** Digest of the first repeat; every later run must match it. */
    std::optional<Digest> reference;

    /** One checked machine run on this seed's input. */
    RunReport
    repeat(bool traced, SpanLog *spans)
    {
        RunReport report = runMachine(input, lanes, traced, spans);
        if (!reference)
            reference = report.digest;
        bool ok = report.error.empty() && report.digest == *reference;
        tally.check(ok, report.error.empty()
                            ? "digest changed between repeats: " +
                                  toString(report.digest)
                            : report.error);
        return report;
    }

    /** Repeat until @p seconds pass (at least @p min_repeats). */
    std::vector<RunReport>
    repeatFor(double seconds, int min_repeats, bool traced,
              SpanLog *spans)
    {
        std::vector<RunReport> reports;
        auto start = std::chrono::steady_clock::now();
        for (;;) {
            reports.push_back(repeat(traced, spans));
            double elapsed = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
            if (elapsed >= seconds &&
                static_cast<int>(reports.size()) >= min_repeats)
                return reports;
        }
    }

    /**
     * Gate runs: the pinned digests at the default and held-out
     * seeds, and for the directory workload the one-lane digest of
     * this seed's input.
     */
    void
    gates()
    {
        if (kind == WorkloadKind::Dir1024Clustered && lanes > 1) {
            RunReport one = runMachine(input, 1, false, nullptr);
            tally.check(one.error.empty() && one.digest == *reference,
                        "1-lane digest " + toString(one.digest) +
                            " differs from the " + std::to_string(lanes) +
                            "-lane digest " + toString(*reference));
        }
        for (std::uint64_t seed : {kDefaultSeed, kHeldOutSeed}) {
            std::optional<Digest> pinned = pinnedDigest(kind, seed);
            Digest got;
            std::string error;
            if (seed == args.seed) {
                got = *reference;
            } else {
                Input gate = makeInput(kind, seed, args.work_dir);
                RunReport report = runMachine(gate, lanes, false, nullptr);
                got = report.digest;
                error = report.error;
                std::remove(gate.trace_path.c_str());
            }
            std::cout << "digest seed " << seed << ": " << toString(got)
                      << "\n";
            tally.check(error.empty() && pinned && got == *pinned,
                        "seed " + std::to_string(seed) + ": " +
                            (error.empty() ? "digest " + toString(got) +
                                                 " is not the pinned one"
                                           : error));
        }
    }
};

/** The host descriptor every result records. */
std::string
hostJson(const Args &args)
{
    std::ostringstream os;
    os << "{\"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ", \"build_type\": \""
       << PERFBENCH_BUILD_TYPE << "\", \"compiler\": \""
       << PERFBENCH_COMPILER << "\", \"commit\": \"" << args.commit
       << "\"}";
    return os.str();
}

std::vector<Metric>
endToEnd(Bench &bench)
{
    auto reports = bench.repeatFor(bench.args.seconds, kMinRepeats, false,
                                   nullptr);
    double rss = peakRssMiB();
    std::vector<double> wall, setup, run;
    for (const RunReport &report : reports) {
        wall.push_back(report.wall_s);
        setup.push_back(report.setup_s);
        run.push_back(report.run_s);
    }
    const Digest &digest = reports.front().digest;
    std::cout << "repeats: " << reports.size() << "; median wall_s "
              << median(wall) << ", setup_s " << median(setup)
              << ", run() " << median(run) << " s\n";
    return {
        {"wall_s", best(wall), "s"},
        {"setup_s", best(setup), "s"},
        {"refs_per_s",
         ratio(static_cast<double>(digest.refs), best(run)), "refs/s"},
        {"peak_rss_mb", rss, "MiB"},
        {"sim_cycles", static_cast<double>(digest.cycles), "cycles"},
        {"bus_txn_per_ref",
         ratio(static_cast<double>(digest.global_txns),
               static_cast<double>(digest.refs)),
         "txn/ref"},
    };
}

std::vector<Metric>
perLayer(Bench &bench, SpanLog &spans)
{
    // Untraced and traced repeats share the run time; the fastest
    // traced repeat supplies every host split, so its self-times add
    // up within one run.
    double share = bench.args.seconds / 3.0;
    auto untraced = bench.repeatFor(share, 2, false, nullptr);
    auto traced = bench.repeatFor(share, 2, true, &spans);
    std::vector<double> untraced_run;
    for (const RunReport &report : untraced)
        untraced_run.push_back(report.run_s);
    const RunReport &r = *std::min_element(
        traced.begin(), traced.end(),
        [](const RunReport &a, const RunReport &b) {
            return a.run_s < b.run_s;
        });
    const Digest &d = r.digest;
    const auto &profile = r.profile;
    double profiled_ms = profile.kernel_tick_ms + profile.kernel_barrier_ms +
                         profile.fabric_route_ms + profile.fabric_serve_ms;
    double other_ms = r.run_s * 1e3 - profiled_ms;
    double setup_residual = r.setup_s - (r.load_s + r.build_s);
    bench.tally.check(other_ms > -0.5 &&
                          std::abs(setup_residual) <=
                              std::max(2e-3, 0.05 * r.setup_s),
                      "traced self-times do not add up: setup residual " +
                          std::to_string(setup_residual) +
                          " s, run() unprofiled " +
                          std::to_string(other_ms) + " ms");
    std::cout << "traced repeats: " << traced.size()
              << ", untraced repeats: " << untraced.size() << "\n";

    double cycles = static_cast<double>(d.cycles);
    double refs = static_cast<double>(d.refs);
    double bus = static_cast<double>(r.bus_txns);
    double rmw = static_cast<double>(r.rmw_fail + r.rmw_success);
    std::vector<Metric> metrics = {
        {"trace.load_s", r.load_s, "s"},
        {"trace.parse_refs_per_s",
         ratio(static_cast<double>(r.refs_in), r.load_s), "refs/s"},
        {"trace.input_mb",
         static_cast<double>(bench.input.trace_bytes) / (1024.0 * 1024.0),
         "MiB"},
        {"sim.build_s", r.build_s, "s"},
        {"kernel.run_s", r.run_s, "s"},
        {"kernel.skip_fraction",
         ratio(static_cast<double>(r.skipped_cycles), cycles), "ratio"},
        {"kernel.barrier_epochs", static_cast<double>(r.barrier_epochs),
         "count"},
        {"kernel.mean_window", r.mean_window, "cycles"},
        {"kernel.tick_ms", profile.kernel_tick_ms, "ms"},
        {"kernel.barrier_wait_ms", profile.kernel_barrier_ms, "ms"},
        {"bus.txns", bus, "count"},
        {"bus.txn_per_cycle", ratio(bus, cycles), "txn/cycle"},
        {"bus.snoop_visits_per_txn",
         ratio(static_cast<double>(r.snoop_visits), bus), "visits/txn"},
        {"bus.snoop_filter_fallbacks",
         static_cast<double>(r.snoop_filter_fallbacks), "count"},
        {"bus.nacks", static_cast<double>(r.nacks), "count"},
        {"bus.kills", static_cast<double>(r.kills), "count"},
        {"bus.rmw_fail_ratio", ratio(static_cast<double>(r.rmw_fail), rmw),
         "ratio"},
        {"cache.refs", refs, "count"},
        {"cache.miss_ratio", ratio(static_cast<double>(r.miss_refs), refs),
         "ratio"},
        {"cache.snarf_per_ref", ratio(static_cast<double>(r.snarfs), refs),
         "snarfs/ref"},
        {"pe.stall_cycles", static_cast<double>(r.stall_cycles), "cycles"},
        {"dir.route_ms", profile.fabric_route_ms, "ms"},
        {"dir.serve_ms", profile.fabric_serve_ms, "ms"},
        {"dir.msgs_per_txn",
         ratio(static_cast<double>(r.dir_msgs),
               static_cast<double>(d.global_txns)),
         "msgs/txn"},
        {"dir.hot_home_skew", r.hot_home_skew, "ratio"},
        {"dir.blocks", static_cast<double>(r.dir_blocks), "count"},
        {"dir.max_load_factor", r.dir_max_load_factor, "ratio"},
        {"dir.home_service_p50", static_cast<double>(r.home_service_p50),
         "cycles"},
        {"dir.home_service_p99", static_cast<double>(r.home_service_p99),
         "cycles"},
        {"hier.cluster_bus_ops", static_cast<double>(d.cluster_txns),
         "count"},
        {"hier.global_ops",
         bench.kind == WorkloadKind::Dir1024Clustered
             ? static_cast<double>(d.global_txns)
             : 0.0,
         "count"},
        {"hier.other_ms", other_ms, "ms"},
        {"obs.traced_over_untraced", ratio(r.run_s, best(untraced_run)),
         "ratio"},
    };

    // Layer probes, each fed from the workload whose input it names;
    // the other workloads report 0.
    ProbeResult find, insert_erase, hit, grant16, grant64;
    auto probe = [&](ProbeResult &into, ProbeResult result) {
        bench.tally.check(result.error.empty(), result.error);
        into = result;
    };
    if (bench.kind != WorkloadKind::LocksTsTts) {
        ddc::Trace trace;
        std::ifstream file(bench.input.trace_path);
        bench.tally.check(file && trace.load(file),
                          "cannot reload the input for the probes");
        if (bench.kind == WorkloadKind::Dir1024Clustered) {
            std::size_t per_home = r.dir_blocks / kDirHomes;
            probe(find, probeFlatMapFind(trace, kDirHomes, per_home));
            probe(insert_erase,
                  probeFlatMapInsertErase(trace, kDirHomes, per_home));
        } else {
            probe(hit, probeCacheHit(trace));
            probe(grant16, probeBusGrant(trace, 16));
            probe(grant64, probeBusGrant(trace, 64));
        }
    }
    metrics.push_back({"flat_map.find_ns", find.value_ns, "ns"});
    metrics.push_back(
        {"flat_map.insert_erase_ns", insert_erase.value_ns, "ns"});
    metrics.push_back({"cache.hit_access_ns", hit.value_ns, "ns"});
    metrics.push_back({"bus.grant_ns_p16", grant16.value_ns, "ns"});
    metrics.push_back({"bus.grant_ns_p64", grant64.value_ns, "ns"});
    return metrics;
}

} // namespace

int
main(int argc, char **argv)
{
    Bench bench;
    if (!parseArgs(argc, argv, bench.args))
        return 2;
    std::optional<WorkloadKind> kind = parseWorkload(bench.args.workload);
    if (!kind) {
        std::cerr << "perfbench: unknown workload " << bench.args.workload
                  << "\n";
        return 2;
    }
    bench.kind = *kind;
    if (bench.kind == WorkloadKind::Dir1024Clustered) {
        int host = static_cast<int>(std::thread::hardware_concurrency());
        bench.lanes = std::clamp(host, 1, kDirLanes);
    }

    const Args &args = bench.args;
    std::string stem = args.work_dir + "/" + args.workload + "-" +
                       std::to_string(args.seed) + "-trace" +
                       (args.trace ? "1" : "0");
    std::string host = hostJson(args);
    std::cout << "host: " << host << "\n";
    bench.input = makeInput(bench.kind, args.seed, args.work_dir);
    if (bench.kind != WorkloadKind::LocksTsTts &&
        bench.input.trace_path.empty()) {
        std::cerr << "perfbench: cannot write the input trace under "
                  << args.work_dir << "\n";
        return 1;
    }

    SpanLog spans;
    std::vector<Metric> metrics =
        args.trace ? perLayer(bench, spans) : endToEnd(bench);
    bench.gates();
    if (args.trace && !spans.write(stem + ".spans.json"))
        std::cerr << "perfbench: cannot write the span log\n";
    std::remove(bench.input.trace_path.c_str());

    const Tally &tally = bench.tally;
    for (const std::string &error : tally.errors)
        std::cout << "FAILED: " << error << "\n";
    for (const Metric &metric : metrics) {
        std::cout << metric.name << " = " << jsonNumber(metric.value) << " "
                  << metric.unit << "\n";
    }
    std::cout << "failed_share = "
              << jsonNumber(ratio(tally.failed, tally.attempted)) << " ("
              << tally.failed << " of " << tally.attempted << " runs)\n";

    std::ostringstream json;
    json << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
         << ", \"attempted\": " << tally.attempted
         << ", \"failed\": " << tally.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); i++) {
        json << (i ? ", " : "") << "\"" << metrics[i].name
             << "\": {\"value\": " << jsonNumber(metrics[i].value)
             << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    json << "}}";
    std::ofstream(stem + ".result.json")
        << "{\"host\": " << host << ", \"result\": " << json.str() << "}\n";
    std::cout << json.str() << std::endl;
    return 0;
}
