/**
 * @file
 * ddcsim — command-line front end to the ddcache simulator.
 *
 * Runs a memory-reference trace (from a file or a built-in synthetic
 * workload) on a configured machine and reports the results:
 *
 *   ddcsim --workload producer_consumer --protocol RWB --pes 8 --check
 *   ddcsim --trace refs.ddct --protocol RB --lines 1024 --stats
 *   ddcsim --workload cmstar_a --save-trace refs.ddct
 *   ddcsim --workload cmstar_a --json results.json
 *
 * Flat-machine runs go through the experiment engine (src/exp), so
 * the engine flags --jobs N and --json PATH work here exactly as in
 * the bench binaries.  Run with --help for the full option list.
 */

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "base/types.hh"
#include "core/simulator.hh"
#include "exp/session.hh"
#include "hier/hier_system.hh"
#include "verify/consistency.hh"
#include "trace/synthetic.hh"

namespace {

using namespace ddc;

void
usage(std::ostream &os)
{
    os <<
        "usage: ddcsim [options] (--trace FILE | --workload NAME)\n"
        "\n"
        "machine options (both machines):\n"
        "  --protocol P     RB | RWB | WriteOnce | WriteThrough | CmStar\n"
        "                   (default RB; --clusters takes RB or RWB)\n"
        "  --pes N          number of processing elements (default 4;\n"
        "                   per cluster with --clusters)\n"
        "  --lines N        cache lines per PE (default 1024)\n"
        "  --rwb-k K        RWB writes-to-local threshold (default 2)\n"
        "  --arbiter A      RoundRobin | FixedPriority | Random\n"
        "\n"
        "flat machine only (rejected with --clusters):\n"
        "  --block W        words per cache block (default 1)\n"
        "  --ways N         set associativity (default 1)\n"
        "  --latency L      extra bus cycles per memory transaction\n"
        "                   (default 0, the paper's unified cycle)\n"
        "  --buses K        interleaved shared buses (default 1)\n"
        "\n"
        "hierarchical machine only:\n"
        "  --clusters C     run the two-level hierarchical machine\n"
        "                   (recursive RB) with C clusters of\n"
        "                   --pes PEs each\n"
        "  --global G       global interconnect: snoop (default, one\n"
        "                   snooping bus) | directory (address-\n"
        "                   interleaved home nodes; scales past 64\n"
        "                   clusters); needs --clusters\n"
        "  --homes H        home nodes of the directory fabric\n"
        "                   (default 1; needs --clusters and\n"
        "                   --global directory)\n"
        "\n"
        "workload options:\n"
        "  --trace FILE     replay a ddctrace file\n"
        "  --workload NAME  random | array_init | producer_consumer |\n"
        "                   migratory | hot_spot | false_sharing |\n"
        "                   walk | cmstar_a | cmstar_b\n"
        "  --refs N         references per PE for synthetic workloads\n"
        "                   (default 10000)\n"
        "  --seed S         RNG seed (default 1)\n"
        "  --save-trace F   write the generated trace to F and exit\n"
        "\n"
        "output options:\n"
        "  --check          verify serial consistency (records the log)\n"
        "  --stats          dump all counters\n"
        "  --jobs N         experiment-engine worker threads (flat runs)\n"
        "  --json PATH      write structured results as JSON\n"
        "  --timing         include wall_time_ms / sim_time_ms /\n"
        "                   sim_cycles_per_sec / skipped_cycles /\n"
        "                   skip_fraction / snoop_visits in the JSON\n"
        "                   (host-dependent values)\n"
        "  --no-skip        disable quiescent-cycle skipping (A/B\n"
        "                   baseline; results are byte-identical, the\n"
        "                   run is just slower)\n"
        "  --no-snoop-filter  disable the sharer-indexed snoop filter\n"
        "                   (A/B baseline; results are byte-identical,\n"
        "                   only snoop_visits moves)\n"
        "  --shards N       host threads a hierarchical run ticks its\n"
        "                   clusters on (default 1; the flat machine\n"
        "                   runs on one; results are byte-identical\n"
        "                   for every value)\n"
        "\n"
        "observability options:\n"
        "  --trace-out FILE  write a Chrome trace-event JSON of the run\n"
        "                   (load in Perfetto / chrome://tracing)\n"
        "  --trace-categories LIST\n"
        "                   comma-separated: bus,state,lock,miss,quiesce\n"
        "                   or \"all\" (default all; needs --trace-out)\n"
        "  --histograms     collect latency histograms (miss service,\n"
        "                   bus wait, lock acquisition, ...) and emit\n"
        "                   them in the --json output\n"
        "  --sample-every N  sample counters every N cycles into a\n"
        "                   per-run time series in the --json output\n"
        "  --help           this text\n";
}

struct Options
{
    SystemConfig config;
    int clusters = 0; // > 0 selects the hierarchical machine
    hier::GlobalKind global = hier::GlobalKind::Snoop;
    int homes = 1;
    std::string trace_file;
    std::string workload;
    std::string save_trace;
    std::size_t refs = 10000;
    std::uint64_t seed = 1;
    bool check = false;
    bool dump_stats = false;
    /** First flag given that only one of the two machines reads. */
    std::string flat_only_flag;
    std::string hier_only_flag;
};

constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

bool
parseArgs(int argc, char **argv, Options &options)
{
    auto need_value = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::cerr << "ddcsim: " << argv[i] << " needs a value\n";
            return nullptr;
        }
        return argv[++i];
    };

    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        const char *value = nullptr;
        // The value of an integer flag, in [min, max] or exit 1.
        auto integer = [&](std::int64_t min, std::int64_t max) {
            return exp::parseIntFlag("ddcsim", arg.c_str(), value, min,
                                     max);
        };
        auto remember = [&](std::string &first) {
            if (first.empty())
                first = arg;
        };
        if (arg == "--help") {
            usage(std::cout);
            std::exit(0);
        } else if (arg == "--check") {
            options.check = true;
        } else if (arg == "--stats") {
            options.dump_stats = true;
        } else if (arg == "--protocol") {
            if (!(value = need_value(i)))
                return false;
            options.config.protocol = parseProtocolKind(value);
        } else if (arg == "--pes") {
            if (!(value = need_value(i)))
                return false;
            options.config.num_pes = static_cast<int>(integer(1, kIntMax));
        } else if (arg == "--lines") {
            if (!(value = need_value(i)))
                return false;
            options.config.cache_lines =
                static_cast<std::size_t>(integer(1, kInt64Max));
        } else if (arg == "--block") {
            if (!(value = need_value(i)))
                return false;
            remember(options.flat_only_flag);
            options.config.block_words =
                static_cast<std::size_t>(integer(1, kInt64Max));
        } else if (arg == "--ways") {
            if (!(value = need_value(i)))
                return false;
            remember(options.flat_only_flag);
            options.config.ways =
                static_cast<std::size_t>(integer(1, kInt64Max));
        } else if (arg == "--latency") {
            if (!(value = need_value(i)))
                return false;
            remember(options.flat_only_flag);
            options.config.memory_latency =
                static_cast<std::size_t>(integer(0, kInt64Max));
        } else if (arg == "--buses") {
            if (!(value = need_value(i)))
                return false;
            remember(options.flat_only_flag);
            options.config.num_buses = static_cast<int>(integer(1, kIntMax));
        } else if (arg == "--clusters") {
            if (!(value = need_value(i)))
                return false;
            options.clusters = static_cast<int>(integer(0, kIntMax));
        } else if (arg == "--global") {
            if (!(value = need_value(i)))
                return false;
            remember(options.hier_only_flag);
            std::string name = value;
            if (name == "snoop") {
                options.global = hier::GlobalKind::Snoop;
            } else if (name == "directory") {
                options.global = hier::GlobalKind::Directory;
            } else {
                std::cerr << "ddcsim: unknown global interconnect "
                          << name << "\n";
                return false;
            }
        } else if (arg == "--homes") {
            if (!(value = need_value(i)))
                return false;
            remember(options.hier_only_flag);
            options.homes = static_cast<int>(integer(1, kIntMax));
        } else if (arg == "--rwb-k") {
            if (!(value = need_value(i)))
                return false;
            options.config.rwb_writes_to_local =
                static_cast<int>(integer(1, 255));
        } else if (arg == "--arbiter") {
            if (!(value = need_value(i)))
                return false;
            std::string name = value;
            if (name == "RoundRobin") {
                options.config.arbiter = ArbiterKind::RoundRobin;
            } else if (name == "FixedPriority") {
                options.config.arbiter = ArbiterKind::FixedPriority;
            } else if (name == "Random") {
                options.config.arbiter = ArbiterKind::Random;
            } else {
                std::cerr << "ddcsim: unknown arbiter " << name << "\n";
                return false;
            }
        } else if (arg == "--trace") {
            if (!(value = need_value(i)))
                return false;
            options.trace_file = value;
        } else if (arg == "--workload") {
            if (!(value = need_value(i)))
                return false;
            options.workload = value;
        } else if (arg == "--refs") {
            if (!(value = need_value(i)))
                return false;
            options.refs = static_cast<std::size_t>(integer(0, kInt64Max));
        } else if (arg == "--seed") {
            if (!(value = need_value(i)))
                return false;
            options.seed = static_cast<std::uint64_t>(integer(0, kInt64Max));
        } else if (arg == "--save-trace") {
            if (!(value = need_value(i)))
                return false;
            options.save_trace = value;
        } else {
            std::cerr << "ddcsim: unknown option " << arg << "\n";
            return false;
        }
    }
    if (options.trace_file.empty() == options.workload.empty()) {
        std::cerr << "ddcsim: give exactly one of --trace / --workload\n";
        return false;
    }
    return true;
}

/**
 * Reject flags that are each valid but clash together, before
 * anything is built: each clash would otherwise end in an assertion
 * abort in a trace generator or a machine constructor, or in a flag
 * the chosen machine silently ignores.  The PE cap is the widest
 * trace file (Trace::kMaxPes), which also keeps --clusters x --pes
 * from overflowing an int.
 */
bool
checkShape(const Options &options)
{
    const SystemConfig &config = options.config;
    if (options.clusters > 0 && !options.flat_only_flag.empty()) {
        std::cerr << "ddcsim: " << options.flat_only_flag
                  << " sets the flat machine only, not --clusters\n";
        return false;
    }
    if (options.clusters == 0 && !options.hier_only_flag.empty()) {
        std::cerr << "ddcsim: " << options.hier_only_flag
                  << " needs --clusters\n";
        return false;
    }
    std::int64_t pes = options.clusters > 0
                           ? std::int64_t{options.clusters} * config.num_pes
                           : config.num_pes;
    if (pes > Trace::kMaxPes) {
        std::cerr << "ddcsim: " << pes << " PEs is above the limit of "
                  << Trace::kMaxPes << "\n";
        return false;
    }
    if (options.workload == "producer_consumer" && pes < 2) {
        std::cerr << "ddcsim: --workload producer_consumer needs at "
                     "least 2 PEs\n";
        return false;
    }
    if (options.clusters == 0) {
        if (config.cache_lines % config.ways != 0) {
            std::cerr << "ddcsim: --ways " << config.ways
                      << " must divide --lines " << config.cache_lines
                      << "\n";
            return false;
        }
        return true;
    }
    if (config.protocol != ProtocolKind::Rb &&
        config.protocol != ProtocolKind::Rwb) {
        std::cerr << "ddcsim: --clusters runs RB or RWB, not "
                  << toString(config.protocol) << "\n";
        return false;
    }
    if (options.homes > 1 && options.global != hier::GlobalKind::Directory) {
        std::cerr << "ddcsim: --homes " << options.homes
                  << " needs --global directory\n";
        return false;
    }
    return true;
}

bool
buildWorkload(const Options &options, Trace &trace)
{
    int pes = options.clusters > 0
                  ? options.clusters * options.config.num_pes
                  : options.config.num_pes;
    std::size_t refs = options.refs;
    const std::string &name = options.workload;

    if (name == "random") {
        trace = makeUniformRandomTrace(pes, refs, 64, 0.3, 0.05,
                                       options.seed);
    } else if (name == "array_init") {
        trace = makeArrayInitTrace(pes, refs);
    } else if (name == "producer_consumer") {
        trace = makeProducerConsumerTrace(pes, 16,
                                          static_cast<int>(refs / 64) + 1,
                                          2);
    } else if (name == "migratory") {
        trace = makeMigratoryTrace(pes, 8,
                                   static_cast<int>(refs / 16) + 1);
    } else if (name == "hot_spot") {
        trace = makeHotSpotTrace(pes, static_cast<int>(refs / 9) + 1, 8);
    } else if (name == "false_sharing") {
        trace = makeFalseSharingTrace(pes, static_cast<int>(refs / 2) + 1);
    } else if (name == "walk") {
        // Read-only private streaming that fits L1 after the cold
        // pass: a hit-dominated pattern with little global traffic.
        trace = makeSequentialWalkTrace(pes, 128,
                                        static_cast<int>(refs / 128) + 1,
                                        0);
    } else if (name == "cmstar_a") {
        trace = makeCmStarTrace(cmStarApplicationA(), pes, refs,
                                options.seed);
    } else if (name == "cmstar_b") {
        trace = makeCmStarTrace(cmStarApplicationB(), pes, refs,
                                options.seed);
    } else {
        std::cerr << "ddcsim: unknown workload " << name << "\n";
        return false;
    }
    return true;
}

/** The classic one-line run summary, rebuilt from a RunResult. */
std::string
describeResult(const exp::RunResult &result)
{
    bool completed = result.status == RunStatus::Finished;
    std::ostringstream os;
    os << (completed ? "completed" : "TIMED OUT") << " in "
       << result.cycles << " cycles; " << result.total_refs << " refs; "
       << result.bus_transactions << " bus transactions ("
       << result.metric("bus_per_ref") << " per ref); miss ratio "
       << result.metric("miss_ratio");
    if (!result.consistent)
        os << "; INCONSISTENT";
    return os.str();
}

/**
 * Structured results for a hierarchical run.  Every field is
 * lane-invariant — CI diffs the --shards 1 and --shards 4 files —
 * so kernel facts that depend on the lane count (barrier epochs)
 * stay on stdout only.
 */
bool
writeHierJson(const std::string &path, const hier::HierConfig &config,
              const hier::HierSystem &system)
{
    exp::Json json = exp::Json::object();
    json["machine"] = exp::Json(std::string("hierarchical"));
    json["protocol"] =
        exp::Json(std::string(toString(config.protocol)));
    json["clusters"] =
        exp::Json(static_cast<std::uint64_t>(config.num_clusters));
    json["pes_per_cluster"] = exp::Json(
        static_cast<std::uint64_t>(config.pes_per_cluster));
    json["global"] = exp::Json(std::string(toString(config.global)));
    json["status"] = exp::Json(std::string(
        system.allDone() ? "finished" : "timed_out"));
    json["cycles"] =
        exp::Json(static_cast<std::uint64_t>(system.now()));
    json["global_bus_ops"] =
        exp::Json(system.globalBusTransactions());
    json["cluster_bus_ops"] =
        exp::Json(system.clusterBusTransactions());
    if (const auto *fabric = system.directoryFabric()) {
        json["home_nodes"] =
            exp::Json(static_cast<std::uint64_t>(config.home_nodes));
        double mean = fabric->meanHomeMessages();
        if (mean > 0.0) {
            json["hot_home_skew"] = exp::Json(
                static_cast<double>(fabric->maxHomeMessages()) / mean);
        }
    }
    if (auto *observability = system.observability()) {
        if (const auto *metrics = observability->metrics())
            json["histograms"] = exp::histogramsJson(*metrics);
        if (auto *sampler = observability->sampler())
            json["samples"] = exp::samplesJson(sampler->series());
        // Host-dependent by design; rides the --profile flag only, so
        // the default JSON stays lane- and host-invariant.
        if (const auto *profile = observability->profile()) {
            json["tick_phase_ms"] = exp::Json(profile->kernel_tick_ms);
            json["barrier_wait_ms"] =
                exp::Json(profile->kernel_barrier_ms);
            if (system.directoryFabric()) {
                json["route_phase_ms"] =
                    exp::Json(profile->fabric_route_ms);
                json["serve_phase_ms"] =
                    exp::Json(profile->fabric_serve_ms);
            }
        }
    }
    std::ofstream out(path);
    if (!out)
        return false;
    json.dump(out);
    out << "\n";
    return out.good();
}

} // namespace

int
main(int argc, char **argv)
{
    auto session_options = exp::parseSessionArgs(argc, argv);
    Options options;
    if (!parseArgs(argc, argv, options)) {
        usage(std::cerr);
        return 1;
    }
    if (!checkShape(options))
        return 1;

    Trace trace;
    if (!options.trace_file.empty()) {
        std::ifstream input(options.trace_file);
        if (!input) {
            std::cerr << "ddcsim: cannot read trace " << options.trace_file
                      << "\n";
            return 1;
        }
        if (!trace.load(input)) {
            std::cerr << "ddcsim: trace " << options.trace_file << " line "
                      << trace.loadError().line << ": "
                      << trace.loadError().reason << "\n";
            return 1;
        }
    } else if (!buildWorkload(options, trace)) {
        return 1;
    }

    if (!options.save_trace.empty()) {
        std::ofstream output(options.save_trace);
        if (!output) {
            std::cerr << "ddcsim: cannot write " << options.save_trace
                      << "\n";
            return 1;
        }
        trace.save(output);
        std::cout << "wrote " << trace.totalRefs() << " refs ("
                  << trace.numPes() << " PEs) to " << options.save_trace
                  << "\n";
        return 0;
    }

    if (options.clusters > 0) {
        // Unlike the flat machine, whose PE count grows to fit the
        // trace, the hierarchical shape is fixed by the flags.
        std::int64_t machine_pes =
            std::int64_t{options.clusters} * options.config.num_pes;
        if (trace.numPes() > machine_pes) {
            std::cerr << "ddcsim: trace has " << trace.numPes()
                      << " PE streams, more than the " << machine_pes
                      << " PEs of --clusters " << options.clusters
                      << " x --pes " << options.config.num_pes << "\n";
            return 1;
        }
        hier::HierConfig config;
        config.shape() = options.config;
        config.engine() = session_options.engine;
        config.num_clusters = options.clusters;
        config.pes_per_cluster = options.config.num_pes;
        config.record_log = options.check;
        config.global = options.global;
        config.home_nodes = options.homes;

        hier::HierSystem system(config);
        system.loadTrace(trace);
        system.run();
        bool consistent = true;
        if (options.check)
            consistent = checkSerialConsistency(system.log()).consistent;

        std::cout << "hierarchical " << toString(config.protocol)
                  << ", " << options.clusters
                  << " clusters x " << config.pes_per_cluster << " PEs, "
                  << config.cache_lines << " L1 lines, global "
                  << toString(config.global);
        if (config.global == hier::GlobalKind::Directory)
            std::cout << " (" << config.home_nodes << " homes)";
        std::cout << "\n"
                  << (system.allDone() ? "completed" : "TIMED OUT")
                  << " in " << system.now() << " cycles; "
                  << system.globalBusTransactions()
                  << " global bus ops; " << system.clusterBusTransactions()
                  << " cluster bus ops";
        if (system.barrierEpochs() > 0)
            std::cout << "; " << system.barrierEpochs()
                      << " barrier epochs";
        std::cout << "\n";
        if (options.check) {
            std::cout << "serial consistency: "
                      << (consistent ? "OK" : "VIOLATED") << "\n";
        }
        if (options.dump_stats)
            std::cout << system.counters().report();
        if (!session_options.json_path.empty() &&
            !writeHierJson(session_options.json_path, config, system)) {
            std::cerr << "ddcsim: cannot write "
                      << session_options.json_path << "\n";
            return 1;
        }
        return (!system.allDone() || !consistent) ? 1 : 0;
    }

    exp::Session session(session_options);
    exp::Experiment spec("ddcsim", "one CLI-configured trace run");
    {
        SystemConfig config = options.config;
        bool check = options.check;
        exp::ParamList params{
            {"protocol", std::string(toString(config.protocol))},
            {"pes", std::to_string(config.num_pes)},
        };
        if (!options.workload.empty())
            params.emplace_back("workload", options.workload);
        spec.addRun(params, [config, trace, check](
                                const EngineOptions &engine) {
            exp::TraceRun run;
            run.config = config;
            run.config.engine() = engine;
            run.trace = trace;
            run.check_consistency = check;
            return run;
        });
    }
    const auto &result = session.run(spec)[0];

    std::cout << "protocol " << toString(options.config.protocol) << ", "
              << options.config.num_pes << " PEs, "
              << options.config.cache_lines << " lines x "
              << options.config.block_words << " words, "
              << options.config.num_buses << " bus(es)\n"
              << describeResult(result) << "\n";
    if (options.check) {
        std::cout << "serial consistency: "
                  << (result.consistent ? "OK" : "VIOLATED") << "\n";
    }
    if (options.dump_stats)
        std::cout << result.counters.report();
    if (!session.writeJson()) {
        std::cerr << "ddcsim: cannot write " << session_options.json_path
                  << "\n";
        return 1;
    }

    bool failed = result.status != RunStatus::Finished ||
                  (options.check && !result.consistent);
    return failed ? 1 : 0;
}
