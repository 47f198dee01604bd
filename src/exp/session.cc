#include "exp/session.hh"

#include <charconv>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string_view>

#include "base/logging.hh"
#include "obs/recorder.hh"
#include "obs/trace.hh"
#include "sim/system.hh"

namespace ddc {
namespace exp {

namespace {

/**
 * One engine flag: its spelling, whether it consumes a value, and how
 * it lands on SessionOptions or a process-wide switch.  Adding a flag
 * is one entry here; the parse loop, value handling, and error
 * reporting are shared.
 */
struct FlagSpec
{
    const char *name;
    bool takes_value;
    /** Applies the flag; returns "" on success, else an error. */
    std::string (*apply)(SessionOptions &options, const char *program,
                         const char *value);
};

constexpr const char *kOk = "";
constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();

const FlagSpec kFlags[] = {
    {"--timing", false,
     [](SessionOptions &options, const char *, const char *) -> std::string {
         options.timing = true;
         return kOk;
     }},
    {"--no-skip", false,
     [](SessionOptions &, const char *, const char *) -> std::string {
         setQuiescentSkipEnabled(false);
         return kOk;
     }},
    {"--no-snoop-filter", false,
     [](SessionOptions &, const char *, const char *) -> std::string {
         setSnoopFilterEnabled(false);
         return kOk;
     }},
    {"--jobs", true,
     [](SessionOptions &options, const char *program,
        const char *value) -> std::string {
         options.jobs = static_cast<int>(
             parseIntFlag(program, "--jobs", value, 1, kIntMax));
         return kOk;
     }},
    {"--json", true,
     [](SessionOptions &options, const char *,
        const char *value) -> std::string {
         options.json_path = value;
         return kOk;
     }},
    {"--trace-out", true,
     [](SessionOptions &options, const char *,
        const char *value) -> std::string {
         options.trace_out = value;
         return kOk;
     }},
    {"--trace-categories", true,
     [](SessionOptions &options, const char *,
        const char *value) -> std::string {
         std::string error;
         if (obs::parseCategories(value, &error) == 0)
             return "unknown category '" + error + "'";
         options.trace_categories = value;
         return kOk;
     }},
    {"--histograms", false,
     [](SessionOptions &options, const char *, const char *) -> std::string {
         options.histograms = true;
         obs::setHistogramsEnabled(true);
         return kOk;
     }},
    {"--sample-every", true,
     [](SessionOptions &, const char *program,
        const char *value) -> std::string {
         obs::setSampleInterval(static_cast<Cycle>(parseIntFlag(
             program, "--sample-every", value, 1,
             std::numeric_limits<std::int64_t>::max())));
         return kOk;
     }},
    {"--profile", false,
     [](SessionOptions &, const char *, const char *) -> std::string {
         obs::setPhaseProfilingEnabled(true);
         return kOk;
     }},
    {"--shards", true,
     [](SessionOptions &, const char *program,
        const char *value) -> std::string {
         setDefaultShards(static_cast<int>(
             parseIntFlag(program, "--shards", value, 1, kIntMax)));
         return kOk;
     }},
};

} // namespace

SessionOptions
parseSessionArgs(int &argc, char **argv)
{
    SessionOptions options;
    int out = 1;
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        const FlagSpec *spec = nullptr;
        for (const auto &flag : kFlags) {
            if (arg == flag.name) {
                spec = &flag;
                break;
            }
        }
        if (!spec) {
            argv[out++] = argv[i];
            continue;
        }
        const char *value = nullptr;
        if (spec->takes_value) {
            if (i + 1 >= argc) {
                std::cerr << argv[0] << ": " << arg << " needs a value\n";
                std::exit(1);
            }
            value = argv[++i];
        }
        std::string error = spec->apply(options, argv[0], value);
        if (!error.empty()) {
            std::cerr << argv[0] << ": " << arg << " " << error << "\n";
            std::exit(1);
        }
    }
    argc = out;
    argv[argc] = nullptr;
    if (!options.trace_out.empty()) {
        obs::setTraceOutput(options.trace_out,
                            obs::parseCategories(
                                options.trace_categories));
    }
    return options;
}

std::int64_t
parseIntFlag(const char *program, const char *flag, const char *value,
             std::int64_t min, std::int64_t max)
{
    std::string_view text(value);
    std::int64_t number = 0;
    auto [end, error] =
        std::from_chars(text.data(), text.data() + text.size(), number);
    if (text.empty() || error != std::errc() ||
        end != text.data() + text.size() || number < min || number > max) {
        std::cerr << program << ": " << flag << " needs an integer in ["
                  << min << ", " << max << "], got '" << text << "'\n";
        std::exit(1);
    }
    return number;
}

Session::Session(SessionOptions options) : opts(std::move(options)) {}

const std::vector<RunResult> &
Session::run(const Experiment &experiment)
{
    RunnerOptions runner;
    runner.jobs = opts.jobs;
    collected.push_back({experiment.name(), experiment.description(),
                         runExperiment(experiment, runner)});
    return collected.back().results;
}

Json
Session::toJson() const
{
    Json json = Json::object();
    json["schema"] = Json(std::int64_t{7});
    Json experiments = Json::array();
    for (const auto &entry : collected) {
        Json experiment = Json::object();
        experiment["name"] = Json(entry.name);
        experiment["description"] = Json(entry.description);
        Json runs = Json::array();
        for (const auto &result : entry.results)
            runs.push(result.toJson(opts.timing));
        experiment["runs"] = std::move(runs);
        experiments.push(std::move(experiment));
    }
    json["experiments"] = std::move(experiments);
    return json;
}

bool
Session::writeJson() const
{
    if (opts.json_path.empty())
        return true;
    std::ofstream out(opts.json_path);
    if (!out)
        return false;
    toJson().dump(out);
    out << "\n";
    return out.good();
}

} // namespace exp
} // namespace ddc
