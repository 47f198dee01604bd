/**
 * @file
 * Tests for the parallel experiment engine (src/exp): grid expansion,
 * worker-count invariance (jobs=1 vs jobs=8 must produce identical
 * results and identical JSON bytes), JSON round-tripping, and timeout
 * status propagation.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "exp/experiment.hh"
#include "exp/json.hh"
#include "exp/runner.hh"
#include "exp/session.hh"
#include "hier/hier_system.hh"
#include "obs/recorder.hh"
#include "obs/sampler.hh"
#include "sync/workload.hh"
#include "trace/synthetic.hh"

namespace {

using namespace ddc;

TEST(ParamGridTest, EmptyGridHasOnePoint)
{
    exp::ParamGrid grid;
    EXPECT_EQ(grid.size(), 1u);
    EXPECT_EQ(grid.numAxes(), 0u);
    EXPECT_TRUE(grid.paramsAt(0).empty());
}

TEST(ParamGridTest, ExpandsRowMajorLastAxisFastest)
{
    exp::ParamGrid grid;
    grid.axis("a", {"a0", "a1"});
    grid.axis("b", {"b0", "b1", "b2"});
    ASSERT_EQ(grid.size(), 6u);

    // Flat index 0 -> (a0, b0); 1 -> (a0, b1); 3 -> (a1, b0).
    auto p0 = grid.paramsAt(0);
    EXPECT_EQ(p0[0].second, "a0");
    EXPECT_EQ(p0[1].second, "b0");
    auto p1 = grid.paramsAt(1);
    EXPECT_EQ(p1[0].second, "a0");
    EXPECT_EQ(p1[1].second, "b1");
    auto p3 = grid.paramsAt(3);
    EXPECT_EQ(p3[0].second, "a1");
    EXPECT_EQ(p3[1].second, "b0");

    auto indices = grid.indicesAt(5);
    EXPECT_EQ(indices[0], 1u);
    EXPECT_EQ(indices[1], 2u);

    // Axis names ride along with every point.
    EXPECT_EQ(p0[0].first, "a");
    EXPECT_EQ(p0[1].first, "b");
}

/** A small real sweep: two workloads x two protocols. */
exp::Experiment
makeSweep()
{
    exp::ParamGrid grid;
    grid.axis("workload", {"array_init", "migratory"});
    grid.axis("protocol", {"RB", "RWB"});

    exp::Experiment spec("exp_test_sweep", "engine test sweep");
    spec.addGrid(grid, [grid](std::size_t flat,
                              const EngineOptions &engine) {
        auto indices = grid.indicesAt(flat);
        exp::TraceRun run;
        run.config.engine() = engine;
        run.config.num_pes = 4;
        run.config.cache_lines = 256;
        run.config.protocol = indices[1] == 0 ? ProtocolKind::Rb
                                              : ProtocolKind::Rwb;
        run.trace = indices[0] == 0 ? makeArrayInitTrace(4, 256)
                                    : makeMigratoryTrace(4, 8, 16);
        return run;
    });
    return spec;
}

TEST(RunnerTest, ResultsOrderedByGridIndex)
{
    auto spec = makeSweep();
    exp::RunnerOptions options;
    options.jobs = 1;
    auto results = exp::runExperiment(spec, options);
    ASSERT_EQ(results.size(), 4u);
    for (std::size_t i = 0; i < results.size(); i++) {
        EXPECT_EQ(results[i].index, i);
        EXPECT_EQ(results[i].params, spec.points()[i].params);
        EXPECT_EQ(results[i].status, RunStatus::Finished);
        EXPECT_GT(results[i].cycles, 0u);
        EXPECT_TRUE(results[i].hasMetric("bus_per_ref"));
    }
}

TEST(RunnerTest, ParallelMatchesSerialExactly)
{
    auto spec = makeSweep();
    exp::RunnerOptions serial;
    serial.jobs = 1;
    exp::RunnerOptions parallel;
    parallel.jobs = 8;
    auto a = exp::runExperiment(spec, serial);
    auto b = exp::runExperiment(spec, parallel);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); i++) {
        // Byte-level equality of the serialized results covers every
        // field the engine emits.
        EXPECT_EQ(a[i].toJson().dump(), b[i].toJson().dump()) << i;
    }
}

TEST(RunnerTest, PointsSharingOneTraceMatchSerial)
{
    // Every point's machine replays the same shared streams, built on
    // up to 8 workers at once; the streams are never copied or changed.
    const Trace trace = makeMigratoryTrace(4, 8, 16);
    const Trace::SharedStream first = trace.sharedStream(0);
    exp::Experiment spec("exp_test_shared", "points sharing one trace");
    exp::ParamGrid grid;
    grid.axis("protocol", {"RB", "RWB", "WriteOnce", "WriteThrough"});
    grid.axis("lines", {"64", "256"});
    spec.addGrid(grid, [grid, trace](std::size_t flat,
                                     const EngineOptions &) {
        auto indices = grid.indicesAt(flat);
        exp::TraceRun run;
        run.config.num_pes = 4;
        run.config.cache_lines = indices[1] == 0 ? 64 : 256;
        const ProtocolKind kinds[] = {ProtocolKind::Rb, ProtocolKind::Rwb,
                                      ProtocolKind::WriteOnce,
                                      ProtocolKind::WriteThrough};
        run.config.protocol = kinds[indices[0]];
        run.trace = trace;
        return run;
    });
    exp::RunnerOptions serial;
    serial.jobs = 1;
    exp::RunnerOptions parallel;
    parallel.jobs = 8;
    auto a = exp::runExperiment(spec, serial);
    auto b = exp::runExperiment(spec, parallel);
    ASSERT_EQ(a.size(), 8u);
    for (std::size_t i = 0; i < a.size(); i++)
        EXPECT_EQ(a[i].toJson().dump(), b[i].toJson().dump()) << i;
    EXPECT_EQ(trace.sharedStream(0), first);
    EXPECT_EQ(trace, makeMigratoryTrace(4, 8, 16));
}

TEST(RunnerTest, SessionJsonIdenticalAcrossJobCounts)
{
    exp::SessionOptions serial;
    serial.jobs = 1;
    exp::Session session_a(serial);
    session_a.run(makeSweep());

    exp::SessionOptions parallel;
    parallel.jobs = 8;
    exp::Session session_b(parallel);
    session_b.run(makeSweep());

    EXPECT_EQ(session_a.toJson().dump(), session_b.toJson().dump());
}

TEST(RunnerTest, CustomPointsRunAndKeepOrder)
{
    exp::Experiment spec("custom", "custom points");
    for (int i = 0; i < 5; i++) {
        spec.addCustom({{"i", std::to_string(i)}},
                       [i](const EngineOptions &) {
            exp::RunResult result;
            result.cycles = static_cast<Cycle>(100 + i);
            result.setMetric("i", static_cast<double>(i));
            return result;
        });
    }
    exp::RunnerOptions options;
    options.jobs = 4;
    auto results = exp::runExperiment(spec, options);
    ASSERT_EQ(results.size(), 5u);
    for (std::size_t i = 0; i < 5; i++) {
        EXPECT_EQ(results[i].cycles, 100 + i);
        EXPECT_EQ(results[i].metric("i"), static_cast<double>(i));
    }
}

TEST(RunnerTest, TimeoutStatusPropagates)
{
    exp::Experiment spec("timeout", "tiny cycle budget");
    spec.addRun({{"point", "strangled"}}, [](const EngineOptions &) {
        exp::TraceRun run;
        run.config.num_pes = 4;
        run.config.cache_lines = 256;
        run.config.protocol = ProtocolKind::Rb;
        run.trace = makeMigratoryTrace(4, 8, 64);
        run.max_cycles = 10; // far too few to finish
        return run;
    });
    exp::RunnerOptions options;
    auto results = exp::runExperiment(spec, options);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, RunStatus::TimedOut);

    // And it is visible in the serialized form.
    auto json = results[0].toJson();
    EXPECT_EQ(json.find("status")->asString(), "timed_out");
}

TEST(JsonTest, RoundTripsValues)
{
    exp::Json object = exp::Json::object();
    object["int"] = exp::Json(static_cast<std::int64_t>(-42));
    object["double"] = exp::Json(0.354375);
    object["string"] = exp::Json(std::string("hi \"there\"\n"));
    object["bool"] = exp::Json(true);
    object["null"] = exp::Json();
    exp::Json array = exp::Json::array();
    array.push(exp::Json(static_cast<std::int64_t>(1)));
    array.push(exp::Json(2.5));
    object["array"] = array;

    auto text = object.dump();
    exp::Json parsed;
    ASSERT_TRUE(exp::Json::parse(text, parsed));
    EXPECT_EQ(parsed.dump(), text);
    EXPECT_EQ(parsed.find("int")->asInt(), -42);
    EXPECT_EQ(parsed.find("double")->asDouble(), 0.354375);
    EXPECT_EQ(parsed.find("string")->asString(), "hi \"there\"\n");
    EXPECT_TRUE(parsed.find("bool")->asBool());
}

TEST(JsonTest, RunResultRoundTrips)
{
    auto spec = makeSweep();
    exp::RunnerOptions options;
    auto results = exp::runExperiment(spec, options);
    for (const auto &result : results) {
        auto text = result.toJson().dump();
        exp::Json parsed;
        ASSERT_TRUE(exp::Json::parse(text, parsed));
        auto rebuilt = exp::RunResult::fromJson(parsed);
        EXPECT_EQ(rebuilt.toJson().dump(), text);
        EXPECT_EQ(rebuilt.index, result.index);
        EXPECT_EQ(rebuilt.params, result.params);
        EXPECT_EQ(rebuilt.cycles, result.cycles);
        EXPECT_EQ(rebuilt.counters.get("bus.busy_cycles"),
                  result.counters.get("bus.busy_cycles"));
    }
}

TEST(JsonTest, TimingFieldsAreOptIn)
{
    exp::RunResult result;
    result.cycles = 5000;
    result.wall_time_ms = 2.5;
    result.sim_time_ms = 2.0;
    result.sim_cycles_per_sec = 2e6;

    // Default serialization stays byte-stable across hosts: no
    // timing fields.
    auto plain = result.toJson();
    EXPECT_EQ(plain.find("wall_time_ms"), nullptr);
    EXPECT_EQ(plain.find("sim_time_ms"), nullptr);
    EXPECT_EQ(plain.find("sim_cycles_per_sec"), nullptr);

    auto timed = result.toJson(true);
    ASSERT_NE(timed.find("wall_time_ms"), nullptr);
    EXPECT_EQ(timed.find("wall_time_ms")->asDouble(), 2.5);
    EXPECT_EQ(timed.find("sim_time_ms")->asDouble(), 2.0);
    EXPECT_EQ(timed.find("sim_cycles_per_sec")->asDouble(), 2e6);

    // Round trip through parse preserves the timing fields.
    exp::Json parsed;
    ASSERT_TRUE(exp::Json::parse(timed.dump(), parsed));
    auto rebuilt = exp::RunResult::fromJson(parsed);
    EXPECT_EQ(rebuilt.wall_time_ms, 2.5);
    EXPECT_EQ(rebuilt.sim_time_ms, 2.0);
    EXPECT_EQ(rebuilt.sim_cycles_per_sec, 2e6);
    EXPECT_EQ(rebuilt.toJson(true).dump(), timed.dump());
}

TEST(RunnerTest, MeasuresWallClockPerPoint)
{
    auto spec = makeSweep();
    exp::RunnerOptions options;
    auto results = exp::runExperiment(spec, options);
    for (const auto &result : results) {
        EXPECT_GT(result.wall_time_ms, 0.0);
        EXPECT_GT(result.sim_time_ms, 0.0);
        // The sim loop is a slice of the whole point.
        EXPECT_LE(result.sim_time_ms, result.wall_time_ms);
        EXPECT_GT(result.sim_cycles_per_sec, 0.0);
        // rate * sim seconds == cycles (up to rounding).
        EXPECT_NEAR(result.sim_cycles_per_sec *
                        (result.sim_time_ms / 1000.0),
                    static_cast<double>(result.cycles),
                    1.0);
    }
}

TEST(SessionTest, ParseArgsStripsEngineFlags)
{
    const char *raw[] = {"prog", "--jobs", "8", "--foo", "--json",
                         "out.json", "bar", nullptr};
    int argc = 7;
    char *argv[8];
    for (int i = 0; i < argc; i++)
        argv[i] = const_cast<char *>(raw[i]);
    argv[argc] = nullptr;

    auto options = exp::parseSessionArgs(argc, argv);
    EXPECT_EQ(options.jobs, 8);
    EXPECT_EQ(options.json_path, "out.json");
    EXPECT_FALSE(options.timing);
    ASSERT_EQ(argc, 3);
    EXPECT_STREQ(argv[0], "prog");
    EXPECT_STREQ(argv[1], "--foo");
    EXPECT_STREQ(argv[2], "bar");
    EXPECT_EQ(argv[3], nullptr);
}

TEST(SessionTest, ParseArgsAcceptsTimingFlag)
{
    const char *raw[] = {"prog", "--timing", "--jobs", "2", nullptr};
    int argc = 4;
    char *argv[5];
    for (int i = 0; i < argc; i++)
        argv[i] = const_cast<char *>(raw[i]);
    argv[argc] = nullptr;

    auto options = exp::parseSessionArgs(argc, argv);
    EXPECT_TRUE(options.timing);
    EXPECT_EQ(options.jobs, 2);
    ASSERT_EQ(argc, 1);
    EXPECT_EQ(argv[1], nullptr);
}

TEST(SessionTest, ParseIntFlagTakesWholeDecimalIntegersInRange)
{
    constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
    EXPECT_EQ(exp::parseIntFlag("prog", "--jobs", "8", 1, 64), 8);
    EXPECT_EQ(exp::parseIntFlag("prog", "--jobs", "64", 1, 64), 64);
    EXPECT_EQ(exp::parseIntFlag("prog", "--refs", "0", 0, 10), 0);
    EXPECT_EQ(exp::parseIntFlag("prog", "--seed", "9223372036854775807",
                                0, kMax),
              kMax);
    for (const char *bad : {"", "1e3", "2x", " 2", "+2", "0x10", "-1", "0",
                            "65", "99999999999999999999"}) {
        EXPECT_EXIT(exp::parseIntFlag("prog", "--jobs", bad, 1, 64),
                    ::testing::ExitedWithCode(1),
                    "prog: --jobs needs an integer in \\[1, 64\\], got '")
            << "value '" << bad << "'";
    }
}

TEST(SessionTest, TimingOptionEmitsWallClockFields)
{
    exp::SessionOptions options;
    options.timing = true;
    exp::Session session(options);
    session.run(makeSweep());
    auto json = session.toJson();
    const auto &run =
        json.find("experiments")->at(0).find("runs")->at(0);
    ASSERT_NE(run.find("wall_time_ms"), nullptr);
    EXPECT_GT(run.find("wall_time_ms")->asDouble(), 0.0);
    ASSERT_NE(run.find("sim_cycles_per_sec"), nullptr);
}

TEST(SessionTest, CollectsMultipleExperiments)
{
    exp::SessionOptions options;
    options.jobs = 2;
    exp::Session session(options);
    const auto &first = session.run(makeSweep());
    exp::Experiment single("single", "one custom point");
    single.addCustom({}, [](const EngineOptions &) {
        exp::RunResult result;
        result.cycles = 7;
        return result;
    });
    const auto &second = session.run(single);

    // References from earlier runs stay valid after later runs.
    EXPECT_EQ(first.size(), 4u);
    EXPECT_EQ(second.size(), 1u);
    EXPECT_EQ(second[0].cycles, 7u);

    auto json = session.toJson();
    const auto *experiments = json.find("experiments");
    ASSERT_NE(experiments, nullptr);
    EXPECT_EQ(experiments->size(), 2u);
}

/** The engine-facing facts a custom point reads off its machine. */
template <typename Machine>
exp::RunResult
observeMachine(const Machine &machine)
{
    exp::RunResult result;
    result.cycles = machine.now();
    result.skipped_cycles = machine.skippedCycles();
    result.snoop_visits = machine.snoopVisits();
    if (auto *recorder = machine.observability()) {
        if (const auto *metrics = recorder->metrics())
            result.histograms = exp::histogramsJson(*metrics);
        if (auto *sampler = recorder->sampler())
            result.samples = exp::samplesJson(sampler->series());
    }
    return result;
}

/**
 * One point of each kind a bench builds: a trace run, a lock
 * experiment whose System runLockExperiment builds, and a
 * hierarchical machine built inside a custom point.
 */
exp::Experiment
makeEngineProbe()
{
    exp::Experiment spec("engine_probe", "engine options reach machines");
    spec.addRun({{"point", "trace"}}, [](const EngineOptions &engine) {
        exp::TraceRun run;
        run.config.engine() = engine;
        run.config.num_pes = 4;
        run.config.cache_lines = 64;
        run.config.memory_latency = 16;
        run.trace = makeHotSpotTrace(4, 100, 8);
        return run;
    });
    spec.addCustom({{"point", "lock"}}, [](const EngineOptions &engine) {
        sync::LockExperimentConfig config;
        config.system.engine() = engine;
        config.system.num_pes = 4;
        config.system.memory_latency = 16;
        config.lock = sync::LockKind::TestAndSet;
        config.acquisitions_per_pe = 4;
        std::unique_ptr<System> system;
        sync::runLockExperiment(config, &system);
        return observeMachine(*system);
    });
    spec.addCustom({{"point", "hier"}}, [](const EngineOptions &engine) {
        hier::HierConfig config;
        config.engine() = engine;
        config.num_clusters = 4;
        config.pes_per_cluster = 8;
        config.cache_lines = 64;
        hier::HierSystem system(config);
        system.loadTrace(makeHotSpotTrace(32, 100, 8));
        system.run();
        exp::RunResult result = observeMachine(system);
        result.barrier_epochs = system.barrierEpochs();
        return result;
    });
    return spec;
}

TEST(SessionTest, EngineFlagsReachEveryMachineAPointBuilds)
{
    const char *raw[] = {"prog", "--no-skip", "--no-snoop-filter",
                         "--shards", "4", "--histograms",
                         "--sample-every", "64", nullptr};
    int argc = 8;
    char *argv[9];
    for (int i = 0; i < argc; i++)
        argv[i] = const_cast<char *>(raw[i]);
    argv[argc] = nullptr;
    auto flagged = exp::parseSessionArgs(argc, argv);
    ASSERT_EQ(argc, 1);

    auto run = [](const exp::SessionOptions &options) {
        exp::Session session(options);
        return std::vector<exp::RunResult>(session.run(makeEngineProbe()));
    };
    exp::SessionOptions defaults;
    exp::SessionOptions filter_off;
    filter_off.engine.snoop_filter = false;
    auto plain = run(defaults);
    auto unfiltered = run(filter_off);
    auto seen = run(flagged);

    ASSERT_EQ(seen.size(), 3u);
    for (std::size_t i = 0; i < seen.size(); i++) {
        SCOPED_TRACE(seen[i].params[0].second);
        EXPECT_EQ(seen[i].cycles, plain[i].cycles);
        // Each flag changes what this machine reports, so a value
        // that did not arrive would show.  (The hierarchy's buses run
        // the unified cycle, so it has no quiescent cycles to skip.)
        if (i < 2) {
            EXPECT_GT(plain[i].skipped_cycles, 0u);
        }
        EXPECT_EQ(seen[i].skipped_cycles, 0u);
        EXPECT_LT(plain[i].snoop_visits, unfiltered[i].snoop_visits);
        EXPECT_EQ(seen[i].snoop_visits, unfiltered[i].snoop_visits);
        EXPECT_TRUE(plain[i].histograms.isNull());
        EXPECT_FALSE(seen[i].histograms.isNull());
        EXPECT_TRUE(plain[i].samples.isNull());
        EXPECT_FALSE(seen[i].samples.isNull());
    }
    EXPECT_EQ(plain[2].barrier_epochs, 0u);
    EXPECT_GT(seen[2].barrier_epochs, 0u);
}

} // namespace
