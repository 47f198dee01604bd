/**
 * @file
 * Shard-safe observability suite.
 *
 * Two contracts, on top of the observe-only guarantee that
 * trace_determinism_test pins for single-lane runs:
 *
 *  1. Observability no longer pins a machine to one lane: a traced
 *     or histogrammed hierarchical run uses exactly the worker lanes
 *     it was configured with (only record_log still forces one lane,
 *     because the serial execution log is one shared stream).
 *  2. The lane count stays invisible: the merged trace file written
 *     by a --shards 4 run is byte-for-byte identical to the
 *     --shards 1 file, and every simulation-observable quantity of a
 *     traced+histogrammed+sampled run matches the untraced run at
 *     every lane count — for the snooping and the directory global
 *     interconnect.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "hier/hier_system.hh"
#include "obs/recorder.hh"
#include "trace/synthetic.hh"

namespace ddc {
namespace {

/**
 * Per-test trace file: ctest runs each TEST as its own process, in
 * parallel, in one working directory — a shared name would race.
 */
std::string
tracePath()
{
    return std::string("obs_parallel_") +
           ::testing::UnitTest::GetInstance()
               ->current_test_info()
               ->name() +
           ".json";
}

/** Hierarchical config the suite shares (8 clusters x 2 PEs). */
hier::HierConfig
baseConfig(bool directory)
{
    hier::HierConfig config;
    config.num_clusters = 8;
    config.pes_per_cluster = 2;
    config.cache_lines = 64;
    config.protocol = ProtocolKind::Rb;
    if (directory) {
        config.global = hier::GlobalKind::Directory;
        config.home_nodes = 4;
    }
    return config;
}

/** Everything simulation-observable from one run. */
struct Observed
{
    Cycle cycles = 0;
    RunStatus status = RunStatus::Finished;
    Cycle skipped = 0;
    std::string counters;
};

/** Run once; when traced, return the written trace file's bytes. */
Observed
observe(hier::HierConfig config, const Trace &trace, int shards,
        bool observed, std::string *trace_bytes = nullptr)
{
    config.shards = shards;
    config.histograms = observed;
    config.sample_every = observed ? 64 : 0;
    if (observed)
        obs::setTraceOutput(tracePath().c_str());
    Observed seen;
    {
        hier::HierSystem system(config);
        system.loadTrace(trace);
        seen.cycles = system.run();
        seen.status = system.runStatus();
        seen.skipped = system.skippedCycles();
        seen.counters = system.counters().report();
        if (observed) {
            // The tentpole regression: the recorder must not have
            // pinned the kernel to one lane.
            EXPECT_EQ(system.workerLanes(), shards)
                << "observability pinned a " << shards << "-lane run";
            EXPECT_NE(system.observability(), nullptr);
        }
    } // Destruction writes the trace file.
    if (observed) {
        obs::setTraceOutput("");
        if (trace_bytes) {
            std::ifstream in(tracePath(), std::ios::binary);
            EXPECT_TRUE(in.good()) << "trace file must exist";
            std::stringstream buffer;
            buffer << in.rdbuf();
            *trace_bytes = buffer.str();
        }
        std::remove(tracePath().c_str());
    }
    return seen;
}

void
expectIdentical(const Observed &a, const Observed &b,
                const std::string &label)
{
    EXPECT_EQ(a.cycles, b.cycles) << label;
    EXPECT_EQ(a.status, b.status) << label;
    EXPECT_EQ(a.skipped, b.skipped) << label;
    EXPECT_EQ(a.counters, b.counters) << label;
}

TEST(ObsParallel, ObservedRunsKeepTheirLanes)
{
    // --histograms --shards 4 must genuinely run on 4 lanes; before
    // the per-shard streams, an attached recorder forced one.
    auto trace = makeUniformRandomTrace(16, 400, 64, 0.3, 0.05, 11);
    hier::HierConfig config = baseConfig(false);
    config.shards = 4;
    config.histograms = true;
    {
        hier::HierSystem system(config);
        system.loadTrace(trace);
        EXPECT_EQ(system.workerLanes(), 4);
        system.run();
    }
    // record_log is not an observability path: the serial execution
    // log is one shared stream and still pins the run.
    config.record_log = true;
    {
        hier::HierSystem system(config);
        EXPECT_EQ(system.workerLanes(), 1);
    }
}

TEST(ObsParallel, TraceFileByteIdenticalAcrossShards)
{
    for (bool directory : {false, true}) {
        auto trace = makeUniformRandomTrace(16, 600, 64, 0.3, 0.05,
                                            directory ? 29 : 17);
        hier::HierConfig config = baseConfig(directory);
        std::string label = directory ? "directory" : "snoop";

        std::string baseline_bytes;
        Observed baseline = observe(config, trace, 1, true,
                                    &baseline_bytes);
        ASSERT_FALSE(baseline_bytes.empty()) << label;
        for (int shards : {2, 4}) {
            std::string bytes;
            Observed run = observe(config, trace, shards, true, &bytes);
            expectIdentical(baseline, run,
                            label + " shards " +
                                std::to_string(shards));
            // Not EXPECT_EQ on the strings: traces run to megabytes,
            // and a failure message quoting both would drown the run.
            std::size_t mismatch = std::min(baseline_bytes.size(),
                                            bytes.size());
            for (std::size_t i = 0; i < mismatch; i++) {
                if (baseline_bytes[i] != bytes[i]) {
                    mismatch = i;
                    break;
                }
            }
            EXPECT_TRUE(baseline_bytes == bytes)
                << label << ": merged --shards " << shards
                << " trace must equal the --shards 1 file "
                << "byte-for-byte (sizes " << baseline_bytes.size()
                << " vs " << bytes.size() << ", first difference at "
                << "byte " << mismatch << ")";
        }
    }
}

TEST(ObsParallel, ObservedRunMatchesUntracedAtEveryLaneCount)
{
    for (bool directory : {false, true}) {
        auto trace = makeUniformRandomTrace(16, 600, 64, 0.35, 0.1,
                                            directory ? 43 : 31);
        hier::HierConfig config = baseConfig(directory);
        std::string label = directory ? "directory" : "snoop";

        Observed plain = observe(config, trace, 1, false);
        for (int shards : {1, 2, 4}) {
            expectIdentical(plain,
                            observe(config, trace, shards, true),
                            label + " observed shards " +
                                std::to_string(shards));
        }
    }
}

TEST(ObsParallel, DirectoryHistogramsCollectAcrossLanes)
{
    // The directory instrumentation itself: home-service latencies,
    // acks per invalidate, and the sampler-fed occupancy histogram
    // collect identically at 1 and 4 lanes.
    auto trace = makeUniformRandomTrace(16, 800, 64, 0.4, 0.15, 53);
    hier::HierConfig config = baseConfig(true);
    config.histograms = true;
    config.sample_every = 64;

    std::vector<std::string> reports;
    for (int shards : {1, 4}) {
        config.shards = shards;
        hier::HierSystem system(config);
        system.loadTrace(trace);
        system.run();
        auto *observability = system.observability();
        ASSERT_NE(observability, nullptr);
        auto *metrics = observability->metrics();
        ASSERT_NE(metrics, nullptr);
        EXPECT_GT(metrics->home_service.count(), 0u);
        EXPECT_GT(metrics->dir_occupancy.count(), 0u);
        std::ostringstream report;
        report << metrics->home_service.count() << ' '
               << metrics->home_service.mean() << ' '
               << metrics->acks_per_inval.count() << ' '
               << metrics->acks_per_inval.mean() << ' '
               << metrics->dir_occupancy.count() << ' '
               << metrics->dir_occupancy.mean();
        reports.push_back(report.str());
        // Hot-home skew reads are always-on and lane-invariant too.
        auto *fabric = system.directoryFabric();
        ASSERT_NE(fabric, nullptr);
        EXPECT_GE(fabric->maxHomeMessages(),
                  static_cast<std::uint64_t>(
                      fabric->meanHomeMessages()));
    }
    EXPECT_EQ(reports[0], reports[1]);
}

} // namespace
} // namespace ddc
