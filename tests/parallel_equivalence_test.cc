/**
 * @file
 * Shard-count equivalence suite for the parallel simulation kernel.
 *
 * The kernel's contract is that --shards N is a host-performance knob
 * only: every counter, the final cycle count, the run status, and the
 * serialized JSON must be byte-identical whether a hierarchical
 * machine ticks its clusters on one host thread or many — including
 * under the Random arbiter (per-bus RNG streams must not shift), for
 * timed-out runs, and for the flat machine, which is always a single
 * shard but inherits the same EngineOptions::shards field.  Both global
 * interconnects are covered: the snooping bus and the directory
 * fabric, whose cross-shard arm edge is a relaxed counter the serial
 * phase reads after the barrier.  Runs here avoid record_log so the
 * parallel lanes genuinely engage (the serial execution log pins a
 * machine to one lane).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>

#include "exp/runner.hh"
#include "hier/hier_system.hh"
#include "sim/system.hh"
#include "sync/workload.hh"
#include "trace/synthetic.hh"

namespace ddc {
namespace {

/** Everything observable from one hier run, for byte-wise compare. */
struct Observed
{
    Cycle cycles = 0;
    RunStatus status = RunStatus::Finished;
    Cycle skipped = 0;
    std::string counters;
    std::string global_counters;
    std::string cluster0_counters;
};

Observed
observeHier(hier::HierConfig config, const Trace &trace, int shards,
            Cycle max_cycles = System::kDefaultMaxCycles)
{
    config.shards = shards;
    hier::HierSystem system(config);
    system.loadTrace(trace);
    Observed seen;
    seen.cycles = system.run(max_cycles);
    seen.status = system.runStatus();
    seen.skipped = system.skippedCycles();
    seen.counters = system.counters().report();
    seen.global_counters = system.globalCounters().report();
    seen.cluster0_counters = system.clusterCounters(0).report();
    return seen;
}

void
expectIdentical(const Observed &sequential, const Observed &parallel,
                const std::string &label)
{
    EXPECT_EQ(sequential.cycles, parallel.cycles) << label;
    EXPECT_EQ(sequential.status, parallel.status) << label;
    EXPECT_EQ(sequential.skipped, parallel.skipped) << label;
    EXPECT_EQ(sequential.counters, parallel.counters) << label;
    EXPECT_EQ(sequential.global_counters, parallel.global_counters)
        << label;
    EXPECT_EQ(sequential.cluster0_counters, parallel.cluster0_counters)
        << label;
}

/** 1 plus a spread of lane counts including the host's own. */
std::vector<int>
shardCounts()
{
    std::vector<int> counts{2, 4};
    int hw = static_cast<int>(std::thread::hardware_concurrency());
    if (hw > 1 && hw != 2 && hw != 4)
        counts.push_back(hw);
    return counts;
}

TEST(ParallelEquivalence, HierAllProtocolsAndShardCounts)
{
    auto trace = makeUniformRandomTrace(16, 800, 128, 0.3, 0.05, 17);
    for (auto protocol : {ProtocolKind::Rb, ProtocolKind::Rwb}) {
        hier::HierConfig config;
        config.num_clusters = 8;
        config.pes_per_cluster = 2;
        config.cache_lines = 64;
        config.protocol = protocol;
        Observed sequential = observeHier(config, trace, 1);
        for (int shards : shardCounts()) {
            expectIdentical(sequential,
                            observeHier(config, trace, shards),
                            std::string(toString(protocol)) + " shards " +
                                std::to_string(shards));
        }
    }
}

TEST(ParallelEquivalence, HierRandomArbiterKeepsRngStreams)
{
    // The hinge case: every bus (global and per-cluster) draws one RNG
    // value per Random grant, so shard scheduling must not reorder or
    // repartition any bus's draw sequence.
    auto trace = makeHotSpotTrace(8, 400, 8);
    hier::HierConfig config;
    config.num_clusters = 4;
    config.pes_per_cluster = 2;
    config.cache_lines = 64;
    config.arbiter = ArbiterKind::Random;
    config.arbiter_seed = 99;
    Observed sequential = observeHier(config, trace, 1);
    for (int shards : shardCounts()) {
        expectIdentical(sequential, observeHier(config, trace, shards),
                        "random arbiter shards " +
                            std::to_string(shards));
    }
}

// The three LookaheadOnVsOff tests keep the names they had when they
// also compared multi-cycle barrier windows with per-cycle barriers.
// Each now runs its configuration at every lane count against the
// 1-lane run.

TEST(ParallelEquivalence, LookaheadOnVsOffAllProtocols)
{
    // Both L1 protocols on a second random trace.
    auto trace = makeUniformRandomTrace(16, 600, 128, 0.3, 0.05, 19);
    for (auto protocol : {ProtocolKind::Rb, ProtocolKind::Rwb}) {
        hier::HierConfig config;
        config.num_clusters = 8;
        config.pes_per_cluster = 2;
        config.cache_lines = 64;
        config.protocol = protocol;
        Observed sequential = observeHier(config, trace, 1);
        for (int shards : shardCounts()) {
            expectIdentical(sequential,
                            observeHier(config, trace, shards),
                            std::string(toString(protocol)) + " shards " +
                                std::to_string(shards));
        }
    }
}

TEST(ParallelEquivalence, LookaheadOnVsOffRandomArbiter)
{
    // The Random arbiter on a uniform trace over 8 clusters: every
    // bus's draw sequence must survive any lane count.
    auto trace = makeUniformRandomTrace(16, 500, 64, 0.4, 0.1, 29);
    hier::HierConfig config;
    config.num_clusters = 8;
    config.pes_per_cluster = 2;
    config.cache_lines = 64;
    config.arbiter = ArbiterKind::Random;
    config.arbiter_seed = 7;
    Observed sequential = observeHier(config, trace, 1);
    for (int shards : shardCounts()) {
        expectIdentical(sequential, observeHier(config, trace, shards),
                        "random arbiter uniform shards " +
                            std::to_string(shards));
    }
}

TEST(ParallelEquivalence, LookaheadOnVsOffDirectoryGlobal)
{
    // Directory mode routes the cross-shard edge through the fabric's
    // armEvents generation counter; every arm must land exactly one
    // serial tick ahead of its routing pass at any lane count.
    auto trace = makeUniformRandomTrace(16, 500, 128, 0.3, 0.05, 43);
    for (auto protocol : {ProtocolKind::Rb, ProtocolKind::Rwb}) {
        hier::HierConfig config;
        config.num_clusters = 8;
        config.pes_per_cluster = 2;
        config.cache_lines = 64;
        config.protocol = protocol;
        config.global = hier::GlobalKind::Directory;
        config.home_nodes = 4;
        Observed sequential = observeHier(config, trace, 1);
        for (int shards : shardCounts()) {
            expectIdentical(sequential,
                            observeHier(config, trace, shards),
                            std::string(toString(protocol)) +
                                " directory shards " +
                                std::to_string(shards));
        }
    }
}

TEST(ParallelEquivalence, TimedOutRunReportsTheSameWallCycle)
{
    auto trace = makeHotSpotTrace(8, 400, 4);
    hier::HierConfig config;
    config.num_clusters = 4;
    config.pes_per_cluster = 2;
    config.cache_lines = 64;
    Observed sequential = observeHier(config, trace, 1, 200);
    EXPECT_EQ(sequential.status, RunStatus::TimedOut);
    EXPECT_EQ(sequential.cycles, 200u);
    for (int shards : shardCounts()) {
        expectIdentical(sequential,
                        observeHier(config, trace, shards, 200),
                        "timed out shards " + std::to_string(shards));
    }
}

TEST(ParallelEquivalence, RecordLogPinsToOneLaneIdentically)
{
    // record_log forces the run sequential; the log (and everything
    // else) must match a sharded config byte for byte.
    auto trace = makeUniformRandomTrace(8, 500, 64, 0.3, 0.05, 31);
    hier::HierConfig config;
    config.num_clusters = 4;
    config.pes_per_cluster = 2;
    config.cache_lines = 64;
    config.record_log = true;

    config.shards = 1;
    hier::HierSystem sequential(config);
    sequential.loadTrace(trace);
    sequential.run();
    config.shards = 4;
    hier::HierSystem pinned(config);
    pinned.loadTrace(trace);
    pinned.run();

    EXPECT_EQ(sequential.now(), pinned.now());
    EXPECT_EQ(sequential.counters().report(),
              pinned.counters().report());
    ASSERT_EQ(sequential.log().all().size(), pinned.log().all().size());
    for (std::size_t i = 0; i < sequential.log().all().size(); i++) {
        EXPECT_EQ(sequential.log().all()[i].cycle,
                  pinned.log().all()[i].cycle)
            << "log entry " << i;
    }
}

TEST(ParallelEquivalence, EngineShardsReachInternallyBuiltMachines)
{
    // --shards lands on EngineOptions::shards, which each point copies
    // into every machine config it builds.  It must reach machines
    // built inside library code (runLockExperiment's), and must never
    // perturb flat machines — multibus, Random arbiter, and lock
    // workloads included.
    EngineOptions engine;
    engine.shards = 4;

    auto trace = makeUniformRandomTrace(4, 800, 64, 0.4, 0.1, 23);
    SystemConfig flat;
    flat.num_pes = 4;
    flat.cache_lines = 64;
    flat.num_buses = 2;
    flat.arbiter = ArbiterKind::Random;
    flat.arbiter_seed = 7;
    flat.memory_latency = 8;

    auto observeFlat = [&](const SystemConfig &config) {
        System system(config);
        system.loadTrace(trace);
        Cycle cycles = system.run();
        return std::make_pair(cycles, system.counters().report());
    };

    auto baseline = observeFlat(flat);
    sync::LockExperimentConfig lock;
    lock.system.num_pes = 8;
    lock.system.memory_latency = 16;
    lock.lock = sync::LockKind::TestAndSet;
    lock.acquisitions_per_pe = 4;
    lock.cs_increments = 4;
    auto lock_baseline = sync::runLockExperiment(lock);

    flat.engine() = engine;
    auto sharded = observeFlat(flat);
    lock.system.engine() = engine;
    std::unique_ptr<System> lock_system;
    auto lock_sharded = sync::runLockExperiment(lock, &lock_system);
    EXPECT_EQ(lock_system->configuration().shards, 4);

    EXPECT_EQ(baseline.first, sharded.first);
    EXPECT_EQ(baseline.second, sharded.second);
    EXPECT_EQ(lock_baseline.cycles, lock_sharded.cycles);
    EXPECT_EQ(lock_baseline.counter_value, lock_sharded.counter_value);
    EXPECT_EQ(lock_baseline.bus_transactions,
              lock_sharded.bus_transactions);

    // A hierarchical machine runs its clusters on the engine's lanes.
    auto hier_trace = makeUniformRandomTrace(8, 400, 64, 0.3, 0.05, 41);
    hier::HierConfig hier_config;
    hier_config.engine() = engine;
    hier_config.num_clusters = 4;
    hier_config.pes_per_cluster = 2;
    hier_config.cache_lines = 64;
    hier::HierSystem via_engine(hier_config);
    EXPECT_EQ(via_engine.workerLanes(), 4);
    Observed sharded_hier;
    via_engine.loadTrace(hier_trace);
    sharded_hier.cycles = via_engine.run();
    sharded_hier.counters = via_engine.counters().report();

    Observed sequential = observeHier(hier_config, hier_trace, 1);
    EXPECT_EQ(sequential.cycles, sharded_hier.cycles);
    EXPECT_EQ(sequential.counters, sharded_hier.counters);
}

TEST(ParallelEquivalence, RunResultJsonIsIdenticalAcrossShards)
{
    // The CI-level check in miniature: the default (no --timing) JSON
    // payload of an experiment run must not move with the engine's
    // shard count.
    auto trace = makeHotSpotTrace(4, 400, 8);
    exp::TraceRun run;
    run.trace = trace;
    run.config.num_pes = 4;
    run.config.cache_lines = 64;
    run.config.memory_latency = 16;

    exp::RunResult baseline = exp::executeTraceRun(run);
    run.config.shards = 4;
    exp::RunResult sharded = exp::executeTraceRun(run);
    EXPECT_EQ(baseline.toJson(false).dump(), sharded.toJson(false).dump());
}

} // namespace
} // namespace ddc
