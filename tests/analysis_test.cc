/**
 * @file
 * Tests of the lock-behaviour analysis (sync/analysis.hh) and the
 * memory-latency knob.
 */

#include <gtest/gtest.h>

#include "sync/analysis.hh"
#include "sync/workload.hh"
#include "trace/synthetic.hh"

namespace ddc {
namespace sync {
namespace {

LogEntry
tsEntry(PeId pe, Addr addr, Cycle cycle, bool success)
{
    LogEntry entry;
    entry.pe = pe;
    entry.addr = addr;
    entry.cycle = cycle;
    entry.op = CpuOp::TestAndSet;
    entry.ts_success = success;
    entry.value = success ? 0 : 1;
    entry.stored = 1;
    return entry;
}

LogEntry
writeEntry(PeId pe, Addr addr, Cycle cycle, Word value)
{
    LogEntry entry;
    entry.pe = pe;
    entry.addr = addr;
    entry.cycle = cycle;
    entry.op = CpuOp::Write;
    entry.value = value;
    return entry;
}

TEST(LockAnalysis, CountsAcquisitionsAndFailures)
{
    ExecutionLog log;
    log.append(tsEntry(0, 5, 10, true));
    log.append(tsEntry(1, 5, 12, false));
    log.append(tsEntry(1, 5, 14, false));
    log.append(writeEntry(0, 5, 20, 0));   // release
    log.append(tsEntry(1, 5, 24, true));
    log.append(writeEntry(1, 5, 30, 0));

    auto analysis = analyzeLock(log, 5, 2);
    EXPECT_EQ(analysis.acquisitions, 2u);
    EXPECT_EQ(analysis.failed_attempts, 2u);
    EXPECT_EQ(analysis.per_pe[0], 1u);
    EXPECT_EQ(analysis.per_pe[1], 1u);
}

TEST(LockAnalysis, HoldAndHandoffCycles)
{
    ExecutionLog log;
    log.append(tsEntry(0, 5, 10, true));
    log.append(writeEntry(0, 5, 25, 0));  // held 15 cycles
    log.append(tsEntry(1, 5, 31, true));  // handoff 6 cycles
    log.append(writeEntry(1, 5, 40, 0));  // held 9 cycles

    auto analysis = analyzeLock(log, 5, 2);
    EXPECT_EQ(analysis.hold_cycles.count(), 2u);
    EXPECT_EQ(analysis.hold_cycles.sum(), 24u);
    EXPECT_EQ(analysis.handoff_cycles.count(), 1u);
    EXPECT_EQ(analysis.handoff_cycles.sum(), 6u);
}

TEST(LockAnalysis, IgnoresOtherAddressesAndNonZeroWrites)
{
    ExecutionLog log;
    log.append(tsEntry(0, 5, 10, true));
    log.append(writeEntry(0, 9, 12, 0));  // other address
    log.append(writeEntry(1, 5, 14, 7));  // not a release (non-zero)
    log.append(writeEntry(0, 5, 16, 7));  // holder writes non-zero: no
    log.append(writeEntry(0, 5, 18, 0));  // the actual release
    auto analysis = analyzeLock(log, 5, 2);
    EXPECT_EQ(analysis.hold_cycles.count(), 1u);
    EXPECT_EQ(analysis.hold_cycles.sum(), 8u);
}

TEST(LockAnalysis, FairnessIndexExtremes)
{
    LockAnalysis fair;
    fair.per_pe = {5, 5, 5, 5};
    EXPECT_NEAR(fair.fairnessIndex(), 1.0, 1e-9);

    LockAnalysis unfair;
    unfair.per_pe = {20, 0, 0, 0};
    EXPECT_NEAR(unfair.fairnessIndex(), 0.25, 1e-9);

    LockAnalysis empty;
    empty.per_pe = {0, 0};
    EXPECT_NEAR(empty.fairnessIndex(), 1.0, 1e-9);
}

TEST(LockAnalysis, EndToEndFromLockExperiment)
{
    LockExperimentConfig config;
    config.system.num_pes = 4;
    config.lock = LockKind::TestAndTestAndSet;
    config.system.protocol = ProtocolKind::Rb;
    config.acquisitions_per_pe = 6;
    config.cs_increments = 3;
    config.system.record_log = true;

    std::unique_ptr<System> system;
    auto result = runLockExperiment(config, &system);
    ASSERT_TRUE(result.completed);

    auto analysis = analyzeLock(system->log(), lockAddr(), 4);
    EXPECT_EQ(analysis.acquisitions, 24u); // 4 PEs x 6
    for (auto count : analysis.per_pe)
        EXPECT_EQ(count, 6u);
    EXPECT_NEAR(analysis.fairnessIndex(), 1.0, 1e-9);
    EXPECT_EQ(analysis.hold_cycles.count(), 24u);
    EXPECT_GT(analysis.hold_cycles.mean(), 0.0);
}

TEST(MemoryLatency, StretchesRuntimeWithoutBreakingConsistency)
{
    auto trace = makeUniformRandomTrace(4, 400, 16, 0.4, 0.1, 55);
    Cycle base_cycles = 0;
    for (std::size_t latency : {0u, 3u}) {
        SystemConfig config;
        config.num_pes = 4;
        config.cache_lines = 64;
        config.memory_latency = latency;
        config.protocol = ProtocolKind::Rb;
        config.record_log = true;

        System system(config);
        system.loadTrace(trace);
        system.run();
        ASSERT_TRUE(system.allDone());
        if (latency == 0) {
            base_cycles = system.now();
        } else {
            EXPECT_GT(system.now(), base_cycles * 2);
            EXPECT_GT(system.counters().get("bus.transfer_cycles"), 0u);
        }
    }
}

TEST(MemoryLatency, HitsAreUnaffected)
{
    SystemConfig config;
    config.num_pes = 1;
    config.cache_lines = 16;
    config.memory_latency = 10;
    config.protocol = ProtocolKind::Rb;

    Trace trace(1);
    trace.append(0, {CpuOp::Write, 3, 1, DataClass::Shared});
    for (int i = 0; i < 50; i++)
        trace.append(0, {CpuOp::Read, 3, 0, DataClass::Shared});

    System system(config);
    system.loadTrace(trace);
    system.run();
    ASSERT_TRUE(system.allDone());
    // One slow write-through + 50 one-cycle hits: well under the cost
    // of 51 slow transactions.
    EXPECT_LT(system.now(), 80u);
}

} // namespace
} // namespace sync
} // namespace ddc
