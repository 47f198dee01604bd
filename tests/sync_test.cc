/**
 * @file
 * Tests of the synchronization layer: TS and TTS lock programs achieve
 * mutual exclusion on every protocol, TTS generates less bus traffic
 * than TS under contention, and the barrier synchronizes correctly.
 */

#include <gtest/gtest.h>

#include "sync/workload.hh"
#include "verify/consistency.hh"

namespace ddc {
namespace sync {
namespace {

class LockCorrectness
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, LockKind>>
{
};

TEST_P(LockCorrectness, MutualExclusionHolds)
{
    auto [protocol, lock] = GetParam();
    LockExperimentConfig config;
    config.system.num_pes = 4;
    config.system.protocol = protocol;
    config.lock = lock;
    config.acquisitions_per_pe = 6;
    config.cs_increments = 3;
    config.system.record_log = true;

    std::unique_ptr<System> system;
    auto result = runLockExperiment(config, &system);
    ASSERT_TRUE(result.completed)
        << toString(protocol) << "/" << toString(lock);
    EXPECT_EQ(result.counter_value, result.expected_counter)
        << "lost updates => mutual exclusion broken under "
        << toString(protocol) << "/" << toString(lock);

    auto report = checkSerialConsistency(system->log());
    EXPECT_TRUE(report.consistent) << report.first_error;
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsAndLocks, LockCorrectness,
    ::testing::Combine(::testing::Values(ProtocolKind::Rb,
                                         ProtocolKind::Rwb,
                                         ProtocolKind::WriteOnce,
                                         ProtocolKind::WriteThrough,
                                         ProtocolKind::CmStar),
                       ::testing::Values(LockKind::TestAndSet,
                                         LockKind::TestAndTestAndSet)),
    [](const auto &info) {
        return std::string(toString(std::get<0>(info.param))) + "_" +
               std::string(toString(std::get<1>(info.param)));
    });

TEST(LockTraffic, TtsBeatsTsUnderContention)
{
    for (auto protocol : {ProtocolKind::Rb, ProtocolKind::Rwb}) {
        LockExperimentConfig config;
        config.system.num_pes = 8;
        config.system.protocol = protocol;
        config.acquisitions_per_pe = 4;
        config.cs_increments = 16; // long critical sections: real spins

        config.lock = LockKind::TestAndSet;
        auto ts = runLockExperiment(config);
        config.lock = LockKind::TestAndTestAndSet;
        auto tts = runLockExperiment(config);

        ASSERT_TRUE(ts.completed);
        ASSERT_TRUE(tts.completed);
        EXPECT_LT(tts.bus_transactions, ts.bus_transactions)
            << toString(protocol);
        EXPECT_LT(tts.rmw_failures, ts.rmw_failures) << toString(protocol);
    }
}

TEST(LockTraffic, SingleThreadedLockIsCheap)
{
    LockExperimentConfig config;
    config.system.num_pes = 1;
    config.acquisitions_per_pe = 10;
    config.cs_increments = 1;
    auto result = runLockExperiment(config);
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(result.counter_value, result.expected_counter);
    EXPECT_EQ(result.rmw_failures, 0u);
}

TEST(LockTraffic, ResultFieldsPlausible)
{
    LockExperimentConfig config;
    config.system.num_pes = 2;
    config.acquisitions_per_pe = 3;
    auto result = runLockExperiment(config);
    ASSERT_TRUE(result.completed);
    EXPECT_GT(result.cycles, 0u);
    EXPECT_GT(result.bus_transactions, 0u);
    EXPECT_GE(result.rmw_attempts,
              static_cast<std::uint64_t>(2 * 3)); // >= one per acquisition
    EXPECT_GT(result.bus_per_acquisition, 0.0);
}

TEST(LockTraffic, LocalWorkRunsBetweenAcquisitions)
{
    LockExperimentConfig config;
    config.system.num_pes = 2;
    config.acquisitions_per_pe = 2;
    config.local_work = 8;
    auto result = runLockExperiment(config);
    ASSERT_TRUE(result.completed);
    EXPECT_EQ(result.counter_value, result.expected_counter);
}

class BarrierCorrectness : public ::testing::TestWithParam<ProtocolKind>
{
};

TEST_P(BarrierCorrectness, AllPesCompleteEveryEpisode)
{
    for (int num_pes : {2, 4}) {
        Cycle cycles = runBarrierExperiment(num_pes, 5, GetParam());
        EXPECT_GT(cycles, 0u)
            << "barrier deadlocked: " << num_pes << " PEs under "
            << toString(GetParam());
    }
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, BarrierCorrectness,
                         ::testing::Values(ProtocolKind::Rb,
                                           ProtocolKind::Rwb,
                                           ProtocolKind::WriteOnce,
                                           ProtocolKind::WriteThrough),
                         [](const auto &info) {
                             return std::string(toString(info.param));
                         });

TEST(LockKindNames, Printable)
{
    EXPECT_EQ(toString(LockKind::TestAndSet), "TS");
    EXPECT_EQ(toString(LockKind::TestAndTestAndSet), "TTS");
}

} // namespace
} // namespace sync
} // namespace ddc
