/** @file Unit tests for MemRef traces and their serialization. */

#include <gtest/gtest.h>

#include <sstream>

#include "trace/trace.hh"

namespace ddc {
namespace {

TEST(Trace, EmptyTrace)
{
    Trace trace(3);
    EXPECT_EQ(trace.numPes(), 3);
    EXPECT_EQ(trace.totalRefs(), 0u);
    EXPECT_TRUE(trace.stream(0).empty());
}

TEST(Trace, AppendAndRead)
{
    Trace trace(2);
    MemRef ref{CpuOp::Write, 0x10, 7, DataClass::Shared};
    trace.append(1, ref);
    EXPECT_EQ(trace.totalRefs(), 1u);
    ASSERT_EQ(trace.stream(1).size(), 1u);
    EXPECT_EQ(trace.stream(1)[0], ref);
    EXPECT_TRUE(trace.stream(0).empty());
}

TEST(Trace, RoundTripAllOpsAndClasses)
{
    Trace trace(2);
    trace.append(0, {CpuOp::Read, 1, 0, DataClass::Code});
    trace.append(0, {CpuOp::Write, 2, 5, DataClass::Local});
    trace.append(1, {CpuOp::TestAndSet, 3, 1, DataClass::Shared});
    trace.append(1, {CpuOp::ReadLock, 4, 0, DataClass::Shared});
    trace.append(1, {CpuOp::WriteUnlock, 4, 9, DataClass::Shared});

    std::stringstream buffer;
    trace.save(buffer);

    Trace loaded;
    ASSERT_TRUE(loaded.load(buffer));
    EXPECT_EQ(loaded, trace);
}

TEST(Trace, LoadRejectsBadMagic)
{
    std::stringstream buffer("wrongmagic 1 2\n");
    Trace trace;
    EXPECT_FALSE(trace.load(buffer));
}

TEST(Trace, LoadRejectsBadVersion)
{
    std::stringstream buffer("ddctrace 9 2\n");
    Trace trace;
    EXPECT_FALSE(trace.load(buffer));
}

TEST(Trace, LoadRejectsOutOfRangePe)
{
    std::stringstream buffer("ddctrace 1 2\n5 R 1 0 S\n");
    Trace trace;
    EXPECT_FALSE(trace.load(buffer));
    EXPECT_EQ(trace.numPes(), 0);
}

TEST(Trace, LoadRejectsUnknownOp)
{
    std::stringstream buffer("ddctrace 1 1\n0 Q 1 0 S\n");
    Trace trace;
    EXPECT_FALSE(trace.load(buffer));
}

TEST(Trace, LoadRejectsUnknownClass)
{
    std::stringstream buffer("ddctrace 1 1\n0 R 1 0 Z\n");
    Trace trace;
    EXPECT_FALSE(trace.load(buffer));
}

TEST(Trace, LoadRejectsMalformedMiddleLine)
{
    // A garbage record between good ones used to end the parse early
    // and still report success, replaying a truncated trace.
    std::stringstream buffer("ddctrace 1 1\n0 R 1 0 S\ngarbage\n"
                             "0 R 2 0 S\n");
    Trace trace;
    EXPECT_FALSE(trace.load(buffer));
    EXPECT_EQ(trace.numPes(), 0);
}

TEST(Trace, LoadRejectsTruncatedAndTrailingRecords)
{
    for (const char *text : {"ddctrace 1 1\n0 R 1 0 S\n0 R 2\n",
                             "ddctrace 1 1\n0 R 1 0 S extra\n",
                             "ddctrace 1 1\n0 R 1 0 S\n0 R 2 x S\n"}) {
        std::stringstream buffer(text);
        Trace trace;
        EXPECT_FALSE(trace.load(buffer)) << text;
        EXPECT_EQ(trace.numPes(), 0) << text;
    }
}

TEST(Trace, LoadAcceptsCleanEofWithOrWithoutNewline)
{
    for (const char *text : {"ddctrace 1 1\n0 R 1 0 S\n0 W 2 7 P",
                             "ddctrace 1 1\n0 R 1 0 S\n0 W 2 7 P\n\n"}) {
        std::stringstream buffer(text);
        Trace trace;
        ASSERT_TRUE(trace.load(buffer)) << text;
        EXPECT_EQ(trace.totalRefs(), 2u) << text;
    }
}

TEST(Trace, LoadRejectsReservedDataWord)
{
    // The all-ones word is the RWB invalidate encoding; loading it
    // used to succeed and panic later, on the first memory write.
    std::stringstream reserved;
    reserved << "ddctrace 1 1\n0 W 1 " << kReservedInvalidateValue
             << " S\n";
    Trace trace;
    EXPECT_FALSE(trace.load(reserved));
    EXPECT_EQ(trace.numPes(), 0);

    std::stringstream largest;
    largest << "ddctrace 1 1\n0 W 1 " << kMaxDataValue << " S\n";
    ASSERT_TRUE(trace.load(largest));
    EXPECT_EQ(trace.stream(0)[0].data, kMaxDataValue);
}

TEST(Trace, ToStringMentionsOpAndClass)
{
    MemRef ref{CpuOp::Read, 0xab, 0, DataClass::Local};
    auto text = toString(ref);
    EXPECT_NE(text.find("R"), std::string::npos);
    EXPECT_NE(text.find("ab"), std::string::npos);
    EXPECT_NE(text.find("Local"), std::string::npos);
}

TEST(Trace, LargeAddressesSurviveRoundTrip)
{
    Trace trace(1);
    trace.append(0, {CpuOp::Write, Addr{1} << 40, 123, DataClass::Shared});
    std::stringstream buffer;
    trace.save(buffer);
    Trace loaded;
    ASSERT_TRUE(loaded.load(buffer));
    EXPECT_EQ(loaded.stream(0)[0].addr, Addr{1} << 40);
}

} // namespace
} // namespace ddc
