/** @file Unit tests for MemRef traces and their serialization. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

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

TEST(Trace, LoadRejectsHeaderAboveThePeCap)
{
    // The header's PE count sizes the stream table before any record
    // is read; a count above the cap must be refused up front.
    Trace trace;
    std::stringstream over("ddctrace 1 " +
                           std::to_string(Trace::kMaxPes + 1) + "\n");
    EXPECT_FALSE(trace.load(over));
    EXPECT_EQ(trace.numPes(), 0);

    std::stringstream at("ddctrace 1 " + std::to_string(Trace::kMaxPes) +
                         "\n0 R 1 0 S\n");
    ASSERT_TRUE(trace.load(at));
    EXPECT_EQ(trace.numPes(), Trace::kMaxPes);
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

TEST(Trace, MemRefKeepsTheOpFirstConstructorOrder)
{
    MemRef ref{CpuOp::TestAndSet, 0x40, 9, DataClass::Local};
    EXPECT_EQ(ref.op, CpuOp::TestAndSet);
    EXPECT_EQ(ref.addr, 0x40u);
    EXPECT_EQ(ref.data, 9u);
    EXPECT_EQ(ref.cls, DataClass::Local);
    EXPECT_EQ(MemRef{}, (MemRef{CpuOp::Read, 0, 0, DataClass::Shared}));
}

TEST(Trace, CopiesShareStreamsUntilOneAppends)
{
    Trace trace(2);
    trace.append(0, {CpuOp::Write, 1, 2, DataClass::Shared});
    Trace copy = trace;
    EXPECT_EQ(copy.sharedStream(0), trace.sharedStream(0));

    // Appending to a shared stream copies it first; the copy keeps
    // its one reference, and a held stream never changes.
    Trace::SharedStream held = trace.sharedStream(1);
    trace.append(0, {CpuOp::Read, 3, 0, DataClass::Code});
    trace.append(1, {CpuOp::Read, 4, 0, DataClass::Code});
    EXPECT_NE(copy.sharedStream(0), trace.sharedStream(0));
    EXPECT_EQ(copy.stream(0).size(), 1u);
    EXPECT_EQ(trace.stream(0).size(), 2u);
    EXPECT_TRUE(held->empty());
    EXPECT_EQ(trace.stream(1).size(), 1u);
}

TEST(Trace, EqualityComparesContentsNotBuffers)
{
    Trace a(2);
    Trace b(2);
    a.append(1, {CpuOp::Write, 5, 6, DataClass::Local});
    b.append(1, {CpuOp::Write, 5, 6, DataClass::Local});
    EXPECT_NE(a.sharedStream(1), b.sharedStream(1));
    EXPECT_EQ(a, b);
    b.append(0, {CpuOp::Read, 5, 0, DataClass::Local});
    EXPECT_FALSE(a == b);
    EXPECT_FALSE(a == Trace(3));
}

/** Load @p text; on failure return "line N: reason", else "ok". */
std::string
loadResult(const std::string &text, Trace *out = nullptr)
{
    std::istringstream input(text);
    Trace trace;
    bool loaded = trace.load(input);
    if (out != nullptr)
        *out = trace;
    if (loaded)
        return "ok";
    EXPECT_EQ(trace.numPes(), 0) << text;
    return "line " + std::to_string(trace.loadError().line) + ": " +
           trace.loadError().reason;
}

TEST(Trace, LoadErrorNamesLineOneForABadHeader)
{
    EXPECT_EQ(loadResult("ddctrace 2 1\n0 R 1 0 S\n"),
              "line 1: unsupported version 2 (want 1)");
    EXPECT_EQ(loadResult("trace 1 1\n"),
              "line 1: expected the header \"ddctrace 1 <pes>\"");
    EXPECT_EQ(loadResult(""),
              "line 1: expected the header \"ddctrace 1 <pes>\"");
    EXPECT_EQ(loadResult("ddctrace 1 8193\n"),
              "line 1: header PE count 8193 above the limit of 8192");
}

TEST(Trace, LoadErrorNamesTheBadMiddleLine)
{
    EXPECT_EQ(loadResult("ddctrace 1 2\n0 R 1 0 S\n1 Q 2 0 S\n"
                         "0 R 3 0 S\n"),
              "line 3: unknown op 'Q'");
    EXPECT_EQ(loadResult("ddctrace 1 2\n0 R 1 0 S\n\n\n2 R 2 0 S\n"),
              "line 5: PE id 2 out of range for 2 PEs");
    EXPECT_EQ(loadResult("ddctrace 1 1\n0 R 1 0 S\ngarbage\n"),
              "line 3: expected PE id");
    EXPECT_EQ(loadResult("ddctrace 1 1\n0 R 1 0 S extra\n"),
              "line 2: expected PE id");
}

TEST(Trace, LoadErrorNamesATruncatedLastRecord)
{
    EXPECT_EQ(loadResult("ddctrace 1 1\n0 R 1 0 S\n0 R 2\n"),
              "line 3: truncated record: no data word");
    EXPECT_EQ(loadResult("ddctrace 1 1\n0 R 1 0 S\n0 R 2 0"),
              "line 3: truncated record: no class");
    EXPECT_EQ(loadResult("ddctrace 1 1\n0 R 1 0 S\n0"),
              "line 3: truncated record: no op");
}

TEST(Trace, LoadErrorNamesADataWordAboveTheLimit)
{
    std::ostringstream text;
    text << "ddctrace 1 1\n0 W 1 5 S\n0 W 1 " << kReservedInvalidateValue
         << " S\n";
    EXPECT_EQ(loadResult(text.str()),
              "line 3: data word " +
                  std::to_string(kReservedInvalidateValue) +
                  " above the largest data value " +
                  std::to_string(kMaxDataValue));
}

TEST(Trace, LoadRejectsSignedFields)
{
    // Numbers are unsigned decimals: a sign used to load "-5" as the
    // address 2^64 - 5 and "+1" or "-0" as PE ids.
    const char *reason = "has a sign; numbers are unsigned decimals";
    EXPECT_EQ(loadResult("ddctrace 1 1\n0 R -5 0 S\n"),
              std::string("line 2: address ") + reason);
    EXPECT_EQ(loadResult("ddctrace 1 2\n+1 R 5 0 S\n"),
              std::string("line 2: PE id ") + reason);
    EXPECT_EQ(loadResult("ddctrace 1 2\n-0 R 5 0 S\n"),
              std::string("line 2: PE id ") + reason);
    EXPECT_EQ(loadResult("ddctrace 1 1\n0 W 5 +3 S\n"),
              std::string("line 2: data word ") + reason);
    EXPECT_EQ(loadResult("ddctrace +1 1\n"),
              std::string("line 1: header version ") + reason);
    EXPECT_EQ(loadResult("ddctrace 1 -0\n"),
              std::string("line 1: header PE count ") + reason);
}

TEST(Trace, LoadReadsFullWidthNumbersAndRejectsOverflow)
{
    Trace trace;
    ASSERT_EQ(loadResult("ddctrace 1 1\n0 R 18446744073709551615 0 S\n"
                         "0 R 000000000000000000000000042 7 C\n",
                         &trace),
              "ok");
    EXPECT_EQ(trace.stream(0)[0].addr, ~Addr{0});
    EXPECT_EQ(trace.stream(0)[1].addr, 42u);
    EXPECT_EQ(loadResult("ddctrace 1 1\n0 R 18446744073709551616 0 S\n"),
              "line 2: address does not fit in 64 bits");
}

TEST(Trace, LoadLetsALetterTouchTheNumbersBesideIt)
{
    // Blank space delimits numbers from each other; a letter already
    // ends the number before it and starts no number after it.
    Trace trace;
    ASSERT_EQ(loadResult("ddctrace 1 2\n0R1 0S1 W2 3P\n", &trace), "ok");
    EXPECT_EQ(trace.stream(0)[0],
              (MemRef{CpuOp::Read, 1, 0, DataClass::Shared}));
    EXPECT_EQ(trace.stream(1)[0],
              (MemRef{CpuOp::Write, 2, 3, DataClass::Local}));
}

TEST(Trace, LoadAcceptsCrlfAndCountsItsLines)
{
    Trace trace;
    ASSERT_EQ(loadResult("ddctrace 1 2\r\n0 R 1 0 S\r\n1 W 2 3 P\r\n",
                         &trace),
              "ok");
    EXPECT_EQ(trace.stream(1)[0], (MemRef{CpuOp::Write, 2, 3,
                                          DataClass::Local}));
    EXPECT_EQ(loadResult("ddctrace 1 2\r\n0 R 1 0 S\r\n1 W 2 3 X\r\n"),
              "line 3: unknown class 'X'");
}

/** Bytes Trace::load reads per block. */
constexpr std::size_t kBlock = 64 * 1024;

TEST(Trace, LoadResumesARecordCutByTheBlockBoundary)
{
    // Slide one record across the boundary so the block ends at each
    // of its bytes in turn, and at each byte of the blank before it.
    const std::string header = "ddctrace 1 2\n0 R 1 0 S\n";
    const std::string record = "1 W 123456789 987654321 P";
    for (std::size_t cut = 0; cut <= record.size() + 2; cut++) {
        std::string text = header;
        text.append(kBlock - text.size() - record.size() - 2 + cut, ' ');
        text += "\n" + record + "\n0 T 5 1 S\n";
        Trace trace;
        ASSERT_EQ(loadResult(text, &trace), "ok") << "cut " << cut;
        ASSERT_EQ(trace.stream(1).size(), 1u);
        EXPECT_EQ(trace.stream(1)[0],
                  (MemRef{CpuOp::Write, 123456789, 987654321,
                          DataClass::Local}));
        EXPECT_EQ(trace.stream(0).size(), 2u);
    }
}

TEST(Trace, LoadSkipsBlankRunsLongerThanABlock)
{
    std::string text = "ddctrace 1 1\n0 R 1 0 S\n";
    text.append(kBlock + 100, ' ');
    text.append(kBlock / 2, '\n');
    text += "0 W 2 3 P\n";
    Trace trace;
    ASSERT_EQ(loadResult(text, &trace), "ok");
    EXPECT_EQ(trace.totalRefs(), 2u);

    // Inside a record too, and the line count carries across blocks.
    std::string inside = "ddctrace 1 1\n0";
    inside.append(2 * kBlock, '\t');
    inside += "R " + std::string(kBlock, '0') + "7 0 S\n";
    inside.append(kBlock, '\n');
    inside += "0 R 1 0 Z\n";
    EXPECT_EQ(loadResult(inside),
              "line " + std::to_string(kBlock + 3) +
                  ": unknown class 'Z'");
}

} // namespace
} // namespace ddc
