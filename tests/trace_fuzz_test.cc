/**
 * @file
 * Seeded, bounded mutation fuzzing of Trace::load.
 *
 * Each mutant of a few valid trace files must either be rejected with
 * a line number or load and reload identically through save().  The
 * oracle is the formatted-extraction (`>>`) loader the block parser
 * replaced, kept here as it was: on every mutant without a sign
 * character the two must agree on accepting or rejecting, and on the
 * references when both accept.  (The `>>` loader accepted signed
 * numbers, which the block parser rejects by design.)
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "trace/rng.hh"
#include "trace/synthetic.hh"
#include "trace/trace.hh"

namespace ddc {
namespace {

using Streams = std::vector<std::vector<MemRef>>;

bool
oracleOp(char c, CpuOp &op)
{
    switch (c) {
      case 'R': op = CpuOp::Read; return true;
      case 'W': op = CpuOp::Write; return true;
      case 'T': op = CpuOp::TestAndSet; return true;
      case 'L': op = CpuOp::ReadLock; return true;
      case 'U': op = CpuOp::WriteUnlock; return true;
      default: return false;
    }
}

bool
oracleClass(char c, DataClass &cls)
{
    switch (c) {
      case 'C': cls = DataClass::Code; return true;
      case 'P': cls = DataClass::Local; return true;
      case 'S': cls = DataClass::Shared; return true;
      default: return false;
    }
}

/** The `>>` loader, as Trace::load read files before the block parser. */
bool
oracleLoad(std::istream &is, Streams &streams)
{
    streams.clear();

    std::string magic;
    int version = 0;
    int num_pes = 0;
    if (!(is >> magic >> version >> num_pes))
        return false;
    if (magic != "ddctrace" || version != 1 || num_pes < 0 ||
        num_pes > Trace::kMaxPes)
        return false;

    streams.resize(static_cast<std::size_t>(num_pes));
    int pe = 0;
    char op_char = 0;
    char cls_char = 0;
    Addr addr = 0;
    Word data = 0;
    std::streambuf &buf = *is.rdbuf();
    for (;;) {
        auto next = buf.sgetc();
        while (next == ' ' || next == '\n' || next == '\t' ||
               next == '\r')
            next = buf.snextc();
        if (next == std::char_traits<char>::eof())
            break;
        MemRef ref;
        if (!(is >> pe >> op_char >> addr >> data >> cls_char) ||
            pe < 0 || pe >= num_pes || !oracleOp(op_char, ref.op) ||
            !oracleClass(cls_char, ref.cls) || data > kMaxDataValue) {
            streams.clear();
            return false;
        }
        ref.addr = addr;
        ref.data = data;
        streams[static_cast<std::size_t>(pe)].push_back(ref);
    }
    return true;
}

Streams
streamsOf(const Trace &trace)
{
    Streams streams;
    for (PeId pe = 0; pe < trace.numPes(); pe++)
        streams.push_back(trace.stream(pe));
    return streams;
}

/** A streambuf that hands out at most @p chunk bytes per read. */
class TrickleBuf : public std::stringbuf
{
  public:
    TrickleBuf(const std::string &text, std::streamsize chunk)
        : std::stringbuf(text, std::ios::in), chunk(chunk)
    {}

  protected:
    std::streamsize
    xsgetn(char *s, std::streamsize n) override
    {
        return std::stringbuf::xsgetn(s, std::min(n, chunk));
    }

  private:
    std::streamsize chunk;
};

/** Valid files to mutate: saved traces and hand-spaced ones. */
std::vector<std::string>
corpus()
{
    std::vector<std::string> files;
    for (std::uint64_t seed : {1, 2}) {
        std::ostringstream os;
        makeUniformRandomTrace(3, 6, 64, 0.3, 0.1, seed).save(os);
        files.push_back(os.str());
    }
    std::ostringstream cmstar;
    makeCmStarTrace(cmStarApplicationA(), 2, 8, 3).save(cmstar);
    files.push_back(cmstar.str());
    files.push_back("ddctrace 1 2\n0 R 1 0 S\n1 W 2 4294967296 P\n"
                    "0 T 18446744073709551615 1 C\n1 L 7 0 S\n1 U 7 3 S");
    files.push_back("  ddctrace\t01 \r\n2\n\n0\tR 0010\t0 S 1 W 3 5 P\r\n"
                    "\t\t1 U 0 0 C  \n\n");
    return files;
}

/** Apply one random mutation to @p text. */
void
mutate(std::string &text, Rng &rng)
{
    static const std::string kBlanks = " \t\n\r\v\f";
    static const std::string kLetters = "RWTLUCPSQZddctrace";
    auto at = [&](bool end_ok) {
        return static_cast<std::size_t>(
            rng.nextBelow(text.size() + (end_ok ? 1 : 0)));
    };
    switch (rng.nextBelow(text.empty() ? 1 : 7)) {
      case 0: // insert digits
        text.insert(at(true), std::string(1 + rng.nextBelow(3),
                                          static_cast<char>(
                                              '0' + rng.nextBelow(10))));
        break;
      case 1: // insert blank space
        text.insert(at(true), 1, kBlanks[rng.nextBelow(kBlanks.size())]);
        break;
      case 2: // insert a sign
        text.insert(at(true), 1, rng.chance(0.5) ? '+' : '-');
        break;
      case 3: // truncate
        text.resize(at(true));
        break;
      case 4: // flip one byte to any value
        text[at(false)] = static_cast<char>(rng.nextBelow(256));
        break;
      case 5: // overwrite one byte with a letter the grammar uses
        text[at(false)] = kLetters[rng.nextBelow(kLetters.size())];
        break;
      case 6: // delete one byte
        text.erase(at(false), 1);
        break;
    }
}

TEST(TraceFuzz, LoadResumesAfterShortReads)
{
    // Short reads end a block anywhere, so every field and every
    // blank run in this text is cut at every byte for chunk 1.
    const std::string text = "ddctrace 1 3\r\n2 W 77 12 P\n0\tR 1 0 S\n"
                             "\n1 T 000123 1 C 0 L 9 0 S\n";
    std::istringstream whole_input(text);
    Trace whole;
    ASSERT_TRUE(whole.load(whole_input));
    for (std::streamsize chunk : {1, 2, 3, 7}) {
        TrickleBuf buf(text, chunk);
        std::istream input(&buf);
        Trace trace;
        ASSERT_TRUE(trace.load(input)) << chunk;
        EXPECT_EQ(trace, whole) << chunk;
    }
}

TEST(TraceFuzz, MutantsAreRejectedWithALineOrRoundTrip)
{
    const int kMutantsPerFile = 3000;
    Rng rng(20240601);
    std::size_t accepted = 0;
    std::size_t rejected = 0;
    for (const std::string &file : corpus()) {
        for (int i = 0; i < kMutantsPerFile; i++) {
            std::string text = file;
            for (std::uint64_t m = 1 + rng.nextBelow(3); m > 0; m--)
                mutate(text, rng);
            SCOPED_TRACE(::testing::Message() << "mutant:\n" << text);

            std::istringstream input(text);
            Trace trace;
            bool loaded = trace.load(input);
            bool has_sign =
                text.find_first_of("+-") != std::string::npos;
            if (loaded) {
                accepted++;
                EXPECT_FALSE(has_sign);
                EXPECT_EQ(trace.loadError().line, 0u);
                std::stringstream saved;
                trace.save(saved);
                Trace reloaded;
                ASSERT_TRUE(reloaded.load(saved));
                EXPECT_EQ(reloaded, trace);
            } else {
                rejected++;
                auto lines = static_cast<std::size_t>(
                    std::count(text.begin(), text.end(), '\n'));
                EXPECT_GE(trace.loadError().line, 1u);
                EXPECT_LE(trace.loadError().line, lines + 1);
                EXPECT_FALSE(trace.loadError().reason.empty());
                EXPECT_EQ(trace.numPes(), 0);
            }

            // Short reads cut the mutant at other places; the outcome
            // must not depend on where the blocks end.
            TrickleBuf trickle(text, static_cast<std::streamsize>(
                                         1 + rng.nextBelow(7)));
            std::istream trickle_input(&trickle);
            Trace trickled;
            ASSERT_EQ(trickled.load(trickle_input), loaded);
            EXPECT_EQ(trickled, trace);
            EXPECT_EQ(trickled.loadError().line, trace.loadError().line);
            EXPECT_EQ(trickled.loadError().reason,
                      trace.loadError().reason);

            if (has_sign)
                continue;
            std::istringstream oracle_input(text);
            Streams expected;
            ASSERT_EQ(oracleLoad(oracle_input, expected), loaded);
            if (loaded) {
                EXPECT_EQ(streamsOf(trace), expected);
            }
        }
    }
    // The mutations must exercise both outcomes, not only one.
    EXPECT_GT(accepted, 1000u);
    EXPECT_GT(rejected, 1000u);
}

} // namespace
} // namespace ddc
