#include "trace/trace.hh"

#include <atomic>
#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>

#include "base/logging.hh"

namespace ddc {

namespace {

char
opCode(CpuOp op)
{
    switch (op) {
      case CpuOp::Read:        return 'R';
      case CpuOp::Write:       return 'W';
      case CpuOp::TestAndSet:  return 'T';
      case CpuOp::ReadLock:    return 'L';
      case CpuOp::WriteUnlock: return 'U';
    }
    return '?';
}

bool
parseOp(char c, CpuOp &op)
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

char
classCode(DataClass cls)
{
    switch (cls) {
      case DataClass::Code:   return 'C';
      case DataClass::Local:  return 'P';
      case DataClass::Shared: return 'S';
    }
    return '?';
}

bool
parseClass(char c, DataClass &cls)
{
    switch (c) {
      case 'C': cls = DataClass::Code; return true;
      case 'P': cls = DataClass::Local; return true;
      case 'S': cls = DataClass::Shared; return true;
      default: return false;
    }
}

/** Bytes load() reads from its streambuf per refill. */
constexpr std::size_t kBlockBytes = 64 * 1024;

bool
isDigit(int c)
{
    return c >= '0' && c <= '9';
}

/** Blank space between fields: the six C-locale isspace bytes. */
bool
isBlank(int c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/**
 * Reads a streambuf in fixed kBlockBytes blocks, never the whole
 * input at once.  The byte after the last valid one is a NUL
 * sentinel, so the scanning loops test for the end of the block only
 * where they stop, not at every byte.  A field that a block boundary
 * cuts in two resumes on the next block: the partial record is
 * carried over as parser state, not as bytes.
 */
class BlockReader
{
  public:
    explicit BlockReader(std::streambuf &buf)
        : buf(buf),
          block(std::make_unique_for_overwrite<char[]>(kBlockBytes + 1))
    {
        pos = end = block.get();
        *end = '\0';
    }

    /** The next byte (0..255), or -1 at EOF. */
    int
    peek()
    {
        if (pos == end && !refill())
            return -1;
        return static_cast<unsigned char>(*pos);
    }

    /** Consume the byte peek() returned. */
    void advance() { ++pos; }

    /**
     * Skip blank space, counting lines.
     * @return whether a vertical tab or form feed was among it.
     */
    bool
    skipBlank()
    {
        bool vt_or_ff = false;
        for (;;) {
            for (;; ++pos) {
                char c = *pos;
                if (c == '\n')
                    line++;
                else if (c == '\v' || c == '\f')
                    vt_or_ff = true;
                else if (c != ' ' && c != '\t' && c != '\r')
                    break;
            }
            if (pos != end || !refill())
                return vt_or_ff;
        }
    }

    /**
     * Accumulate the run of decimal digits at the cursor into
     * @p value.  @return false if the number does not fit in 64 bits.
     */
    bool
    digits(std::uint64_t &value)
    {
        bool overflow = false;
        for (;;) {
            for (; isDigit(*pos); ++pos) {
                auto digit = static_cast<std::uint64_t>(*pos - '0');
                overflow |= __builtin_mul_overflow(value, 10u, &value);
                overflow |= __builtin_add_overflow(value, digit, &value);
            }
            if (pos != end || !refill())
                return !overflow;
        }
    }

    /**
     * Read one record laid out the way save() writes it — fields
     * apart by spaces or tabs, numbers of at most 19 digits, so none
     * can overflow — straight off the block.  Any other layout, a
     * record the block end cuts, or a value a check would refuse
     * leaves the cursor where it was and returns false; the
     * field-by-field path then reads (or rejects) the record.
     */
    bool
    savedRecord(std::uint64_t num_pes, std::uint64_t &pe, MemRef &ref)
    {
        char *p = pos;
        auto number = [&p](std::uint64_t &value) {
            const char *first = p;
            value = 0;
            for (; isDigit(*p); ++p)
                value = value * 10 + static_cast<std::uint64_t>(*p - '0');
            return p != first && p - first <= 19;
        };
        auto gap = [&p] {
            const char *first = p;
            while (*p == ' ' || *p == '\t')
                ++p;
            return p != first;
        };
        // The sentinel fails every test, so no test reads past it.
        if (!number(pe) || pe >= num_pes || !gap() ||
            !parseOp(*p++, ref.op) || !gap() || !number(ref.addr) ||
            !gap() || !number(ref.data) || ref.data > kMaxDataValue ||
            !gap() || !parseClass(*p++, ref.cls))
            return false;
        pos = p;
        return true;
    }

    /** 1-based line of the cursor. */
    std::size_t line = 1;

  private:
    bool
    refill()
    {
        std::streamsize got = buf.sgetn(
            block.get(), static_cast<std::streamsize>(kBlockBytes));
        pos = block.get();
        end = pos + (got > 0 ? got : 0);
        *end = '\0';
        return got > 0;
    }

    std::streambuf &buf;
    std::unique_ptr<char[]> block;
    char *pos;
    char *end;
};

/** What reading one unsigned decimal field found. */
enum class Field { Ok, End, Missing, Signed, Overflow };

Field
readUnsigned(BlockReader &in, std::uint64_t &value)
{
    in.skipBlank();
    int c = in.peek();
    if (c < 0)
        return Field::End;
    if (c == '+' || c == '-')
        return Field::Signed;
    if (!isDigit(c))
        return Field::Missing;
    value = 0;
    return in.digits(value) ? Field::Ok : Field::Overflow;
}

/** The next non-blank byte, consumed, or -1 at EOF. */
int
readLetter(BlockReader &in)
{
    in.skipBlank();
    int c = in.peek();
    if (c >= 0)
        in.advance();
    return c;
}

/** Why a field that did not read Ok is bad. */
std::string
fieldError(Field field, const std::string &name, const char *unit)
{
    switch (field) {
      case Field::Ok:       break;
      case Field::End:      return std::string("truncated ") + unit +
                                   ": no " + name;
      case Field::Missing:  return "expected " + name;
      case Field::Signed:   return name + " has a sign; numbers are "
                                   "unsigned decimals";
      case Field::Overflow: return name + " does not fit in 64 bits";
    }
    return "bad " + name;
}

/** A byte quoted for an error message. */
std::string
describeByte(int c)
{
    std::ostringstream os;
    if (c > ' ' && c < 0x7f)
        os << "'" << static_cast<char>(c) << "'";
    else
        os << "byte 0x" << std::hex << c;
    return os.str();
}

} // namespace

std::string
toString(const MemRef &ref)
{
    std::ostringstream os;
    os << opCode(ref.op) << " 0x" << std::hex << ref.addr << std::dec
       << " " << ref.data << " " << ddc::toString(ref.cls);
    return os.str();
}

Trace::Trace(int num_pes)
{
    ddc_assert(num_pes >= 0, "negative PE count");
    streams.resize(static_cast<std::size_t>(num_pes));
    for (auto &stream : streams)
        stream = std::make_shared<Stream>();
}

void
Trace::append(PeId pe, const MemRef &ref)
{
    ddc_assert(pe >= 0 && pe < numPes(), "trace PE id out of range");
    auto &stream = streams[static_cast<std::size_t>(pe)];
    if (stream.use_count() > 1) {
        stream = std::make_shared<Stream>(*stream);
    } else {
        // The last other holder may have let go on another thread;
        // its reads of the buffer must be done before this write.
        std::atomic_thread_fence(std::memory_order_acquire);
    }
    stream->push_back(ref);
}

const Trace::Stream &
Trace::stream(PeId pe) const
{
    ddc_assert(pe >= 0 && pe < numPes(), "trace PE id out of range");
    return *streams[static_cast<std::size_t>(pe)];
}

Trace::SharedStream
Trace::sharedStream(PeId pe) const
{
    ddc_assert(pe >= 0 && pe < numPes(), "trace PE id out of range");
    return streams[static_cast<std::size_t>(pe)];
}

std::size_t
Trace::totalRefs() const
{
    std::size_t total = 0;
    for (const auto &stream : streams)
        total += stream->size();
    return total;
}

bool
Trace::operator==(const Trace &other) const
{
    if (numPes() != other.numPes())
        return false;
    for (std::size_t pe = 0; pe < streams.size(); pe++) {
        if (streams[pe] != other.streams[pe] &&
            *streams[pe] != *other.streams[pe])
            return false;
    }
    return true;
}

void
Trace::save(std::ostream &os) const
{
    os << "ddctrace 1 " << numPes() << "\n";
    for (int pe = 0; pe < numPes(); pe++) {
        for (const auto &ref : stream(pe)) {
            os << pe << " " << opCode(ref.op) << " " << ref.addr << " "
               << ref.data << " " << classCode(ref.cls) << "\n";
        }
    }
}

bool
Trace::load(std::istream &is)
{
    streams.clear();
    error = {};
    // The line on which the header or record being read starts.
    std::size_t at = 1;
    auto fail = [&](std::string reason) {
        error = {at, std::move(reason)};
        return false;
    };
    if (!is || is.rdbuf() == nullptr)
        return fail("unreadable input");

    BlockReader in(*is.rdbuf());
    in.skipBlank();
    at = in.line;
    std::string magic;
    for (int c = in.peek(); c >= 0 && !isBlank(c) && magic.size() <= 8;
         c = in.peek()) {
        magic += static_cast<char>(c);
        in.advance();
    }
    if (magic != "ddctrace")
        return fail("expected the header \"ddctrace 1 <pes>\"");
    std::uint64_t version = 0;
    std::uint64_t num_pes = 0;
    if (Field field = readUnsigned(in, version); field != Field::Ok)
        return fail(fieldError(field, "header version", "header"));
    if (version != 1)
        return fail("unsupported version " + std::to_string(version) +
                    " (want 1)");
    if (Field field = readUnsigned(in, num_pes); field != Field::Ok)
        return fail(fieldError(field, "header PE count", "header"));
    if (num_pes > static_cast<std::uint64_t>(kMaxPes)) {
        return fail("header PE count " + std::to_string(num_pes) +
                    " above the limit of " + std::to_string(kMaxPes));
    }

    std::vector<std::shared_ptr<Stream>> parsed(num_pes);
    std::vector<Stream *> out(num_pes);
    for (std::size_t pe = 0; pe < num_pes; pe++) {
        parsed[pe] = std::make_shared<Stream>();
        out[pe] = parsed[pe].get();
    }
    // Every record must parse whole up to a clean EOF: a malformed or
    // truncated line rejects the file instead of silently ending it.
    // Data words above kMaxDataValue (the reserved invalidate
    // encoding) are rejected here rather than panicking mid-run.
    for (;;) {
        bool vt_or_ff = in.skipBlank();
        at = in.line;
        if (in.peek() < 0) {
            // Only space, tab, CR and LF may end the file.
            if (vt_or_ff)
                return fail("truncated record after a vertical tab or "
                            "form feed");
            break;
        }
        std::uint64_t pe = 0;
        if (MemRef ref; in.savedRecord(num_pes, pe, ref)) {
            out[pe]->push_back(ref);
            continue;
        }
        std::uint64_t addr = 0;
        std::uint64_t data = 0;
        CpuOp op{};
        DataClass cls{};
        if (Field field = readUnsigned(in, pe); field != Field::Ok)
            return fail(fieldError(field, "PE id", "record"));
        if (pe >= num_pes) {
            return fail("PE id " + std::to_string(pe) +
                        " out of range for " + std::to_string(num_pes) +
                        " PEs");
        }
        int op_char = readLetter(in);
        if (op_char < 0)
            return fail("truncated record: no op");
        if (!parseOp(static_cast<char>(op_char), op))
            return fail("unknown op " + describeByte(op_char));
        if (Field field = readUnsigned(in, addr); field != Field::Ok)
            return fail(fieldError(field, "address", "record"));
        if (Field field = readUnsigned(in, data); field != Field::Ok)
            return fail(fieldError(field, "data word", "record"));
        if (data > kMaxDataValue) {
            return fail("data word " + std::to_string(data) +
                        " above the largest data value " +
                        std::to_string(kMaxDataValue));
        }
        int cls_char = readLetter(in);
        if (cls_char < 0)
            return fail("truncated record: no class");
        if (!parseClass(static_cast<char>(cls_char), cls))
            return fail("unknown class " + describeByte(cls_char));
        out[pe]->push_back(MemRef{op, addr, data, cls});
    }
    streams = std::move(parsed);
    return true;
}

} // namespace ddc
