#include "trace/trace.hh"

#include <istream>
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
}

void
Trace::append(PeId pe, const MemRef &ref)
{
    ddc_assert(pe >= 0 && pe < numPes(), "trace PE id out of range");
    streams[static_cast<std::size_t>(pe)].push_back(ref);
}

const std::vector<MemRef> &
Trace::stream(PeId pe) const
{
    ddc_assert(pe >= 0 && pe < numPes(), "trace PE id out of range");
    return streams[static_cast<std::size_t>(pe)];
}

std::size_t
Trace::totalRefs() const
{
    std::size_t total = 0;
    for (const auto &stream : streams)
        total += stream.size();
    return total;
}

void
Trace::save(std::ostream &os) const
{
    os << "ddctrace 1 " << numPes() << "\n";
    for (int pe = 0; pe < numPes(); pe++) {
        for (const auto &ref : streams[static_cast<std::size_t>(pe)]) {
            os << pe << " " << opCode(ref.op) << " " << ref.addr << " "
               << ref.data << " " << classCode(ref.cls) << "\n";
        }
    }
}

bool
Trace::load(std::istream &is)
{
    streams.clear();

    std::string magic;
    int version = 0;
    int num_pes = 0;
    if (!(is >> magic >> version >> num_pes))
        return false;
    if (magic != "ddctrace" || version != 1 || num_pes < 0 ||
        num_pes > kMaxPes)
        return false;

    streams.resize(static_cast<std::size_t>(num_pes));
    int pe = 0;
    char op_char = 0;
    char cls_char = 0;
    Addr addr = 0;
    Word data = 0;
    // Every record must parse whole up to a clean EOF: a malformed or
    // truncated line rejects the file instead of silently ending it.
    // Data words above kMaxDataValue (the reserved invalidate
    // encoding) are rejected here rather than panicking mid-run.
    std::streambuf &buf = *is.rdbuf();
    for (;;) {
        // Skip blank space straight off the buffer (a formatted
        // std::ws per record slows parsing by ~15%); EOF here, between
        // records, is the one clean end.
        auto next = buf.sgetc();
        while (next == ' ' || next == '\n' || next == '\t' ||
               next == '\r')
            next = buf.snextc();
        if (next == std::char_traits<char>::eof())
            break;
        MemRef ref;
        if (!(is >> pe >> op_char >> addr >> data >> cls_char) ||
            pe < 0 || pe >= num_pes || !parseOp(op_char, ref.op) ||
            !parseClass(cls_char, ref.cls) || data > kMaxDataValue) {
            streams.clear();
            return false;
        }
        ref.addr = addr;
        ref.data = data;
        streams[static_cast<std::size_t>(pe)].push_back(ref);
    }
    return true;
}

} // namespace ddc
