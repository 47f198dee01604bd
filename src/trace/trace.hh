/**
 * @file
 * Memory-reference traces.
 *
 * A Trace is a per-PE ordered stream of memory references.  Traces
 * drive the system simulator directly (trace-driven mode) and are the
 * interchange format between the synthetic workload generators and the
 * benches that reproduce the paper's tables.
 */

#ifndef DDC_TRACE_TRACE_HH
#define DDC_TRACE_TRACE_HH

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "base/types.hh"

namespace ddc {

/**
 * One memory reference issued by one PE.  The two words come first and
 * the two one-byte tags after them, so a reference is 24 bytes.
 */
struct MemRef
{
    Addr addr = 0;
    /** Value stored for Write / TestAndSet; ignored for Read. */
    Word data = 0;
    CpuOp op = CpuOp::Read;
    /** Software classification; RB/RWB ignore it, baselines use it. */
    DataClass cls = DataClass::Shared;

    MemRef() = default;

    /** Arguments in reading order: the op, then where, what and which class. */
    constexpr MemRef(CpuOp op, Addr addr, Word data = 0,
                     DataClass cls = DataClass::Shared)
        : addr(addr), data(data), op(op), cls(cls)
    {}

    bool operator==(const MemRef &other) const = default;
};

static_assert(sizeof(MemRef) == 24, "MemRef is two words and two tags");

/** Render one reference as "R 0x10 Shared" style text. */
std::string toString(const MemRef &ref);

/**
 * A multi-PE reference trace: one ordered vector of MemRef per PE.
 *
 * The simulator consumes each PE's stream in order; there is no global
 * interleaving in the trace itself — interleaving emerges from the
 * simulated timing, exactly as on the real machine.
 *
 * Each stream is a shared, immutable buffer: copying a Trace, or
 * loading it into a machine, shares the buffers instead of copying the
 * references.  append() copies a stream first if anything else still
 * holds it, so a holder never sees a stream change.
 */
class Trace
{
  public:
    using Stream = std::vector<MemRef>;
    /** A stream as held by a Trace copy or a machine's trace agent. */
    using SharedStream = std::shared_ptr<const Stream>;

    /** Why the last load() refused its input. */
    struct LoadError
    {
        /**
         * 1-based line on which the bad header or record starts; 0
         * when the last load succeeded (or none ran).
         */
        std::size_t line = 0;
        std::string reason;
    };

    /**
     * Most PE streams a trace file header may declare: the largest
     * machine built today (8192 PEs).  load() rejects a larger header
     * before allocating any stream, so a corrupt or hostile header
     * cannot exhaust memory.
     */
    static constexpr int kMaxPes = 8192;

    /** @param num_pes Number of per-PE streams. */
    explicit Trace(int num_pes = 0);

    /** Number of PE streams. */
    int numPes() const { return static_cast<int>(streams.size()); }

    /** Append a reference to PE @p pe's stream. */
    void append(PeId pe, const MemRef &ref);

    /** Stream of PE @p pe. */
    const Stream &stream(PeId pe) const;

    /** Stream of PE @p pe, shared rather than copied. */
    SharedStream sharedStream(PeId pe) const;

    /** Total number of references across all PEs. */
    std::size_t totalRefs() const;

    /** Serialize as line-oriented text ("pe op addr data class"). */
    void save(std::ostream &os) const;

    /**
     * Parse a trace produced by save().  The grammar is a header
     * "ddctrace 1 <pes>" and then records "<pe> <op> <addr> <data>
     * <class>"; every number is an unsigned decimal (no sign), and
     * the file may end only in the blank space between records.
     * @return false on malformed input — a bad header (including a
     *         PE count above kMaxPes), a malformed, signed,
     *         truncated or out-of-range record anywhere before EOF,
     *         or a data word above kMaxDataValue.  The trace is then
     *         left empty and loadError() says where and why.
     */
    bool load(std::istream &is);

    /** The reason and line of the last load() failure. */
    const LoadError &loadError() const { return error; }

    /** Same streams with the same references (the load error aside). */
    bool operator==(const Trace &other) const;

  private:
    std::vector<std::shared_ptr<Stream>> streams;
    LoadError error;
};

} // namespace ddc

#endif // DDC_TRACE_TRACE_HH
