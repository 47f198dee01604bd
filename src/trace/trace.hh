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
#include <string>
#include <vector>

#include "base/types.hh"

namespace ddc {

/** One memory reference issued by one PE. */
struct MemRef
{
    CpuOp op = CpuOp::Read;
    Addr addr = 0;
    /** Value stored for Write / TestAndSet; ignored for Read. */
    Word data = 0;
    /** Software classification; RB/RWB ignore it, baselines use it. */
    DataClass cls = DataClass::Shared;

    bool operator==(const MemRef &other) const = default;
};

/** Render one reference as "R 0x10 Shared" style text. */
std::string toString(const MemRef &ref);

/**
 * A multi-PE reference trace: one ordered vector of MemRef per PE.
 *
 * The simulator consumes each PE's stream in order; there is no global
 * interleaving in the trace itself — interleaving emerges from the
 * simulated timing, exactly as on the real machine.
 */
class Trace
{
  public:
    /** @param num_pes Number of per-PE streams. */
    explicit Trace(int num_pes = 0);

    /** Number of PE streams. */
    int numPes() const { return static_cast<int>(streams.size()); }

    /** Append a reference to PE @p pe's stream. */
    void append(PeId pe, const MemRef &ref);

    /** Stream of PE @p pe. */
    const std::vector<MemRef> &stream(PeId pe) const;

    /** Total number of references across all PEs. */
    std::size_t totalRefs() const;

    /** Serialize as line-oriented text ("pe op addr data class"). */
    void save(std::ostream &os) const;

    /**
     * Parse a trace produced by save().
     * @return false on malformed input — a bad header, a malformed,
     *         truncated or out-of-range record anywhere before EOF, or
     *         a data word above kMaxDataValue (the trace is left
     *         empty).
     */
    bool load(std::istream &is);

    bool operator==(const Trace &other) const = default;

  private:
    std::vector<std::vector<MemRef>> streams;
};

} // namespace ddc

#endif // DDC_TRACE_TRACE_HH
