/**
 * @file
 * Experiment session: runs experiments and collects their results.
 *
 * A Session is the one object a bench binary or the CLI talks to: it
 * carries the runner options (--jobs), executes each Experiment, keeps
 * every result in submission order, and emits the collected set as
 * JSON (--json PATH, conventionally results.json) alongside whatever
 * ASCII tables the caller prints.  The JSON bytes are independent of
 * the job count unless --timing opts into per-run wall-clock fields.
 */

#ifndef DDC_EXP_SESSION_HH
#define DDC_EXP_SESSION_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "base/types.hh"
#include "exp/experiment.hh"
#include "exp/json.hh"
#include "exp/runner.hh"

namespace ddc {
namespace exp {

/** Command-line options shared by every engine consumer. */
struct SessionOptions
{
    /** Worker threads for each experiment run. */
    int jobs = 1;
    /** Where to write the collected results ("" = don't). */
    std::string json_path;
    /**
     * Emit wall_time_ms / sim_cycles_per_sec / skipped_cycles /
     * skip_fraction per run in the JSON.  Off by default: timing is a
     * host measurement, so enabling it gives up the
     * byte-identical-across-job-counts guarantee.
     */
    bool timing = false;
    /**
     * Chrome-trace output file ("" = tracing off).  The first System
     * the process constructs claims it (obs::setTraceOutput), so a
     * traced session should run a single point (--jobs 1) to keep the
     * trace attributable.
     */
    std::string trace_out;
    /** Comma-separated trace categories ("all", "bus,state,lock", ...). */
    std::string trace_categories = "all";
    /**
     * Collect latency histograms (miss service, bus wait, lock
     * acquisition, ...) in every System the process builds and emit
     * them per run in the JSON.  Cycle-based and deterministic: the
     * JSON stays byte-identical across job counts, it just grows the
     * new "histograms" objects.
     */
    bool histograms = false;
};

/**
 * Parse and remove the engine flags (`--jobs N`, `--json PATH`,
 * `--timing`, `--no-skip`, `--no-snoop-filter`,
 * `--trace-out FILE`, `--trace-categories LIST`, `--histograms`,
 * `--sample-every N`, `--profile`, `--shards N`) from an argv
 * vector.
 *
 * Unrecognized arguments are left in place for the caller, which
 * either parses them (ddcsim's machine flags) or rejects them (the
 * bench binaries).  Exits with an error message on malformed values.
 * The process-wide switches (skip/snoop-filter disables, default
 * shard count, the observability configuration) are what carry most
 * flags: they take effect before this returns, so custom experiment
 * points that construct their own Systems are covered too.  The flag
 * table lives in session.cc; adding a flag is one table entry.
 */
SessionOptions parseSessionArgs(int &argc, char **argv);

/**
 * The value of integer flag @p flag: @p value read whole as a decimal
 * integer in [@p min, @p max].  Anything else -- an empty string,
 * trailing characters ("1e3", "2x"), a value out of range -- prints
 * "<program>: <flag> needs an integer in [min, max], got '<value>'"
 * and exits 1.
 */
std::int64_t parseIntFlag(const char *program, const char *flag,
                          const char *value, std::int64_t min,
                          std::int64_t max);

/** Executes experiments and accumulates their results. */
class Session
{
  public:
    explicit Session(SessionOptions options = {});

    /**
     * Run @p experiment with this session's job count.
     * @return The results, ordered by point index; the reference
     *         stays valid for the session's lifetime.
     */
    const std::vector<RunResult> &run(const Experiment &experiment);

    const SessionOptions &options() const { return opts; }

    /** All collected results as one JSON document. */
    Json toJson() const;

    /**
     * Write toJson() to options().json_path.
     * @return false on I/O failure (true when json_path is empty).
     */
    bool writeJson() const;

  private:
    struct Collected
    {
        std::string name;
        std::string description;
        std::vector<RunResult> results;
    };

    SessionOptions opts;
    /** Deque so run() references stay valid as experiments accrue. */
    std::deque<Collected> collected;
};

} // namespace exp
} // namespace ddc

#endif // DDC_EXP_SESSION_HH
