/**
 * @file
 * Experiment specification: a named set of sweep points.
 *
 * An Experiment is what a bench or the CLI hands to the runner: each
 * point is either a trace run (SystemConfig + workload, executed and
 * scraped by the engine) or a custom callable producing a RunResult
 * directly (scenario figures, lock experiments, hierarchy runs).
 * ParamGrid expands named parameter axes into the flat, deterministic
 * point order every consumer indexes by.
 *
 * Point factories and custom callables execute on worker threads, so
 * they must be self-contained: capture by value, build the System /
 * Trace / Scenario locally, and return data instead of printing.
 * Each receives the session's EngineOptions and copies it into every
 * machine config it builds (`config.engine() = engine;`), so the
 * engine flags reach machines built inside custom points too.
 */

#ifndef DDC_EXP_EXPERIMENT_HH
#define DDC_EXP_EXPERIMENT_HH

#include <functional>
#include <string>
#include <vector>

#include "exp/result.hh"
#include "sim/system.hh"
#include "trace/trace.hh"

namespace ddc {
namespace exp {

/**
 * A Cartesian grid of named parameter axes.
 *
 * Flat indices enumerate the product in row-major order (the last
 * axis varies fastest), which fixes both the execution order and the
 * result order of a sweep.
 */
class ParamGrid
{
  public:
    /** Append an axis named @p name with the given value labels. */
    void axis(std::string name, std::vector<std::string> labels);

    /** Number of grid points (1 for an empty grid). */
    std::size_t size() const;

    /** Number of axes. */
    std::size_t numAxes() const { return axes.size(); }

    /** Per-axis indices of flat point @p flat (last axis fastest). */
    std::vector<std::size_t> indicesAt(std::size_t flat) const;

    /** (axis name, value label) pairs of flat point @p flat. */
    ParamList paramsAt(std::size_t flat) const;

  private:
    struct Axis
    {
        std::string name;
        std::vector<std::string> labels;
    };
    std::vector<Axis> axes;
};

/** One simulator run: machine configuration + workload + limits. */
struct TraceRun
{
    SystemConfig config;
    Trace trace;
    /** Record and replay the log through the consistency checker. */
    bool check_consistency = false;
    /** Cycle budget; exceeding it yields RunStatus::TimedOut. */
    Cycle max_cycles = System::kDefaultMaxCycles;
};

/** A named parameter sweep: what to run, not how to run it. */
class Experiment
{
  public:
    struct Point
    {
        ParamList params;
        /** Trace point: build the run (worker thread, call once). */
        std::function<TraceRun(const EngineOptions &)> make;
        /** Custom point: produce the result directly. */
        std::function<RunResult(const EngineOptions &)> custom;
    };

    explicit Experiment(std::string name, std::string description = "");

    /** Append a trace-run point. */
    void addRun(ParamList params,
                std::function<TraceRun(const EngineOptions &)> make);

    /** Append a custom point. */
    void addCustom(ParamList params,
                   std::function<RunResult(const EngineOptions &)> run);

    /** Append every point of @p grid; @p make gets the flat index. */
    void addGrid(
        const ParamGrid &grid,
        std::function<TraceRun(std::size_t, const EngineOptions &)> make);

    const std::string &name() const { return name_; }
    const std::string &description() const { return description_; }
    std::size_t size() const { return points_.size(); }
    const std::vector<Point> &points() const { return points_; }

  private:
    std::string name_;
    std::string description_;
    std::vector<Point> points_;
};

} // namespace exp
} // namespace ddc

#endif // DDC_EXP_EXPERIMENT_HH
