/**
 * @file
 * Ablation A8: set associativity (the "set size of one" half of
 * assumption 7).  Capacity held constant in words while associativity
 * sweeps 1..8 (and fully associative), on the Cm*-mix application and
 * on a deliberate conflict workload.  The question: how much of the
 * Table 1-1 miss budget is conflict misses that associativity could
 * remove, and does it change the shared-data story?
 */

#include "bench_common.hh"

#include <iostream>

#include "stats/table.hh"
#include "trace/synthetic.hh"

namespace {

using namespace ddc;

const std::size_t kWays[] = {1, 2, 4, 8};

/** Strided reads engineered to conflict in a direct-mapped cache. */
Trace
makeConflictTrace(int num_pes, std::size_t cache_words, int hot_addrs,
                  int passes)
{
    Trace trace(num_pes);
    for (PeId pe = 0; pe < num_pes; pe++) {
        for (int pass = 0; pass < passes; pass++) {
            for (int i = 0; i < hot_addrs; i++) {
                // All hot addresses map to the same direct-mapped set.
                Addr addr = localBase(pe) +
                            static_cast<Addr>(i) * cache_words;
                trace.append(pe, {CpuOp::Read, addr, 0, DataClass::Local});
            }
        }
    }
    return trace;
}

/** Read-miss percentage of one run. */
double
readMissPercent(const exp::RunResult &result)
{
    return 100.0 *
           static_cast<double>(
               result.counters.sumPrefix("cache.read_miss.")) /
           static_cast<double>(result.total_refs);
}

void
printReproduction(exp::Session &session)
{
    using stats::Table;

    std::cout <<
        "Ablation A8: set associativity (assumption 7's set size),\n"
        "capacity fixed; LRU replacement within a set\n\n";

    exp::ParamGrid grid;
    grid.axis("ways", {"1", "2", "4", "8"});

    exp::Experiment cmstar_spec("ablation_associativity_cmstar",
                                "A8a: Cm*-mix read-miss ratio vs set "
                                "associativity");
    cmstar_spec.addGrid(grid, [](std::size_t flat,
                                 const EngineOptions &engine) {
        exp::TraceRun run;
        run.config.engine() = engine;
        run.config.num_pes = 4;
        run.config.cache_lines = 1024;
        run.config.ways = kWays[flat];
        run.config.protocol = ProtocolKind::CmStar;
        run.trace = makeCmStarTrace(cmStarApplicationA(), 4, 30000, 1984);
        return run;
    });
    const auto &cmstar_results = session.run(cmstar_spec);

    Table cmstar("(a) Cm*-mix read-miss % (1024-word caches, Cm* "
                 "policy)");
    cmstar.setHeader({"ways", "read miss %"});
    for (std::size_t w = 0; w < 4; w++) {
        cmstar.addRow({std::to_string(kWays[w]),
                       Table::num(readMissPercent(cmstar_results[w]), 1)});
    }
    std::cout << cmstar.render() << "\n";

    exp::Experiment conflict_spec("ablation_associativity_conflict",
                                  "A8b: adversarial conflict workload "
                                  "read-miss ratio vs associativity");
    conflict_spec.addGrid(grid, [](std::size_t flat,
                                   const EngineOptions &engine) {
        exp::TraceRun run;
        run.config.engine() = engine;
        run.config.num_pes = 2;
        run.config.cache_lines = 256;
        run.config.ways = kWays[flat];
        run.config.protocol = ProtocolKind::Rb;
        run.trace = makeConflictTrace(2, 256, 4, 64);
        return run;
    });
    const auto &conflict_results = session.run(conflict_spec);

    Table conflict("(b) adversarial conflict workload (256-word "
                   "caches, RB): 4 hot addresses per PE, all mapping "
                   "to one direct-mapped set");
    conflict.setHeader({"ways", "read miss %"});
    for (std::size_t w = 0; w < 4; w++) {
        conflict.addRow({std::to_string(kWays[w]),
                         Table::num(readMissPercent(conflict_results[w]),
                                    1)});
    }
    std::cout << conflict.render() << "\n";
    std::cout <<
        "Expected shape: associativity rescues the adversarial pattern\n"
        "completely (100% miss at 1-way -> cold misses only at 4-way)\n"
        "but moves the realistic mix by only a couple of points --\n"
        "consistent with the paper's choice to keep set size 1 and\n"
        "spend the hardware budget on the coherence machinery instead.\n\n";
}

} // namespace

DDC_BENCH_MAIN(printReproduction)
