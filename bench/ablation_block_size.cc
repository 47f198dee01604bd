/**
 * @file
 * Ablation A5: block size (assumption 7, quantified).
 *
 * "Our choice of set size and block size of one has two motivations.
 * First, a high cache hit ratio may not always result in good
 * performance ... Secondly, shared data appears to have different, if
 * any, notions of locality.  There is no reason to suspect that
 * nearby address of shared variables will be used by the same
 * processor at the same time."  (Section 2.)
 *
 * We hold cache capacity constant in words and sweep the block size
 * over three reference patterns: a sequential private walk (spatial
 * locality rewards big blocks), word-granular false sharing (big
 * blocks create invalidation ping-pong between unrelated PEs), and
 * the Cm*-style mixed application.  Reported: miss ratio, bus
 * occupancy (block transfers hold the bus for B cycles), and total
 * cycles.
 */

#include "bench_common.hh"

#include <iostream>

#include "stats/table.hh"
#include "trace/synthetic.hh"

namespace {

using namespace ddc;

const std::size_t kBlockWords[] = {1, 2, 4, 8};

void
printReproduction(exp::Session &session)
{
    using stats::Table;

    std::cout <<
        "Ablation A5: cache block size (assumption 7)\n"
        "(RB scheme, capacity fixed at 1024 words per cache; block\n"
        "transfers occupy the bus for B cycles)\n\n";

    std::vector<std::pair<std::string, Trace>> workloads;
    workloads.emplace_back("sequential_private_walk",
                           makeSequentialWalkTrace(4, 512, 4, 7));
    workloads.emplace_back("false_sharing", makeFalseSharingTrace(4, 256));
    workloads.emplace_back("cmstar_mix",
                           makeCmStarTrace(cmStarApplicationA(), 4, 20000,
                                           5));

    exp::ParamGrid grid;
    {
        std::vector<std::string> names;
        for (const auto &[name, trace] : workloads)
            names.push_back(name);
        grid.axis("workload", names);
        grid.axis("block_words", {"1", "2", "4", "8"});
    }

    exp::Experiment spec("ablation_block_size",
                         "A5: block-size sweep at constant cache "
                         "capacity over three reference patterns");
    spec.addGrid(grid, [grid, workloads](std::size_t flat,
                                         const EngineOptions &engine) {
        auto indices = grid.indicesAt(flat);
        std::size_t block = kBlockWords[indices[1]];
        exp::TraceRun run;
        run.config.engine() = engine;
        run.config.num_pes = 4;
        run.config.cache_lines = 1024 / block;
        run.config.block_words = block;
        run.config.protocol = ProtocolKind::Rb;
        run.trace = workloads[indices[0]].second;
        return run;
    });
    const auto &results = session.run(spec);

    std::size_t flat = 0;
    for (const auto &[name, trace] : workloads) {
        Table table(std::string("Workload: ") + name);
        table.setHeader({"block words", "miss ratio", "bus busy cycles",
                         "total cycles"});
        for (std::size_t b = 0; b < 4; b++, flat++) {
            const auto &result = results[flat];
            table.addRow({std::to_string(kBlockWords[b]),
                          Table::num(result.metric("miss_ratio"), 4),
                          std::to_string(
                              result.counters.get("bus.busy_cycles")),
                          std::to_string(result.cycles)});
        }
        std::cout << table.render() << "\n";
    }
    std::cout <<
        "Expected shape: on the private sequential walk, larger blocks\n"
        "cut the miss ratio ~1/B (prefetching) at constant bus\n"
        "occupancy.  On falsely-shared data, larger blocks multiply\n"
        "bus traffic and runtime: unrelated PEs invalidate each other\n"
        "through shared blocks.  On the mixed application the wins and\n"
        "losses nearly cancel -- supporting the paper's choice of one-\n"
        "word blocks for a shared-data-caching machine.\n\n";
}

} // namespace

DDC_BENCH_MAIN(printReproduction)
