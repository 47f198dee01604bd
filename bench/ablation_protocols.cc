/**
 * @file
 * Ablation A1: scheme comparison across the archetypal shared-data
 * reference patterns the paper discusses — array initialization
 * (Section 5), producer/consumer cycles, migratory records, lock hot
 * spots (Section 6), and the Cm* application mix.  One row per
 * (workload, protocol): bus transactions per reference and cycles per
 * reference.  This quantifies each design ingredient: read broadcast
 * (RB vs write-once), write broadcast (RWB vs RB), and dynamic
 * classification (both vs write-through).
 */

#include "bench_common.hh"

#include <iostream>

#include "stats/table.hh"
#include "trace/synthetic.hh"

namespace {

using namespace ddc;

std::vector<std::pair<std::string, Trace>>
workloads()
{
    std::vector<std::pair<std::string, Trace>> result;
    result.emplace_back("array_init", makeArrayInitTrace(4, 512));
    result.emplace_back("producer_consumer",
                        makeProducerConsumerTrace(4, 16, 16, 2));
    result.emplace_back("migratory", makeMigratoryTrace(4, 8, 24));
    result.emplace_back("hot_spot", makeHotSpotTrace(4, 16, 8));
    result.emplace_back("cmstar_mix",
                        makeCmStarTrace(cmStarApplicationA(), 4, 8000, 5));
    return result;
}

void
printReproduction(exp::Session &session)
{
    using stats::Table;

    std::cout <<
        "Ablation A1: bus transactions per reference, by scheme and\n"
        "reference pattern (4 PEs, 256-word caches; lower is better)\n\n";

    auto patterns = workloads();
    auto kinds = allProtocolKinds();

    exp::ParamGrid grid;
    {
        std::vector<std::string> names;
        for (const auto &[name, trace] : patterns)
            names.push_back(name);
        grid.axis("workload", names);
        std::vector<std::string> protocols;
        for (auto kind : kinds)
            protocols.push_back(std::string(toString(kind)));
        grid.axis("protocol", protocols);
    }

    exp::Experiment spec("ablation_protocols",
                         "A1: bus transactions and cycles per reference "
                         "by scheme and reference pattern");
    spec.addGrid(grid, [grid, patterns, kinds](std::size_t flat,
                                               const EngineOptions &engine) {
        auto indices = grid.indicesAt(flat);
        exp::TraceRun run;
        run.config.engine() = engine;
        run.config.num_pes = 4;
        run.config.cache_lines = 256;
        run.config.protocol = kinds[indices[1]];
        run.trace = patterns[indices[0]].second;
        return run;
    });
    const auto &results = session.run(spec);

    Table table;
    std::vector<std::string> header{"workload"};
    for (auto kind : kinds)
        header.push_back(std::string(toString(kind)));
    table.setHeader(header);

    Table cycles_table;
    cycles_table.setHeader(header);

    std::size_t flat = 0;
    for (const auto &[name, trace] : patterns) {
        std::vector<std::string> row{name};
        std::vector<std::string> cycle_row{name};
        for (std::size_t p = 0; p < kinds.size(); p++, flat++) {
            const auto &result = results[flat];
            row.push_back(Table::num(result.metric("bus_per_ref"), 3));
            cycle_row.push_back(Table::num(
                static_cast<double>(result.cycles) /
                    static_cast<double>(result.total_refs), 3));
        }
        table.addRow(row);
        cycles_table.addRow(cycle_row);
    }
    std::cout << table.render() << "\n";
    std::cout << "Cycles per reference (same runs):\n\n"
              << cycles_table.render() << "\n";
    std::cout <<
        "Expected shape: RWB <= RB on every shared pattern (write\n"
        "broadcast); RB < WriteOnce on read-shared patterns (read\n"
        "broadcast); both << WriteThrough on write-heavy private phases\n"
        "(dynamic classification); CmStar worst everywhere shared data\n"
        "matters since it cannot cache it.\n\n";
}

} // namespace

DDC_BENCH_MAIN(printReproduction)
