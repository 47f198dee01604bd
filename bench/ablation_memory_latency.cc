/**
 * @file
 * Ablation A7: memory latency (assumption 5 relaxed).
 *
 * The paper unifies the bus, cache, and PE cycles ("The bus cycle
 * time is no faster than the cache cycle time").  Real main memories
 * are slower; this ablation holds every transaction on the bus for
 * extra memory-latency cycles and shows (a) the saturation knee of
 * Section 7 moving in proportionally (effective bus bandwidth is
 * 1/(1+L) transactions per cycle) and (b) cache hit rates mattering
 * more: the schemes that keep references out of the bus win by a
 * growing margin.
 */

#include "bench_common.hh"

#include <iostream>

#include "stats/table.hh"
#include "trace/synthetic.hh"

namespace {

using namespace ddc;

const int kPeCounts[] = {1, 2, 4, 8, 16};
const std::size_t kKneeLatencies[] = {0, 1, 3, 7};
const std::size_t kSchemeLatencies[] = {0, 7};

void
printReproduction(exp::Session &session)
{
    using stats::Table;

    std::cout <<
        "Ablation A7: memory latency (extra bus-occupancy cycles per\n"
        "memory-touching transaction; 0 = the paper's unified cycle)\n\n";

    // (a) Saturation knee vs latency: per-PE throughput on the
    // Cm*-mix workload.
    exp::ParamGrid knee_grid;
    {
        std::vector<std::string> pes;
        for (int m : kPeCounts)
            pes.push_back(std::to_string(m));
        knee_grid.axis("pes", pes);
        knee_grid.axis("latency", {"0", "1", "3", "7"});
    }
    exp::Experiment knee_spec("ablation_memory_latency_knee",
                              "A7a: saturation knee vs memory latency "
                              "on the Cm*-mix workload (RB)");
    knee_spec.addGrid(knee_grid, [knee_grid](std::size_t flat,
                                             const EngineOptions &engine) {
        auto indices = knee_grid.indicesAt(flat);
        int m = kPeCounts[indices[0]];
        exp::TraceRun run;
        run.config.engine() = engine;
        run.config.num_pes = m;
        run.config.cache_lines = 1024;
        run.config.protocol = ProtocolKind::Rb;
        run.config.memory_latency = kKneeLatencies[indices[1]];
        run.trace = makeCmStarTrace(cmStarApplicationA(), m, 3000, 7);
        return run;
    });
    const auto &knee_results = session.run(knee_spec);

    Table knee("(a) refs/cycle/PE on the Cm*-mix workload (RB)");
    knee.setHeader({"PEs", "L=0", "L=1", "L=3", "L=7"});
    std::size_t flat = 0;
    for (int m : kPeCounts) {
        std::vector<std::string> row{std::to_string(m)};
        for (std::size_t l = 0; l < 4; l++, flat++) {
            const auto &result = knee_results[flat];
            row.push_back(Table::num(
                static_cast<double>(result.total_refs) /
                    static_cast<double>(result.cycles) / m, 3));
        }
        knee.addRow(row);
    }
    std::cout << knee.render() << "\n";

    // (b) Scheme comparison at high latency: producer/consumer.
    auto kinds = allProtocolKinds();
    exp::ParamGrid scheme_grid;
    {
        std::vector<std::string> protocols;
        for (auto kind : kinds)
            protocols.push_back(std::string(toString(kind)));
        scheme_grid.axis("protocol", protocols);
        scheme_grid.axis("latency", {"0", "7"});
    }
    exp::Experiment scheme_spec("ablation_memory_latency_schemes",
                                "A7b: scheme slowdown at high memory "
                                "latency on producer/consumer");
    scheme_spec.addGrid(scheme_grid,
        [scheme_grid, kinds](std::size_t flat,
                             const EngineOptions &engine) {
        auto indices = scheme_grid.indicesAt(flat);
        exp::TraceRun run;
        run.config.engine() = engine;
        run.config.num_pes = 4;
        run.config.cache_lines = 256;
        run.config.protocol = kinds[indices[0]];
        run.config.memory_latency = kSchemeLatencies[indices[1]];
        run.trace = makeProducerConsumerTrace(4, 16, 16, 2);
        return run;
    });
    const auto &scheme_results = session.run(scheme_spec);

    Table schemes("(b) cycles on producer/consumer (4 PEs), by scheme");
    schemes.setHeader({"scheme", "L=0", "L=7", "slowdown"});
    flat = 0;
    for (auto kind : kinds) {
        const auto &at_zero = scheme_results[flat++];
        const auto &at_seven = scheme_results[flat++];
        schemes.addRow({std::string(toString(kind)),
                        std::to_string(at_zero.cycles),
                        std::to_string(at_seven.cycles),
                        Table::num(static_cast<double>(at_seven.cycles) /
                                       static_cast<double>(at_zero.cycles),
                                   2) + "x"});
    }
    std::cout << schemes.render() << "\n";
    std::cout <<
        "Expected shape: (a) the knee moves from ~4 PEs at L=0 toward\n"
        "1-2 PEs at L=7 (the bus serves 1/(1+L) transactions/cycle);\n"
        "(b) slow memory amplifies every bus transaction, so the\n"
        "update-broadcasting RWB (fewest transactions) degrades least\n"
        "and the uncached CmStar baseline degrades most.\n\n";
}

} // namespace

DDC_BENCH_MAIN(printReproduction)
