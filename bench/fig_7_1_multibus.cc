/**
 * @file
 * Figure 7-1 reproduction: the multiple-shared-bus configuration.
 *
 * "The private caches and the shared memory are divided into two
 * memory banks using the least significant address bit.  Each part of
 * the divided cache will generate, on average, half of the traffic
 * ... Hence, the required bandwidth for each shared bus will be about
 * half."  We run the same workload on 1, 2, and 4 interleaved buses
 * and report per-bus traffic and completion time.
 */

#include "bench_common.hh"

#include <algorithm>
#include <iostream>

#include "stats/table.hh"
#include "trace/synthetic.hh"

namespace {

using namespace ddc;

const int kBusCounts[] = {1, 2, 4};

/** Busiest-bus busy cycles of one run (any bus count). */
std::uint64_t
busiestBusOps(const exp::RunResult &result, int buses)
{
    if (buses == 1)
        return result.counters.get("bus.busy_cycles");
    std::uint64_t busiest = 0;
    for (int b = 0; b < buses; b++) {
        busiest = std::max(busiest,
                           result.counters.get("bus" + std::to_string(b) +
                                               ".busy_cycles"));
    }
    return busiest;
}

void
printReproduction(exp::Session &session)
{
    using stats::Table;

    std::cout <<
        "Figure 7-1: multiple shared bus cache-based parallel processor\n"
        "(same workload on k = 1, 2, 4 address-interleaved buses;\n"
        "16 PEs, RB scheme, Cm*-mix + hot shared data)\n\n";

    const int num_pes = 16;

    exp::ParamGrid grid;
    grid.axis("buses", {"1", "2", "4"});

    exp::Experiment spec("fig_7_1_multibus",
                         "Figure 7-1: per-bus traffic and completion "
                         "time on k address-interleaved buses");
    spec.addGrid(grid, [](std::size_t flat,
                          const EngineOptions &engine) {
        exp::TraceRun run;
        run.config.engine() = engine;
        run.config.num_pes = num_pes;
        run.config.cache_lines = 1024;
        run.config.protocol = ProtocolKind::Rb;
        run.config.num_buses = kBusCounts[flat];
        run.trace = makeCmStarTrace(cmStarApplicationA(), num_pes,
                                    4000, 3);
        return run;
    });
    const auto &results = session.run(spec);

    Table table;
    table.setHeader({"buses", "cycles", "total bus ops",
                     "busiest bus ops", "per-bus share", "speedup"});
    double base_cycles = 0.0;
    for (std::size_t i = 0; i < results.size(); i++) {
        const auto &result = results[i];
        int buses = kBusCounts[i];
        std::uint64_t total = result.bus_transactions;
        std::uint64_t busiest = busiestBusOps(result, buses);
        auto cycles = static_cast<double>(result.cycles);
        if (buses == 1)
            base_cycles = cycles;
        table.addRow({std::to_string(buses),
                      std::to_string(result.cycles),
                      std::to_string(total), std::to_string(busiest),
                      Table::num(static_cast<double>(busiest) /
                                     static_cast<double>(total), 3),
                      Table::num(base_cycles / cycles, 2)});
    }
    std::cout << table.render();
    std::cout <<
        "\nShape to check: total bus demand is protocol-determined and\n"
        "constant; the busiest bus carries ~1/k of it, so the saturated\n"
        "single-bus run speeds up with k.  'Initial evaluation shows ...\n"
        "as many as 32 to 256 processors could be economically built'\n"
        "using a small number of buses.\n\n";
}

} // namespace

DDC_BENCH_MAIN(printReproduction)
