/**
 * @file
 * Section 7 reproduction: shared-bus bandwidth.
 *
 * The paper's model: SBB >= m * x / h, with the worked example
 * 1/h = 10%, m = 128, x = 1 MACS  =>  SBB = 12.8 MACS.
 *
 * We print that analytic table, then cross-check the model against
 * the simulator: per-PE bus-transaction rates measured on a Cm*-mix
 * workload under the RB scheme, swept over the PE count, showing
 * where the single bus saturates (utilization -> 1, per-PE throughput
 * collapsing).
 */

#include "bench_common.hh"

#include <iostream>

#include "stats/table.hh"
#include "trace/synthetic.hh"

namespace {

using namespace ddc;

const int kPeCounts[] = {1, 2, 4, 8, 16, 32, 64};

void
printAnalyticModel()
{
    using stats::Table;

    std::cout <<
        "Section 7: required shared-bus bandwidth  SBB >= m * x / h\n"
        "(x = accesses/second per PE in MACS, 1/h = cache miss ratio,\n"
        "m = number of PEs on the shared bus)\n\n";

    Table table("Analytic model (x = 1 MACS)");
    table.setHeader({"miss ratio 1/h", "m (PEs)", "required SBB (MACS)"});
    for (double miss : {0.05, 0.10, 0.20}) {
        for (int m : {32, 64, 128, 256}) {
            table.addRow({Table::num(miss, 2), std::to_string(m),
                          Table::num(m * 1.0 * miss, 1)});
        }
        table.addSeparator();
    }
    std::cout << table.render();
    std::cout << "\nPaper's example: 1/h = 10%, m = 128, x = 1 MACS  =>  "
              << "SBB = " << 128 * 1.0 * 0.10 << " MACS\n\n";
}

void
printMeasuredSweep(exp::Session &session)
{
    using stats::Table;

    exp::ParamGrid grid;
    {
        std::vector<std::string> labels;
        for (int m : kPeCounts)
            labels.push_back(std::to_string(m));
        grid.axis("pes", labels);
    }

    exp::Experiment spec("sec_7_bus_bandwidth",
                         "Section 7: single-bus saturation sweep over "
                         "the PE count (RB, Cm*-mix)");
    spec.addGrid(grid, [](std::size_t flat,
                          const EngineOptions &engine) {
        const std::size_t refs_per_pe = 4000;
        int num_pes = kPeCounts[flat];
        exp::TraceRun run;
        run.config.engine() = engine;
        run.config.num_pes = num_pes;
        run.config.cache_lines = 1024;
        run.config.protocol = ProtocolKind::Rb;
        run.trace = makeCmStarTrace(cmStarApplicationA(), num_pes,
                                    refs_per_pe, 7);
        return run;
    });
    const auto &results = session.run(spec);

    Table table("Measured on the simulator (RB scheme, Cm*-mix "
                "workload, 1024-word caches, single bus)");
    table.setHeader({"PEs", "bus ops/ref (=1/h)", "bus utilization",
                     "refs/cycle/PE", "model: m/h"});
    for (std::size_t i = 0; i < results.size(); i++) {
        const auto &result = results[i];
        int m = kPeCounts[i];
        double bus_per_ref = result.metric("bus_per_ref");
        double utilization =
            static_cast<double>(result.bus_transactions) /
            static_cast<double>(result.cycles);
        double refs_per_cycle_per_pe =
            static_cast<double>(result.total_refs) /
            static_cast<double>(result.cycles) / m;
        table.addRow({std::to_string(m), Table::num(bus_per_ref, 3),
                      Table::num(utilization, 3),
                      Table::num(refs_per_cycle_per_pe, 3),
                      Table::num(m * bus_per_ref, 2)});
    }
    std::cout << table.render();
    std::cout <<
        "\nReading: one bus serves one transaction per cycle, so the bus\n"
        "saturates when m * (bus ops/ref) approaches 1 ref/cycle of\n"
        "demand - exactly the paper's SBB >= m*x/h with SBB fixed at one\n"
        "transaction/cycle.  Past saturation, per-PE throughput falls as\n"
        "1/m while utilization pins at ~1.\n\n";
}

void
printReproduction(exp::Session &session)
{
    printAnalyticModel();
    printMeasuredSweep(session);
}

} // namespace

DDC_BENCH_MAIN(printReproduction)
