/**
 * @file
 * Figure 6-1 reproduction: synchronization with Test-and-Set under
 * the RB scheme — the per-cache state/value table for lock S as three
 * PEs contend, including the hot-spot property (spinning TS attempts
 * generate bus traffic on every try).
 */

#include "bench_common.hh"

#include <iostream>
#include <sstream>

#include "sim/scenario.hh"
#include "stats/table.hh"

namespace {

using namespace ddc;

constexpr Addr S = 0;

/**
 * Run the Figure 6-1 scenario and render its table.  A Scenario steps
 * its bus by hand and has no machine config, so the engine options
 * go unused.
 */
exp::RunResult
measure(const EngineOptions &)
{
    using stats::Table;
    std::ostringstream os;

    os <<
        "Figure 6-1: synchronization with Test-and-Set, RB scheme\n"
        "(three PEs, lock word S; each row is the cache state/value of\n"
        "S per PE and the memory value, exactly as in the paper)\n\n";

    Scenario scenario(ProtocolKind::Rb, 3);
    Table table;
    table.setHeader({"P1 Cache", "P2 Cache", "Pm Cache", "S",
                     "Observation"});

    auto emit = [&](const char *what) {
        std::vector<std::string> row;
        for (PeId pe = 0; pe < 3; pe++) {
            LineState line = scenario.state(pe, S);
            std::string cell{toString(line)};
            cell += "(";
            cell += line.present() ? std::to_string(scenario.value(pe, S))
                                   : "-";
            cell += ")";
            row.push_back(cell);
        }
        row.push_back(std::to_string(scenario.memoryValue(S)));
        row.push_back(what);
        table.addRow(row);
    };

    for (PeId pe = 0; pe < 3; pe++)
        scenario.read(pe, S);
    emit("Initial state");

    scenario.testAndSet(1, S);
    emit("P2 locks S");

    auto before = scenario.busTransactions();
    scenario.testAndSet(0, S);
    scenario.testAndSet(2, S);
    auto spin_traffic = scenario.busTransactions() - before;
    emit("Others try to get S (Bus Traffic)");

    scenario.write(1, S, 0);
    emit("P2 releases S");

    scenario.testAndSet(0, S);
    emit("P1 gets the S");

    scenario.testAndSet(1, S);
    scenario.testAndSet(2, S);
    emit("Others try to get S");

    os << table.render() << "\n";
    os << "Hot spot: the two failed TS attempts while P2 held the\n"
       << "lock cost " << spin_traffic
       << " bus transactions (every unsuccessful attempt pays;\n"
       << "compare Figure 6-2, where TTS spins cost zero).\n\n";

    exp::RunResult result;
    result.rendered = os.str();
    result.bus_transactions = scenario.busTransactions();
    result.setMetric("spin_traffic",
                     static_cast<double>(spin_traffic));
    return result;
}

void
printReproduction(exp::Session &session)
{
    exp::Experiment spec("fig_6_1_ts_rb",
                         "Figure 6-1: Test-and-Set on RB, per-cache "
                         "state table and spin bus traffic");
    spec.addCustom({{"lock", "TS"}, {"scheme", "RB"}}, measure);
    const auto &results = session.run(spec);
    std::cout << results[0].rendered;
}

} // namespace

DDC_BENCH_MAIN(printReproduction)
