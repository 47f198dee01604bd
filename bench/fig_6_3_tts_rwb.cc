/**
 * @file
 * Figure 6-3 reproduction: Test-and-Test-and-Set under the RWB
 * scheme — the successful TS broadcasts its data, so the waiters'
 * caches are updated (R) rather than invalidated, and spins cost
 * nothing from the very first attempt.
 */

#include "bench_common.hh"

#include <iostream>
#include <sstream>

#include "sim/scenario.hh"
#include "stats/table.hh"
#include "sync/workload.hh"

namespace {

using namespace ddc;

constexpr Addr S = 0;

/**
 * Run the Figure 6-3 scenario and render its table.  A Scenario steps
 * its bus by hand and has no machine config, so the engine options
 * go unused.
 */
exp::RunResult
measure(const EngineOptions &)
{
    using stats::Table;
    std::ostringstream os;

    os <<
        "Figure 6-3: synchronization with Test-and-Test-and-Set,\n"
        "RWB scheme (three PEs, lock word S)\n\n";

    Scenario scenario(ProtocolKind::Rwb, 3);
    Table table;
    table.setHeader({"P1 Cache", "P2 Cache", "Pm Cache", "S",
                     "Observation"});

    auto emit = [&](const std::string &what) {
        std::vector<std::string> row;
        for (PeId pe = 0; pe < 3; pe++) {
            LineState line = scenario.state(pe, S);
            std::string cell{toString(line)};
            // Figure 6-3 prints F without its streak index.
            if (line.tag == LineTag::FirstWrite)
                cell = "F";
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

    scenario.read(1, S);
    scenario.testAndSet(1, S);
    emit("P2 locks S");

    // No invalidation happened: spins hit immediately, no refill read.
    auto before = scenario.busTransactions();
    for (int spin = 0; spin < 32; spin++) {
        scenario.read(0, S);
        scenario.read(2, S);
    }
    auto spin_traffic = scenario.busTransactions() - before;
    emit("Others try to get S (No Bus Traffic) (Load from Caches)");

    scenario.write(1, S, 0);
    emit("P2 releases S");

    scenario.read(0, S);
    emit("A Bus Read to S");

    scenario.testAndSet(0, S);
    emit("P1 gets the S");

    scenario.read(1, S);
    scenario.read(2, S);
    emit("Others try to get S");

    os << table.render() << "\n";
    os << "64 spin reads while the lock was held generated "
       << spin_traffic << " bus transactions.\n"
       << "vs Figure 6-2 (RB): the acquire itself causes no\n"
       << "invalidation (waiters go R(1), not I), so the waiters\n"
       << "never even pay the one refill read RB pays.\n\n";

    exp::RunResult result;
    result.rendered = os.str();
    result.bus_transactions = scenario.busTransactions();
    result.setMetric("spin_traffic",
                     static_cast<double>(spin_traffic));
    return result;
}

/**
 * Lock-latency distributions: Test-and-Set vs Test-and-Test-and-Set
 * on RWB, from the observability histograms (forced on for this
 * point, independent of --histograms).  Spinning cost shows up as
 * the lock_acquire tail: plain TS pays a bus RMW per spin, so its
 * p90/p99 inflate, while TTS spins in-cache.
 */
exp::RunResult
measureLockLatency(const EngineOptions &engine)
{
    using stats::Table;
    std::ostringstream os;

    os <<
        "Lock-latency distributions (8 PEs, RWB, 16 acquisitions/PE):\n"
        "cycles per event, from the --histograms machinery\n\n";

    Table table;
    table.setHeader({"Lock", "Histogram", "n", "mean", "p50", "p90",
                     "p99", "max"});

    exp::RunResult result;
    exp::Json histograms = exp::Json::object();
    for (auto [kind, label] :
         {std::pair{sync::LockKind::TestAndSet, "TS"},
          std::pair{sync::LockKind::TestAndTestAndSet, "TTS"}}) {
        sync::LockExperimentConfig config;
        config.system.engine() = engine;
        config.system.num_pes = 8;
        config.system.protocol = ProtocolKind::Rwb;
        config.system.histograms = true;
        config.lock = kind;
        config.acquisitions_per_pe = 16;
        config.cs_increments = 4;
        auto run = sync::runLockExperiment(config);

        auto row = [&](const char *name, const stats::Histogram &h) {
            std::ostringstream mean;
            mean << std::fixed;
            mean.precision(1);
            mean << h.mean();
            table.addRow({label, name, std::to_string(h.count()),
                          mean.str(),
                          std::to_string(h.percentile(0.50)),
                          std::to_string(h.percentile(0.90)),
                          std::to_string(h.percentile(0.99)),
                          std::to_string(h.max())});
        };
        row("lock_acquire", run.metrics.lock_acquire);
        row("lock_handoff", run.metrics.lock_handoff);
        row("miss_service", run.metrics.miss_service);

        histograms[label] = exp::histogramsJson(run.metrics);
        result.cycles += run.cycles;
        result.bus_transactions += run.bus_transactions;
        std::string prefix = std::string(label) + "_acquire_";
        result.setMetric(prefix + "p50", static_cast<double>(
                             run.metrics.lock_acquire.percentile(0.50)));
        result.setMetric(prefix + "p99", static_cast<double>(
                             run.metrics.lock_acquire.percentile(0.99)));
    }

    os << table.render() << "\n"
       << "TS spins issue bus RMWs, so every acquisition queues behind\n"
       << "the spinners and the acquire tail stretches; TTS waiters\n"
       << "spin on the cached copy and only go to the bus on release.\n\n";

    result.rendered = os.str();
    result.histograms = std::move(histograms);
    return result;
}

void
printReproduction(exp::Session &session)
{
    exp::Experiment spec("fig_6_3_tts_rwb",
                         "Figure 6-3: Test-and-Test-and-Set on RWB, "
                         "per-cache state table and spin bus traffic");
    spec.addCustom({{"lock", "TTS"}, {"scheme", "RWB"}}, measure);
    spec.addCustom({{"lock", "TS_vs_TTS"}, {"scheme", "RWB"},
                    {"figure", "lock_latency"}},
                   measureLockLatency);
    const auto &results = session.run(spec);
    std::cout << results[0].rendered;
    std::cout << results[1].rendered;
}

} // namespace

DDC_BENCH_MAIN(printReproduction)
