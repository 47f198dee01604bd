/**
 * @file
 * Ablation A4: memory reliability from cache replication (Section 8
 * future work, quantified).  "If the value of a variable is corrupted
 * while in memory or in some cache, there is a higher probability
 * that some cache contains a correct copy" (Section 5, arguing for
 * RWB).  For each scheme we run shared-data workloads, census the
 * live replicas of every shared word, and run a randomized
 * memory-fault-injection campaign measuring how many single-word
 * faults are repairable from cache copies.
 */

#include "bench_common.hh"

#include <iostream>

#include "reliability/replication.hh"
#include "stats/table.hh"
#include "trace/synthetic.hh"

namespace {

using namespace ddc;

/** Run one (scheme, workload) point and report the replication data. */
exp::RunResult
measure(ProtocolKind kind, const Trace &trace, std::uint64_t footprint,
        const EngineOptions &engine)
{
    SystemConfig config;
    config.engine() = engine;
    config.num_pes = trace.numPes();
    config.cache_lines = 256;
    config.protocol = kind;
    System system(config);
    system.loadTrace(trace);
    system.run();

    std::vector<Addr> addrs;
    for (Addr a = 0; a < footprint; a++)
        addrs.push_back(sharedBase() + a);

    auto census = reliability::measureReplication(system, addrs);
    Rng rng(99);
    auto campaign =
        reliability::runMemoryFaultCampaign(system, addrs, 2000, rng);

    exp::RunResult result;
    result.cycles = system.now();
    result.total_refs = trace.totalRefs();
    result.bus_transactions = system.totalBusTransactions();
    result.setMetric("mean_copies", census.meanCopies());
    result.setMetric("redundant_fraction", census.redundantFraction());
    result.setMetric("recovery_rate", campaign.recoveryRate());
    return result;
}

void
printReproduction(exp::Session &session)
{
    using stats::Table;

    std::cout <<
        "Ablation A4: replication-based memory reliability\n"
        "(Section 5/8: RWB's write broadcast keeps more live copies)\n\n"
        "For each scheme: mean correct copies per shared word (memory\n"
        "included), fraction of words with >=2 copies, and recovery\n"
        "rate over 2000 injected single-word memory faults.\n\n";

    struct Workload
    {
        const char *name;
        Trace trace;
        std::uint64_t footprint;
    };
    std::vector<Workload> workloads;
    workloads.push_back({"producer_consumer",
                         makeProducerConsumerTrace(4, 16, 8, 2), 16});
    workloads.push_back({"migratory", makeMigratoryTrace(4, 8, 24), 8});
    workloads.push_back({"uniform_random",
                         makeUniformRandomTrace(4, 4000, 32, 0.3, 0.05,
                                                21),
                         32});
    auto kinds = allProtocolKinds();

    exp::ParamGrid grid;
    {
        std::vector<std::string> names;
        for (const auto &workload : workloads)
            names.push_back(workload.name);
        grid.axis("workload", names);
        std::vector<std::string> protocols;
        for (auto kind : kinds)
            protocols.push_back(std::string(toString(kind)));
        grid.axis("protocol", protocols);
    }

    exp::Experiment spec("ablation_reliability",
                         "A4: replica census and fault-injection "
                         "recovery rate by scheme and workload");
    for (std::size_t flat = 0; flat < grid.size(); flat++) {
        auto indices = grid.indicesAt(flat);
        auto kind = kinds[indices[1]];
        const auto &workload = workloads[indices[0]];
        Trace trace = workload.trace;
        auto footprint = workload.footprint;
        spec.addCustom(grid.paramsAt(flat), [kind, trace, footprint](
                                                const EngineOptions &engine) {
            return measure(kind, trace, footprint, engine);
        });
    }
    const auto &results = session.run(spec);

    std::size_t flat = 0;
    for (const auto &workload : workloads) {
        Table table(std::string("Workload: ") + workload.name);
        table.setHeader({"scheme", "mean copies/word", ">=2 copies",
                         "fault recovery rate"});
        for (auto kind : kinds) {
            const auto &result = results[flat++];
            table.addRow({std::string(toString(kind)),
                          Table::num(result.metric("mean_copies"), 2),
                          Table::num(result.metric("redundant_fraction"),
                                     2),
                          Table::num(result.metric("recovery_rate"), 2)});
        }
        std::cout << table.render() << "\n";
    }
    std::cout <<
        "Expected shape: RWB >= RB on every metric (update-broadcast\n"
        "keeps invalidated copies alive as replicas); CmStar is worst\n"
        "(shared words live only in memory).\n\n";
}

} // namespace

DDC_BENCH_MAIN(printReproduction)
