/**
 * @file
 * Shard-scaling bench: host wall-clock throughput of the
 * hierarchical machine as its clusters are spread over worker lanes
 * (--shards / HierConfig::shards), not a paper reproduction.
 *
 * One family: the Cm* application mix replayed on a 16-cluster x 4-PE
 * hierarchical RB machine, with the cluster shards ticked on 1, 2, 4,
 * and 8 host lanes.  Simulation results are byte-identical across the
 * axis (the parallel kernel's contract, enforced by
 * parallel_equivalence_test); only the wall clock may move.  The bench
 * checks that contract itself: it exits 1 if any rep's cycles or bus
 * transactions differ from the 1-lane arm.  Rows report the speedup
 * against the 1-lane run.
 *
 * microbench/kernel_barrier isolates the layer underneath: one kernel
 * barrier round trip over shards that do no work.
 *
 * Like perf_throughput this binary's output is host-dependent by
 * design: it forces --timing on.  Methodology (EXPERIMENTS.md):
 * measure on a Release build with --jobs 1 so points never compete
 * for cores, and read the speedup column against the host's physical
 * core count -- lanes beyond it can only timeshare.
 */

#include "bench_common.hh"

#include <cstdlib>
#include <iostream>
#include <iterator>
#include <thread>

#include "hier/hier_system.hh"
#include "stats/table.hh"
#include "trace/synthetic.hh"

namespace {

using namespace ddc;

constexpr int kClusters = 16;
constexpr int kPesPerCluster = 4;
const int kShardCounts[] = {1, 2, 4, 8};
/** Timing reps per point (the table keeps the best). */
constexpr std::size_t kReps = 3;
constexpr std::size_t kRefsPerPe = 8000;

std::string
perMega(double per_sec)
{
    if (per_sec <= 0.0)
        return "-";
    return stats::Table::num(per_sec / 1e6, 2);
}

void
printReproduction(exp::Session &session)
{
    using stats::Table;

    std::cout <<
        "Perf: hierarchical-machine shard scaling (host wall-clock;\n"
        "higher is better).  Numbers are machine-dependent -- compare\n"
        "only against the same host and build type.  This host "
        "reports\n" << std::thread::hardware_concurrency()
        << " hardware thread(s); speedup beyond that count can only\n"
        "come from timesharing noise.\n\n";

    exp::ParamGrid grid;
    grid.axis("shards", {"1", "2", "4", "8"});
    // Reps are the innermost axis; single wall-clock samples on a
    // shared host swing by 10%+, and min-time is the standard
    // noise-robust estimator.
    grid.axis("rep", {"0", "1", "2"});

    // The trace is generated up front: point lambdas run inside the
    // timed region, and trace synthesis would dilute the lane-count
    // wall-clock ratio this bench exists to measure.
    auto trace = makeCmStarTrace(cmStarApplicationA(),
                                 kClusters * kPesPerCluster,
                                 kRefsPerPe, 5);

    exp::Experiment spec(
        "perf_parallel_shards",
        "Hierarchical-machine throughput on the Cm* application mix "
        "(RB, 16 clusters x 4 PEs) vs worker-lane count; results are "
        "byte-identical across the shards axis by contract");
    for (std::size_t point = 0; point < grid.size(); point++) {
        auto indices = grid.indicesAt(point);
        int shards = kShardCounts[indices[0]];
        spec.addCustom(grid.paramsAt(point), [shards, &trace]() {
            hier::HierConfig config;
            config.num_clusters = kClusters;
            config.pes_per_cluster = kPesPerCluster;
            config.cache_lines = 256;
            config.protocol = ProtocolKind::Rb;
            config.shards = shards;
            hier::HierSystem system(config);
            system.loadTrace(trace);
            exp::RunResult result;
            result.cycles = system.run();
            result.skipped_cycles = system.skippedCycles();
            result.bus_transactions = system.globalBusTransactions() +
                                      system.clusterBusTransactions();
            result.barrier_epochs = system.barrierEpochs();
            result.setMetric("tick_phase_ms",
                             system.kernelTickPhaseMs());
            result.setMetric("barrier_wait_ms",
                             system.kernelBarrierWaitMs());
            result.setMetric(
                "hardware_concurrency",
                static_cast<double>(
                    std::thread::hardware_concurrency()));
            return result;
        });
    }
    const auto &results = session.run(spec);

    // Best rep (highest sim rate) of the arm starting at flat index
    // @p first; reps are the innermost axis, so they are contiguous.
    auto bestRep = [&results](std::size_t first) -> const auto & {
        const auto *best = &results[first];
        for (std::size_t r = 1; r < kReps; r++) {
            const auto &rep = results[first + r];
            if (rep.sim_cycles_per_sec > best->sim_cycles_per_sec)
                best = &rep;
        }
        return *best;
    };

    Table table("Shard scaling: Cm* mix, RB, 16 clusters x 4 PEs, "
                "8000 refs/PE, best of 3 reps");
    table.setHeader({"shards", "cycles", "bus txns", "epochs",
                     "tick ms", "barrier ms", "wall ms",
                     "Mcycles/s", "speedup"});
    const auto &baseline = bestRep(0);
    for (std::size_t i = 0; i < std::size(kShardCounts); i++) {
        const auto &best = bestRep(kReps * i);
        // Every arm simulates identical cycles, so the sim-rate ratio
        // is the wall-clock ratio, undiluted by point setup.
        double speedup = baseline.sim_cycles_per_sec > 0.0
                             ? best.sim_cycles_per_sec /
                                   baseline.sim_cycles_per_sec
                             : 0.0;
        // Sequential arms (one lane) never barrier, so the epoch and
        // phase-split columns are meaningless there.
        bool barriered = best.barrier_epochs > 0;
        table.addRow({std::to_string(kShardCounts[i]),
                      std::to_string(best.cycles),
                      std::to_string(best.bus_transactions),
                      barriered ? std::to_string(best.barrier_epochs)
                                : "-",
                      barriered
                          ? Table::num(best.metric("tick_phase_ms"), 2)
                          : "-",
                      barriered
                          ? Table::num(best.metric("barrier_wait_ms"), 2)
                          : "-",
                      Table::num(best.wall_time_ms, 2),
                      perMega(best.sim_cycles_per_sec),
                      Table::num(speedup, 2)});
    }
    std::cout << table.render() << "\n";

    // The lane count is a host knob only: every rep of every arm must
    // simulate exactly what the 1-lane arm did.
    const auto &serial = results[0];
    for (std::size_t point = 1; point < results.size(); point++) {
        const auto &rep = results[point];
        if (rep.cycles == serial.cycles &&
            rep.bus_transactions == serial.bus_transactions) {
            continue;
        }
        std::cout.flush();
        std::cerr << "perf_parallel: shards "
                  << kShardCounts[point / kReps] << " rep "
                  << point % kReps << " ran " << rep.cycles
                  << " cycles and " << rep.bus_transactions
                  << " bus txns, the 1-lane arm " << serial.cycles
                  << " and " << serial.bus_transactions << "\n";
        std::exit(1);
    }
}

} // namespace

// This bench measures the simulator itself, so it forces --timing on,
// plus the kernel profile behind the tick/barrier phase-split columns:
// its JSON is host-dependent on purpose.
DDC_BENCH_MAIN(printReproduction, ddc::bench::Forced::TimingAndProfile)
