/**
 * @file
 * Layer microbenchmark: one kernel barrier round trip.
 *
 * One shard per lane, each holding an idle agent, so every epoch is
 * the epoch release, an empty tick on each lane, and the arrival
 * wait.  Each iteration runs one one-cycle epoch, so the reported
 * time is ns per epoch, at 2, 4 and 8 lanes.  The lane pool starts on
 * the first run and persists across iterations.
 *
 *   build/microbench/kernel_barrier
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "sim/agent.hh"
#include "sim/kernel.hh"

namespace {

using namespace ddc;

/** An agent that is never done and does nothing: a pure barrier load. */
class IdleAgent : public Agent
{
  public:
    void tick() override {}
    bool done() const override { return false; }
};

void
BM_KernelBarrier(benchmark::State &state)
{
    const auto lanes = static_cast<int>(state.range(0));
    Clock clock;
    KernelConfig config;
    config.shards = lanes;
    Kernel kernel(clock, config);
    std::vector<IdleAgent> agents(static_cast<std::size_t>(lanes));
    for (IdleAgent &agent : agents) {
        Shard &shard = kernel.makeShard(1, 1);
        shard.setAgent(0, &agent);
        shard.rebuild();
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(kernel.run(1));
    state.counters["epochs"] = static_cast<double>(kernel.barrierEpochs());
}
BENCHMARK(BM_KernelBarrier)
    ->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kNanosecond);

} // namespace

BENCHMARK_MAIN();
