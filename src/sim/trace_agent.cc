#include "sim/trace_agent.hh"

namespace ddc {

TraceAgent::TraceAgent(PeId pe, CacheSet caches, Trace::SharedStream stream,
                       stats::CounterSet &stats)
    : pe(pe), caches(std::move(caches)), stream(std::move(stream)),
      refs(*this->stream), stats(stats)
{
    (void)this->pe;
    statStallCycles = stats.intern("pe.stall_cycles");
}

bool
TraceAgent::done() const
{
    return !waiting && next >= refs.size();
}

void
TraceAgent::skipCycles(Cycle count)
{
    ddc_assert(waiting && !caches.hasCompletion(),
               "skipped a runnable trace agent");
    stats.add(statStallCycles, count);
}

void
TraceAgent::addStallCycles(Cycle count)
{
    stats.add(statStallCycles, count);
}

void
TraceAgent::tick()
{
    if (waiting) {
        if (!caches.hasCompletion()) {
            stats.add(statStallCycles);
            return;
        }
        caches.takeCompletion();
        waiting = false;
        completed++;
        return;
    }
    if (next >= refs.size())
        return;

    auto result = caches.access(refs[next]);
    next++;
    if (result.complete) {
        completed++;
    } else {
        waiting = true;
        stats.add(statStallCycles);
    }
}

} // namespace ddc
