#include "exp/experiment.hh"

#include "base/logging.hh"

namespace ddc {
namespace exp {

void
ParamGrid::axis(std::string name, std::vector<std::string> labels)
{
    ddc_assert(!labels.empty(), "grid axis needs at least one value");
    axes.push_back({std::move(name), std::move(labels)});
}

std::size_t
ParamGrid::size() const
{
    std::size_t product = 1;
    for (const auto &axis : axes)
        product *= axis.labels.size();
    return product;
}

std::vector<std::size_t>
ParamGrid::indicesAt(std::size_t flat) const
{
    ddc_assert(flat < size(), "grid index out of range");
    std::vector<std::size_t> indices(axes.size(), 0);
    for (std::size_t axis = axes.size(); axis-- > 0;) {
        std::size_t extent = axes[axis].labels.size();
        indices[axis] = flat % extent;
        flat /= extent;
    }
    return indices;
}

ParamList
ParamGrid::paramsAt(std::size_t flat) const
{
    auto indices = indicesAt(flat);
    ParamList params;
    for (std::size_t axis = 0; axis < axes.size(); axis++)
        params.emplace_back(axes[axis].name,
                            axes[axis].labels[indices[axis]]);
    return params;
}

Experiment::Experiment(std::string name, std::string description)
    : name_(std::move(name)), description_(std::move(description))
{
}

void
Experiment::addRun(ParamList params,
                   std::function<TraceRun(const EngineOptions &)> make)
{
    ddc_assert(make != nullptr, "trace point needs a factory");
    points_.push_back({std::move(params), std::move(make), nullptr});
}

void
Experiment::addCustom(ParamList params,
                      std::function<RunResult(const EngineOptions &)> run)
{
    ddc_assert(run != nullptr, "custom point needs a callable");
    points_.push_back({std::move(params), nullptr, std::move(run)});
}

void
Experiment::addGrid(
    const ParamGrid &grid,
    std::function<TraceRun(std::size_t, const EngineOptions &)> make)
{
    for (std::size_t flat = 0; flat < grid.size(); flat++) {
        addRun(grid.paramsAt(flat),
               [make, flat](const EngineOptions &engine) {
                   return make(flat, engine);
               });
    }
}

} // namespace exp
} // namespace ddc
