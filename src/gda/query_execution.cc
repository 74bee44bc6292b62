#include "gda/query_execution.hh"

#include "common/error.hh"
#include "scenario/scenario.hh"

namespace wanify {
namespace gda {

using net::DcId;

const fault::FaultPlan &
resolveFaultPlan(const fault::FaultPlan *explicitPlan,
                 const scenario::Dynamics *dynamics, std::size_t dcCount,
                 const std::string &owner)
{
    static const fault::FaultPlan none;
    const fault::FaultPlan *plan = explicitPlan;
    if (plan == nullptr && dynamics != nullptr)
        plan = dynamics->faultPlan();
    if (plan == nullptr || plan->empty())
        return none;
    if (plan->dcCount() != dcCount)
        fatal(owner + ": fault plan compiled for a different cluster size");
    return *plan;
}

QueryExecution::QueryExecution(const net::Topology &topo,
                               const JobSpec &job,
                               std::vector<Bytes> input)
    : topo_(&topo),
      job_(&job),
      computeRate_(topo.dcCount(), 0.0),
      input_(std::move(input)),
      pairs_(topo.dcCount()),
      pendingPerPair_(pairs_.size(), 0)
{
    for (DcId dc = 0; dc < topo.dcCount(); ++dc)
        for (net::VmId v : topo.dc(dc).vms)
            computeRate_[dc] += topo.vm(v).type.computeRate;
}

void
QueryExecution::restart(std::vector<Bytes> input)
{
    stage_ = 0;
    input_ = std::move(input);
    clearPending();
    retired_.clear();
}

void
QueryExecution::erasePending(Transfers::iterator it)
{
    const std::size_t pair = pairs_(it->second.src, it->second.dst);
    pending_.erase(it);
    if (--pendingPerPair_[pair] == 0)
        pendingPairs_.erase(std::lower_bound(pendingPairs_.begin(),
                                             pendingPairs_.end(), pair));
}

void
QueryExecution::clearPending()
{
    for (const std::size_t pair : pendingPairs_)
        pendingPerPair_[pair] = 0;
    pendingPairs_.clear();
    pending_.clear();
}

StageContext
QueryExecution::context(const std::vector<Bytes> &input,
                        const Matrix<Mbps> &bw)
{
    StageContext ctx;
    ctx.topo = topo_;
    ctx.bw = &bw;
    ctx.inputByDc = input;
    ctx.stage = &stageSpec();
    ctx.stageIndex = stage_;
    ctx.computeRate = computeRate_;
    for (DcId dc = 0; dc < topo_->dcCount(); ++dc)
        ctx.egressPrice.push_back(topo_->dc(dc).region.egressPerGb);
    ctx.memory = &memory_;
    return ctx;
}

Matrix<Bytes>
QueryExecution::place(Scheduler &scheduler, StageContext ctx,
                      const core::BwForecast &forecast, Seconds now)
{
    if (!forecast.empty()) {
        ctx.forecast = &forecast;
        ctx.planTime = now;
    }
    Matrix<Bytes> placed = scheduler.placeStage(ctx);
    if (placed.rows() != computeRate_.size() ||
        placed.cols() != computeRate_.size())
        fatal("scheduler assignment shape mismatch");
    return placed;
}

ShuffleTransfer &
QueryExecution::start(net::NetworkSim &sim, DcId src, DcId dst,
                      Bytes bytes, int connections,
                      net::FlowGroupId group, std::size_t attempt)
{
    const net::TransferId id =
        sim.startTransfer(topo_->endpointVm(src), topo_->endpointVm(dst),
                          bytes, connections, group);
    const std::size_t pair = pairs_(src, dst);
    if (pendingPerPair_[pair]++ == 0)
        pendingPairs_.insert(std::lower_bound(pendingPairs_.begin(),
                                              pendingPairs_.end(), pair),
                             pair);
    ShuffleTransfer &t = pending_[id];
    t.src = src;
    t.dst = dst;
    t.bytes = bytes;
    t.started = sim.now();
    t.connections = connections;
    t.attempt = attempt;
    return t;
}

std::optional<ShuffleTransfer>
QueryExecution::complete(const net::CompletionRecord &rec)
{
    const auto it = pending_.find(rec.id);
    if (it == pending_.end())
        return std::nullopt;
    ShuffleTransfer t = it->second;
    erasePending(it);
    t.done = rec.time;
    landed(t.dst, t.done);
    return t;
}

std::optional<ShuffleTransfer>
QueryExecution::stop(net::NetworkSim &sim, net::TransferId id,
                     Bytes minKept)
{
    const auto it = pending_.find(id);
    if (it == pending_.end())
        return std::nullopt;
    const net::TransferStatus st = sim.status(id);
    if (!st.exists || st.bytesRemaining < 1.0)
        return std::nullopt; // effectively delivered; completion owns it
    ShuffleTransfer t = it->second;
    assignment_.at(t.src, t.dst) -= st.bytesRemaining;
    if (st.bytesMoved >= minKept) {
        ShuffleTransfer part = t;
        part.bytes = st.bytesMoved;
        part.done = sim.now();
        landed(part.dst, part.done);
        retired_.push_back(part);
    }
    sim.stopTransfer(id);
    erasePending(it);
    t.bytes = st.bytesRemaining;
    return t;
}

std::optional<ShuffleTransfer>
QueryExecution::redispatch(net::NetworkSim &sim, net::TransferId id,
                           int connections, net::FlowGroupId group)
{
    const auto it = pending_.find(id);
    if (it == pending_.end())
        return std::nullopt;
    const ShuffleTransfer old = it->second;
    const Bytes remaining = sim.status(id).bytesRemaining;
    sim.stopTransfer(id);
    erasePending(it);
    if (remaining < 1.0)
        return std::nullopt;
    ShuffleTransfer &t =
        start(sim, old.src, old.dst, remaining, connections, group);
    t.expected = old.expected;
    t.redispatches = old.redispatches + 1;
    return t;
}

std::vector<Bytes>
QueryExecution::stopInFlight(net::NetworkSim &sim)
{
    std::vector<Bytes> undelivered(computeRate_.size(), 0.0);
    for (auto it = pending_.begin(); it != pending_.end();) {
        const net::TransferId id = (it++)->first; // stop() erases id
        if (const auto rest = stop(sim, id, 0.0))
            undelivered[rest->src] += rest->bytes;
    }
    return undelivered;
}

void
QueryExecution::abandon(net::NetworkSim &sim)
{
    for (auto &[id, t] : pending_) {
        sim.stopTransfer(id);
        t.done = sim.now();
        landed(t.dst, t.done);
        retired_.push_back(t);
    }
    clearPending();
}

std::vector<net::TransferId>
QueryExecution::killedBy(const fault::FaultEvent &fault) const
{
    std::vector<net::TransferId> hit;
    for (const auto &[id, t] : pending_)
        if (fault.killsTransfer(t.src, t.dst))
            hit.push_back(id);
    return hit;
}

Seconds
QueryExecution::computeEnd(Seconds now)
{
    const StageSpec &spec = stageSpec();
    const std::size_t n = computeRate_.size();
    nextInput_.assign(n, 0.0);
    Seconds end = now;
    for (DcId j = 0; j < n; ++j) {
        Bytes atJ = 0.0;
        for (DcId i = 0; i < n; ++i)
            atJ += assignment_.at(i, j);
        const double rate = std::max(1.0e-9, computeRate_[j]);
        const Seconds compute =
            units::toMegabytes(atJ) * spec.workPerMb / rate;
        end = std::max(end, landed_[j] + compute);
        nextInput_[j] = atJ * spec.selectivity;
    }
    return end;
}

void
QueryExecution::nextStage()
{
    input_ = std::move(nextInput_);
    ++stage_;
    clearPending();
    retired_.clear();
}

} // namespace gda
} // namespace wanify
