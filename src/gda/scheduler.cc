#include "gda/scheduler.hh"

#include <algorithm>

#include "common/error.hh"

namespace wanify {
namespace gda {

Seconds
plannedTransferTime(const Matrix<Mbps> &bw,
                    const core::BwForecast *forecast, net::DcId i,
                    net::DcId j, Bytes bytes, double share,
                    Seconds start)
{
    if (forecast != nullptr && !forecast->empty())
        return forecast->transferTime(i, j, bytes, share, start);
    return units::transferTime(
        bytes, std::max(core::BwForecast::kMinFeasibleMbps,
                        bw.at(i, j) * share));
}

Seconds
estimateStageTime(const StageContext &ctx,
                  const Matrix<Bytes> &assignment)
{
    if (ctx.topo == nullptr || ctx.bw == nullptr || ctx.stage == nullptr)
        panic("estimateStageTime: incomplete context");
    const std::size_t n = ctx.topo->dcCount();
    if (assignment.rows() != n || assignment.cols() != n)
        fatal("estimateStageTime: assignment shape mismatch");
    if (!(ctx.wanShare > 0.0) || ctx.wanShare > 1.0)
        fatal("estimateStageTime: wanShare must be in (0, 1]");
    const core::BwForecast *fc =
        ctx.forecast != nullptr && !ctx.forecast->empty()
            ? ctx.forecast
            : nullptr;
    if (fc != nullptr && fc->dcCount() != n)
        fatal("estimateStageTime: forecast size mismatch");

    // Aggregate WAN capacity per DC (endpoint VM's throttle; transfers
    // into/out of a DC share its NIC no matter what the per-pair BW
    // says).
    // The shuffle-endpoint NIC is shared across concurrent queries
    // exactly like the links are (every query bills traffic to the
    // same endpoint VM), so the granted share scales it too.
    std::vector<Mbps> wanCap(n, 1.0);
    for (std::size_t d = 0; d < n; ++d)
        wanCap[d] = std::max(
            1.0, ctx.topo->vm(ctx.topo->endpointVm(d)).type.wanCapMbps *
                     ctx.wanShare);

    // Per destination: slowest inbound link (transfers overlap),
    // floored by the aggregate ingress time, plus local compute on
    // everything assigned there. Egress aggregation is folded in via
    // the source side of the same pass.
    std::vector<Bytes> outBytes(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            if (i != j)
                outBytes[i] += assignment.at(i, j);

    Seconds worst = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
        Seconds slowestIn = 0.0;
        Bytes atJ = 0.0;
        Bytes inbound = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const Bytes bytes = assignment.at(i, j);
            atJ += bytes;
            if (i == j || bytes <= 0.0)
                continue;
            inbound += bytes;
            // Plan with only the WAN share this query was granted:
            // concurrent queries consume the rest of the link, so
            // assuming the full believed BW would systematically
            // under-estimate transfer time under a resident service.
            const Seconds linkTime =
                plannedTransferTime(*ctx.bw, fc, i, j, bytes,
                                    ctx.wanShare, ctx.planTime);
            slowestIn = std::max(slowestIn, linkTime);
        }
        const Seconds aggregateIn =
            units::transferTime(inbound, wanCap[j]);
        const Seconds aggregateOut =
            units::transferTime(outBytes[j], wanCap[j]);
        const Seconds network =
            std::max({slowestIn, aggregateIn, aggregateOut});
        const double rate = std::max(1.0e-9, ctx.computeRate[j]);
        const Seconds compute =
            units::toMegabytes(atJ) * ctx.stage->workPerMb / rate;
        worst = std::max(worst, network + compute);
    }
    return worst;
}

Dollars
estimateStageCost(const StageContext &ctx,
                  const Matrix<Bytes> &assignment)
{
    if (ctx.topo == nullptr)
        panic("estimateStageCost: missing topology");
    const std::size_t n = ctx.topo->dcCount();
    Dollars total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            if (i == j)
                continue;
            const double gb = assignment.at(i, j) / 1.0e9;
            total += gb * ctx.egressPrice[i];
        }
    }
    return total;
}

void
assignmentFromFractionsInto(const std::vector<Bytes> &inputByDc,
                            const std::vector<double> &fractions,
                            Matrix<Bytes> &out)
{
    const std::size_t n = inputByDc.size();
    if (fractions.size() != n)
        fatal("assignmentFromFractions: size mismatch");
    if (out.rows() != n || out.cols() != n)
        out = Matrix<Bytes>::square(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            out.at(i, j) = inputByDc[i] * fractions[j];
}

Matrix<Bytes>
assignmentFromFractions(const std::vector<Bytes> &inputByDc,
                        const std::vector<double> &fractions)
{
    Matrix<Bytes> a;
    assignmentFromFractionsInto(inputByDc, fractions, a);
    return a;
}

} // namespace gda
} // namespace wanify
