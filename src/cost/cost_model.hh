/**
 * @file
 * Cloud cost accounting: query costs (compute + network + storage) and
 * the BW monitoring cost model of Eq. 1.
 *
 * Query costs follow Section 5.1: compute is the instance-hour price
 * plus a $0.05/vCPU-hour unlimited-burst surcharge; network is the
 * source region's inter-region egress price per (decimal) GB; storage is
 * S3-style per GB-month.
 */

#ifndef WANIFY_COST_COST_MODEL_HH
#define WANIFY_COST_COST_MODEL_HH

#include "common/matrix.hh"
#include "common/units.hh"
#include "net/topology.hh"

namespace wanify {
namespace cost {

/** Pricing constants (AWS list prices). */
struct Pricing
{
    /** Unlimited-burst surcharge, $/vCPU-hour (Section 5.1). */
    Dollars burstPerVcpuHour = 0.05;

    /** S3 storage, $/GB-month. */
    Dollars storagePerGbMonth = 0.023;

    /** Decimal bytes per GB for network billing. */
    double bytesPerBilledGb = 1.0e9;
};

/** Cost breakdown of one query / job / monitoring activity. */
struct CostBreakdown
{
    Dollars compute = 0.0;
    Dollars network = 0.0;
    Dollars storage = 0.0;

    Dollars total() const { return compute + network + storage; }

    CostBreakdown &operator+=(const CostBreakdown &other);
};

/** Query / monitoring cost calculator bound to a topology. */
class CostModel
{
  public:
    explicit CostModel(const net::Topology &topo, Pricing pricing = {});

    /**
     * Compute cost of running every VM in the cluster for
     * @p wallClockSeconds (the paper bills whole clusters for the query
     * duration), including the burst surcharge.
     */
    Dollars clusterComputeCost(Seconds wallClockSeconds) const;

    /** Compute cost of one VM for @p seconds. */
    Dollars vmComputeCost(net::VmId vm, Seconds seconds) const;

    /**
     * Network cost of moving @p bytesByPair (ordered DC-pair matrix) —
     * source region egress pricing; intra-region traffic is free.
     */
    Dollars networkCost(const Matrix<Bytes> &bytesByPair) const;

    /** Storage cost of @p gb held for @p seconds. */
    Dollars storageCost(double gb, Seconds seconds) const;

    /** Full query breakdown. */
    CostBreakdown queryCost(Seconds wallClockSeconds,
                            const Matrix<Bytes> &bytesByPair,
                            double storedGb = 0.0) const;

  private:
    const net::Topology &topo_;
    Pricing pricing_;
};

/** Inputs of Eq. 1 — annual BW monitoring cost. */
struct MonitoringCostParams
{
    /** O: monitoring occurrences per year. */
    double occurrencesPerYear = 17520.0; ///< every 30 minutes

    /** N: nodes monitored. */
    std::size_t nodes = 8;

    /** x: average per-instance-second compute cost ($/s). */
    Dollars perInstanceSecond = 0.0052 / 3600.0; ///< t3.nano

    /** y: monitoring duration per occurrence (s). */
    Seconds duration = 20.0;

    /**
     * z: per-instance network cost per occurrence ($), e.g. 200 Mbps
     * for 20 s = 0.5 decimal GB at $0.02/GB = $0.01.
     */
    Dollars perInstanceNetwork = 0.01;
};

/** Eq. 1: O x N x (x*y + z). */
Dollars annualMonitoringCost(const MonitoringCostParams &p);

/** Occurrences per year at a fixed interval. */
double occurrencesPerYear(double intervalMinutes);

/** Per-instance network cost of exchanging @p mbps for @p secs. */
Dollars monitoringNetworkCost(Mbps mbps, Seconds secs,
                              Dollars pricePerGb = 0.02);

} // namespace cost
} // namespace wanify

#endif // WANIFY_COST_COST_MODEL_HH
