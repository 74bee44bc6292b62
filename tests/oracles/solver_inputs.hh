/**
 * @file
 * Parity oracle for NetworkSim::resolveRates' input build: the
 * map-keyed composition the simulator used before its persistent flat
 * per-pair banks, kept verbatim so tests can hold the two
 * bit-identical, and bench_perf_mesh_scale can time it as the
 * "before" arm of its resolveRates speedup.
 *
 * Every call builds fresh solver inputs from the topology's matrix
 * accessors and the fluctuation banks' checked lookups, and fresh
 * std::map indexes of the group weights and share-cap entries, then
 * solves the sim's live transfers (in ascending id, the order the
 * library solves them in) without a persistent scratch. It reads no
 * rate the sim solved, so it leaves a stale sim stale.
 * net::NetworkSim names MapKeyedSolverInputs as a friend, so the
 * oracle reads the same private state resolveRates reads.
 *
 * Header-only because CMake builds each tests/<name>.cc as its own
 * suite, so a shared oracle cannot live in a separate source file.
 */

#ifndef WANIFY_TESTS_ORACLES_SOLVER_INPUTS_HH
#define WANIFY_TESTS_ORACLES_SOLVER_INPUTS_HH

#include <algorithm>
#include <cstddef>
#include <map>
#include <utility>
#include <vector>

#include "net/flow_solver.hh"
#include "net/network_sim.hh"

namespace wanify {
namespace oracle {

/** One active transfer's rate as the map-keyed input build solves it. */
struct ReferenceRate
{
    net::TransferId id = 0;
    net::FlowRate rate;
};

struct MapKeyedSolverInputs
{
    /**
     * The rates of @p sim's live transfers, in ascending id, from
     * inputs built the pre-flat way; a stopped transfer the sim has
     * not yet dropped is left out, as the sim's next solve drops it.
     */
    static std::vector<ReferenceRate>
    rates(const net::NetworkSim &sim)
    {
        using namespace net;
        using Transfer = NetworkSim::Transfer;
        using GroupSlot = NetworkSim::GroupSlot;

        // The pre-flat input builder: fresh map-keyed structures (group
        // weights and share-cap entries included) and matrix accessors
        // every call.
        const std::size_t n = sim.topology_.dcCount();

        SolverInputs inputs;
        inputs.dcCount = n;
        inputs.vmEgressCap.resize(sim.topology_.vmCount());
        inputs.vmIngressCap.resize(sim.topology_.vmCount());
        inputs.vmNicCap.resize(sim.topology_.vmCount());
        for (VmId v = 0; v < sim.topology_.vmCount(); ++v) {
            const VmType &type = sim.topology_.vm(v).type;
            const double wobble = sim.vmFluctuation_.multiplier(v);
            inputs.vmEgressCap[v] = type.wanCapMbps * wobble;
            inputs.vmIngressCap[v] = type.wanCapMbps * wobble;
            inputs.vmNicCap[v] = type.nicCapMbps * wobble;
        }
        inputs.pathCap.resize(n * n);
        for (DcId i = 0; i < n; ++i) {
            for (DcId j = 0; j < n; ++j) {
                const std::size_t pair = sim.topology_.pairIndex(i, j);
                double mult = i == j ? 1.0
                                     : sim.fluctuation_.multiplier(pair) *
                                           sim.scenarioCap_[pair];
                inputs.pathCap[pair] = sim.topology_.pathCap(i, j) * mult;
            }
        }
        inputs.tcLimit = sim.tcLimits_;

        std::map<FlowGroupId, double> groupWeight;
        for (const GroupSlot &g : sim.groups_)
            groupWeight.emplace(g.id, g.weight);
        std::map<std::pair<FlowGroupId, std::size_t>, std::size_t>
            capEntry;
        for (std::size_t e = 0; e < sim.shareCaps_.size(); ++e) {
            capEntry.emplace(std::make_pair(sim.shareCaps_[e].group,
                                            sim.shareCaps_[e].pair),
                             e);
            inputs.shareCap.push_back(sim.shareCaps_[e].cap);
        }

        std::vector<FlowSpec> specs;
        std::vector<TransferId> ids;
        specs.reserve(sim.transfers_.size());
        ids.reserve(sim.transfers_.size());
        for (const Transfer &t : sim.transfers_) {
            if (t.stopped)
                continue;
            FlowSpec spec;
            spec.srcVm = t.srcVm;
            spec.dstVm = t.dstVm;
            spec.srcDc = t.srcDc;
            spec.dstDc = t.dstDc;
            spec.connections = t.connections;
            const Seconds rtt = std::max(
                sim.topology_.rttSeconds(t.srcDc, t.dstDc) *
                    sim.scenarioRtt_[sim.topology_.pairIndex(
                        t.srcDc, t.dstDc)],
                1.0e-3);
            spec.weightPerConn =
                sim.topology_.routeQuality(t.srcDc, t.dstDc) /
                (rtt * rtt);
            spec.capPerConn = sim.topology_.connCap(t.srcDc, t.dstDc);
            if (t.group != 0) {
                auto w = groupWeight.find(t.group);
                if (w != groupWeight.end())
                    spec.weightPerConn *= w->second;
                auto e = capEntry.find(std::make_pair(
                    t.group,
                    sim.topology_.pairIndex(t.srcDc, t.dstDc)));
                if (e != capEntry.end())
                    spec.shareCap = e->second;
            }
            specs.push_back(spec);
            ids.push_back(t.id);
        }

        const auto rates = solveRates(specs, inputs, sim.config_.solver);
        std::vector<ReferenceRate> out(ids.size());
        for (std::size_t i = 0; i < ids.size(); ++i)
            out[i] = {ids[i], rates[i]};
        return out;
    }
};

} // namespace oracle
} // namespace wanify

#endif // WANIFY_TESTS_ORACLES_SOLVER_INPUTS_HH
