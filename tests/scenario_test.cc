/**
 * @file
 * Tests for the scenario engine: event semantics, deterministic
 * replay, CSV trace round-trips, the drift detector firing end to
 * end, and engine/runner integration under dynamics.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <algorithm>
#include <set>

#include "common/error.hh"
#include "core/bandwidth_analyzer.hh"
#include "experiments/predictor_factory.hh"
#include "experiments/runner.hh"
#include "experiments/testbed.hh"
#include "gda/engine.hh"
#include "sched/locality.hh"
#include "sched/tetrium.hh"
#include "scenario/driver.hh"
#include "scenario/library.hh"
#include "scenario/trace.hh"
#include "storage/hdfs.hh"
#include "workloads/terasort.hh"
#include "expect_what.hh"

using namespace wanify;
using namespace wanify::scenario;
using wanify::test::whatOf;

namespace {

net::Topology
topo4()
{
    return experiments::workerCluster(4, 2);
}

/** A temp file path unique to this test binary. */
std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "wanify_scenario_" + name;
}

} // namespace

// ---- timeline event semantics ----------------------------------------------

TEST(ScenarioTimeline, OutageWindowAndRecovery)
{
    ScenarioSpec spec;
    spec.name = "t";
    ScenarioEvent ev;
    ev.kind = EventKind::Outage;
    ev.src = 1;
    ev.dst = kAnyDc;
    ev.start = 10.0;
    ev.duration = 20.0;
    ev.residual = 0.05;
    spec.events.push_back(ev);
    const ScenarioTimeline timeline(spec, 4, 1);

    EXPECT_DOUBLE_EQ(timeline.capFactor(1, 2, 9.9), 1.0);
    EXPECT_DOUBLE_EQ(timeline.capFactor(1, 2, 10.0), 0.05);
    EXPECT_DOUBLE_EQ(timeline.capFactor(1, 2, 29.9), 0.05);
    EXPECT_DOUBLE_EQ(timeline.capFactor(1, 2, 30.0), 1.0);
    // Selector: only row 1 is affected.
    EXPECT_DOUBLE_EQ(timeline.capFactor(2, 1, 15.0), 1.0);
    // Diagonal is always 1.
    EXPECT_DOUBLE_EQ(timeline.capFactor(1, 1, 15.0), 1.0);
}

TEST(ScenarioTimeline, DiurnalBoundsAndPeriodicity)
{
    ScenarioSpec spec;
    spec.name = "t";
    ScenarioEvent ev;
    ev.kind = EventKind::Diurnal;
    ev.start = 0.0;
    ev.magnitude = 0.4;
    ev.period = 100.0;
    spec.events.push_back(ev);
    const ScenarioTimeline timeline(spec, 4, 1);

    for (double t = 0.0; t <= 300.0; t += 7.0) {
        const double f = timeline.capFactor(0, 1, t);
        EXPECT_GE(f, 0.6 - 1e-12);
        EXPECT_LE(f, 1.0 + 1e-12);
    }
    EXPECT_NEAR(timeline.capFactor(0, 1, 0.0), 1.0, 1e-12);
    EXPECT_NEAR(timeline.capFactor(0, 1, 50.0), 0.6, 1e-12);
    EXPECT_NEAR(timeline.capFactor(0, 1, 100.0), 1.0, 1e-12);
}

TEST(ScenarioTimeline, DegradationRampsAndHolds)
{
    ScenarioSpec spec;
    spec.name = "t";
    ScenarioEvent ev;
    ev.kind = EventKind::Degradation;
    ev.src = 0;
    ev.dst = 3;
    ev.start = 10.0;
    ev.duration = 40.0;
    ev.magnitude = 0.8;
    spec.events.push_back(ev);
    const ScenarioTimeline timeline(spec, 4, 1);

    EXPECT_DOUBLE_EQ(timeline.capFactor(0, 3, 5.0), 1.0);
    EXPECT_NEAR(timeline.capFactor(0, 3, 30.0), 0.6, 1e-12);
    EXPECT_NEAR(timeline.capFactor(0, 3, 50.0), 0.2, 1e-12);
    EXPECT_NEAR(timeline.capFactor(0, 3, 500.0), 0.2, 1e-12);
}

TEST(ScenarioTimeline, RttInflationOnlyTouchesRtt)
{
    ScenarioSpec spec;
    spec.name = "t";
    ScenarioEvent ev;
    ev.kind = EventKind::RttInflation;
    ev.start = 0.0;
    ev.duration = 50.0;
    ev.magnitude = 1.5;
    spec.events.push_back(ev);
    const ScenarioTimeline timeline(spec, 4, 1);

    EXPECT_DOUBLE_EQ(timeline.capFactor(0, 1, 25.0), 1.0);
    EXPECT_DOUBLE_EQ(timeline.rttFactor(0, 1, 25.0), 2.5);
    EXPECT_DOUBLE_EQ(timeline.rttFactor(0, 1, 60.0), 1.0);
}

TEST(ScenarioTimeline, ValidatesEvents)
{
    ScenarioSpec spec;
    spec.name = "t";
    ScenarioEvent ev;
    ev.kind = EventKind::Outage;
    ev.src = 9; // out of range for 4 DCs
    spec.events.push_back(ev);
    EXPECT_THROW(ScenarioTimeline(spec, 4, 1), FatalError);

    spec.events[0].src = 0;
    spec.events[0].magnitude = 1.5;
    EXPECT_THROW(ScenarioTimeline(spec, 4, 1), FatalError);
}

TEST(ScenarioTimeline, JitterIsDeterministicPerSeed)
{
    ScenarioSpec spec;
    spec.name = "t";
    ScenarioEvent ev;
    ev.kind = EventKind::Outage;
    ev.start = 50.0;
    ev.duration = 10.0;
    ev.startJitter = 40.0;
    spec.events.push_back(ev);

    const ScenarioTimeline a(spec, 4, 7);
    const ScenarioTimeline b(spec, 4, 7);
    const ScenarioTimeline c(spec, 4, 8);
    bool anyDiffer = false;
    for (double t = 40.0; t <= 110.0; t += 1.0) {
        EXPECT_DOUBLE_EQ(a.capFactor(0, 1, t), b.capFactor(0, 1, t));
        anyDiffer |=
            a.capFactor(0, 1, t) != c.capFactor(0, 1, t);
    }
    EXPECT_TRUE(anyDiffer);
}

// ---- library ----------------------------------------------------------------

TEST(ScenarioLibrary, HasAtLeastSixScenariosAndAllCompile)
{
    const auto names = libraryScenarioNames();
    EXPECT_GE(names.size(), 6u);
    for (const auto &name : names) {
        const auto spec = libraryScenario(name);
        EXPECT_EQ(spec.name, name);
        EXPECT_FALSE(spec.description.empty());
        // Every library scenario must compile for 4- and 8-DC
        // clusters.
        ScenarioTimeline(spec, 4, 1);
        ScenarioTimeline(spec, 8, 1);
        EXPECT_TRUE(isLibraryScenario(name));
    }
    EXPECT_FALSE(isLibraryScenario("no-such-scenario"));
    EXPECT_THROW(libraryScenario("no-such-scenario"), FatalError);
}

// ---- scenario-conditioned analyzer campaigns --------------------------------

namespace {

core::AnalyzerConfig
campaignConfig(std::size_t meshes)
{
    core::AnalyzerConfig cfg;
    cfg.clusterSizes = {4};
    cfg.meshesPerSize = meshes;
    cfg.sim = experiments::defaultSimConfig();
    cfg.dynamics = campaignDynamics();
    return cfg;
}

/** Smallest stable BW over every mesh's off-diagonal pairs. */
Mbps
minStableBw(const std::vector<core::CollectedMesh> &meshes)
{
    Mbps lo = -1.0;
    for (const auto &mesh : meshes) {
        const std::size_t n = mesh.clusterSize;
        for (net::DcId i = 0; i < n; ++i) {
            for (net::DcId j = 0; j < n; ++j) {
                if (i == j)
                    continue;
                const Mbps bw = mesh.stableBw.at(i, j);
                lo = lo < 0.0 ? bw : std::min(lo, bw);
            }
        }
    }
    return std::max(0.0, lo);
}

} // namespace

TEST(AnalyzerCampaign, MeshSeedsAreCollisionFree)
{
    // The shared predictor's campaign: 4 sizes x 24 meshes. Every
    // mesh must get its own warm-up stream (the old scheme reused
    // one stream per size).
    core::AnalyzerConfig cfg;
    cfg.clusterSizes = {2, 4, 6, 8};
    cfg.meshesPerSize = 24;
    const auto seeds =
        core::BandwidthAnalyzer::meshSeeds(cfg, 20250042);
    ASSERT_EQ(seeds.size(), 96u);
    std::set<std::uint64_t> unique(seeds.begin(), seeds.end());
    EXPECT_EQ(unique.size(), seeds.size());
}

TEST(AnalyzerCampaign, ConditionedCollectionIsDeterministic)
{
    core::BandwidthAnalyzer analyzer(campaignConfig(9));
    const auto a = analyzer.collectMeshes(7);
    const auto b = analyzer.collectMeshes(7);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t m = 0; m < a.size(); ++m) {
        ASSERT_EQ(a[m].clusterSize, b[m].clusterSize);
        for (net::DcId i = 0; i < 4; ++i) {
            for (net::DcId j = 0; j < 4; ++j) {
                EXPECT_DOUBLE_EQ(a[m].snapshotBw.at(i, j),
                                 b[m].snapshotBw.at(i, j));
                EXPECT_DOUBLE_EQ(a[m].stableBw.at(i, j),
                                 b[m].stableBw.at(i, j));
            }
        }
    }
}

TEST(AnalyzerCampaign, ConditioningCoversDriftedRegimes)
{
    // Three cycles through the library: some meshes land inside
    // outage/degradation windows, so the campaign's worst-case
    // stable BW sits far below anything a stationary campaign sees.
    core::BandwidthAnalyzer conditioned(campaignConfig(27));
    auto stationaryCfg = campaignConfig(9);
    stationaryCfg.dynamics = nullptr;
    core::BandwidthAnalyzer stationary(stationaryCfg);

    const auto condMeshes = conditioned.collectMeshes(7);
    const auto statMeshes = stationary.collectMeshes(7);
    const Mbps condMin = minStableBw(condMeshes);
    const Mbps statMin = minStableBw(statMeshes);
    EXPECT_LT(condMin, 0.7 * statMin);

    // Round-trip into training rows: one per ordered pair per mesh.
    const auto data = conditioned.flatten(condMeshes, 7);
    EXPECT_EQ(data.size(), condMeshes.size() * 4 * 3);
}

TEST(AnalyzerCampaign, IncrementalAbsorbAccumulatesRows)
{
    core::AnalyzerConfig cfg;
    cfg.clusterSizes = {4};
    cfg.meshesPerSize = 2;
    cfg.sim = experiments::defaultSimConfig();
    core::BandwidthAnalyzer analyzer(cfg);
    const auto meshes = analyzer.collectMeshes(11);
    ASSERT_EQ(meshes.size(), 2u);

    const auto topo = experiments::workerCluster(4, 2);
    EXPECT_EQ(analyzer.incremental().size(), 0u);
    EXPECT_EQ(analyzer.absorb(topo, meshes, 12), 24u);
    EXPECT_EQ(analyzer.incremental().size(), 24u);
    EXPECT_EQ(analyzer.absorb(topo, meshes, 13), 24u);
    EXPECT_EQ(analyzer.incremental().size(), 48u);
}

// ---- driver determinism and drift ------------------------------------------

TEST(ScenarioDriver, SameSpecAndSeedIsBitIdentical)
{
    const auto topo = topo4();
    const auto spec = libraryScenario("cascading");
    DriveConfig cfg;
    cfg.seed = 31337;
    cfg.horizon = 120.0;
    const auto a = driveScenario(spec, topo, cfg);
    const auto b = driveScenario(spec, topo, cfg);
    EXPECT_TRUE(a.trace.identical(b.trace));
    EXPECT_EQ(a.trace.hash(), b.trace.hash());
    EXPECT_EQ(a.retrainTriggers, b.retrainTriggers);

    cfg.seed = 31338;
    const auto c = driveScenario(spec, topo, cfg);
    EXPECT_FALSE(a.trace.identical(c.trace));
}

TEST(ScenarioDriver, OutageFiresDriftDetectorSteadyDoesNot)
{
    const auto topo = topo4();
    DriveConfig cfg;
    cfg.seed = 11;

    const auto quiet =
        driveScenario(libraryScenario("steady"), topo, cfg);
    EXPECT_EQ(quiet.retrainTriggers, 0u);
    EXPECT_DOUBLE_EQ(quiet.maxErrorFraction, 0.0);

    const auto outage =
        driveScenario(libraryScenario("dc-outage"), topo, cfg);
    EXPECT_GE(outage.retrainTriggers, 1u);
    EXPECT_GT(outage.maxErrorFraction, 0.0);
    // The first retrain must land right after the outage begins
    // (t = 60 in the library spec).
    bool foundFire = false;
    for (const auto &e : outage.epochs) {
        if (e.retrainFired) {
            EXPECT_GE(e.t, 60.0);
            EXPECT_LE(e.t, 90.0);
            foundFire = true;
            break;
        }
    }
    EXPECT_TRUE(foundFire);
}

// ---- trace record / replay --------------------------------------------------

TEST(ScenarioTrace, CsvRoundTripPreservesSamples)
{
    const auto topo = topo4();
    DriveConfig cfg;
    cfg.seed = 5;
    cfg.horizon = 60.0;
    const auto run =
        driveScenario(libraryScenario("diurnal"), topo, cfg);
    ASSERT_FALSE(run.trace.empty());

    const std::string path = tmpPath("roundtrip.csv");
    writeTraceCsv(path, run.trace);
    const auto loaded = readTraceCsv(path);
    std::remove(path.c_str());

    ASSERT_EQ(loaded.dcs, run.trace.dcs);
    ASSERT_EQ(loaded.size(), run.trace.size());
    for (std::size_t k = 0; k < loaded.size(); ++k) {
        EXPECT_NEAR(loaded.times[k], run.trace.times[k], 1e-6);
        for (std::size_t p = 0; p < loaded.rows[k].size(); ++p)
            EXPECT_NEAR(loaded.rows[k][p], run.trace.rows[k][p],
                        1e-9);
    }
}

TEST(ScenarioTrace, ReplayReproducesRecordedMultipliers)
{
    const auto topo = topo4();
    DriveConfig cfg;
    cfg.seed = 5;
    cfg.horizon = 60.0;
    const auto run =
        driveScenario(libraryScenario("dc-outage"), topo, cfg);

    const auto replayed = driveReplay(run.trace, topo, cfg);
    ASSERT_EQ(replayed.trace.size(), run.trace.size());
    for (std::size_t k = 0; k < run.trace.size(); ++k) {
        for (std::size_t p = 0; p < run.trace.rows[k].size(); ++p)
            EXPECT_NEAR(replayed.trace.rows[k][p],
                        run.trace.rows[k][p], 1e-9)
                << "sample " << k << " pair " << p;
    }
    // Replay of a replay is bit-identical: the medium is exact.
    const auto again = driveReplay(run.trace, topo, cfg);
    EXPECT_TRUE(replayed.trace.identical(again.trace));
}

TEST(ScenarioTrace, RejectsMalformedTraces)
{
    BwTrace trace;
    EXPECT_THROW(trace.add(1.0, {1.0}), FatalError); // dcs not set
    trace.dcs = 2;
    EXPECT_THROW(trace.add(1.0, {1.0}), FatalError); // wrong arity
    EXPECT_THROW(trace.add(1.0, {1.0, 1.0, 1.0, 1.0}, {1.0}),
                 FatalError); // wrong RTT arity
    trace.add(1.0, {1.0, 1.0, 1.0, 1.0});
    EXPECT_THROW(trace.add(0.5, {1.0, 1.0, 1.0, 1.0}),
                 FatalError); // non-increasing time
    EXPECT_THROW(TraceReplay(BwTrace{}), FatalError);

    // A recorded 4-DC trace edited by hand: each bad cell is refused
    // with the file and the CSV line it sits on.
    DriveConfig cfg;
    cfg.seed = 5;
    cfg.horizon = 60.0;
    const auto run =
        driveScenario(libraryScenario("diurnal"), topo4(), cfg);
    const std::string path = tmpPath("edited.csv");
    std::vector<std::string> lines;
    auto writeAndRead = [&](const BwTrace &recorded) {
        writeTraceCsv(path, recorded);
        lines.clear();
        std::ifstream in(path);
        for (std::string line; std::getline(in, line);)
            lines.push_back(line);
    };
    writeAndRead(run.trace);
    ASSERT_GE(lines.size(), 3u);
    // Set cell @p col of CSV line @p line (the header is line 1) and
    // load the file.
    auto loadEdited = [&](std::size_t line, std::size_t col,
                          const std::string &value) {
        std::vector<std::string> edited = lines;
        std::string &row = edited[line - 1];
        std::size_t begin = 0;
        for (std::size_t c = 0; c < col; ++c)
            begin = row.find(',', begin) + 1;
        row.replace(begin, row.find(',', begin) - begin, value);
        {
            std::ofstream out(path);
            for (const std::string &l : edited)
                out << l << '\n';
        }
        return whatOf<FatalError>([&] { readTraceCsv(path); });
    };
    const std::string cause = "fatal: cannot read trace '" + path + "': ";
    // Columns: t, 16 capacity factors, then 16 RTT factors.
    EXPECT_EQ(loadEdited(3, 1, "1abc"), cause + "bad number at line 3");
    EXPECT_EQ(loadEdited(3, 0, "nan"),
              cause + "non-finite t at line 3");
    EXPECT_EQ(loadEdited(3, 1, "nan"),
              cause + "capacity factor must be finite and >= 0 at "
                      "line 3");
    EXPECT_EQ(loadEdited(3, 16, "-3"),
              cause + "capacity factor must be finite and >= 0 at "
                      "line 3");
    EXPECT_EQ(loadEdited(2, 17, "0"),
              cause + "RTT factor must be finite and > 0 at line 2");
    EXPECT_EQ(loadEdited(2, 32, "inf"),
              cause + "RTT factor must be finite and > 0 at line 2");
    // A blank line does not shift the line named.
    lines.insert(lines.begin() + 1, "");
    EXPECT_EQ(loadEdited(4, 0, "nan"),
              cause + "non-finite t at line 4");

    // A recorded flash-crowd trace's first burst marker, edited one
    // cell at a time: every marker cell is checked before it is cast.
    const auto crowd =
        driveScenario(libraryScenario("flash-crowd"), topo4(), cfg);
    ASSERT_FALSE(crowd.trace.bursts.empty());
    writeAndRead(crowd.trace);
    const auto marker = std::find_if(
        lines.begin(), lines.end(),
        [](const std::string &l) { return l.rfind("-1,", 0) == 0; });
    ASSERT_NE(marker, lines.end());
    const std::size_t burst =
        static_cast<std::size_t>(marker - lines.begin()) + 1;
    const std::string at = " at line " + std::to_string(burst);
    // Marker columns: t, start, duration, src, dst, connections, then
    // the fault kind + 1 (0 on a burst marker).
    const std::string dcs = cause + "burst DCs must be distinct and "
                                    "in range" + at;
    EXPECT_EQ(loadEdited(burst, 3, "9"), dcs);
    EXPECT_EQ(loadEdited(burst, 3, "-1"), dcs);
    EXPECT_EQ(loadEdited(burst, 3, "0.5"), dcs);
    EXPECT_EQ(loadEdited(burst, 4,
                         std::to_string(crowd.trace.bursts[0].src)),
              dcs);
    const std::string conns =
        cause + "burst connections must be an integer >= 1" + at;
    EXPECT_EQ(loadEdited(burst, 5, "0"), conns);
    EXPECT_EQ(loadEdited(burst, 5, "1e30"), conns);
    const std::string start =
        cause + "burst start must be finite and >= 0" + at;
    EXPECT_EQ(loadEdited(burst, 1, "nan"), start);
    EXPECT_EQ(loadEdited(burst, 1, "-1"), start);
    const std::string duration =
        cause + "burst duration must be finite and > 0" + at;
    EXPECT_EQ(loadEdited(burst, 2, "-5"), duration);
    EXPECT_EQ(loadEdited(burst, 2, "inf"), duration);
    // A nonzero kind slot makes the row a fault marker.
    const std::string kind =
        cause + "unknown fault kind marker" + at;
    EXPECT_EQ(loadEdited(burst, 6, "nan"), kind);
    EXPECT_EQ(loadEdited(burst, 6, "1e30"), kind);
    EXPECT_EQ(loadEdited(burst, 6, "1.5"), kind);
    // As a fault, the burst's connections cell is the target DC.
    ASSERT_GE(crowd.trace.bursts[0].connections, 4);
    EXPECT_EQ(loadEdited(burst, 6, "2"),
              cause + "fault marker DC out of range" + at);

    // Fault markers follow the bursts; each is checked as a FaultPlan
    // checks its events. Marker columns: t, time, duration, src, dst,
    // dc, kind + 1, startJitter.
    BwTrace faulty = crowd.trace;
    fault::FaultEvent abort;
    abort.time = 12.0;
    faulty.faults.push_back(abort);
    fault::FaultEvent blackout;
    blackout.kind = fault::FaultKind::DcBlackout;
    blackout.dc = 1;
    blackout.time = 20.0;
    blackout.duration = 5.0;
    faulty.faults.push_back(blackout);
    writeAndRead(faulty);
    ASSERT_EQ(lines.size(), burst + faulty.bursts.size() + 1);
    const std::size_t abortLine = lines.size() - 1;
    const std::string atAbort = " at line " + std::to_string(abortLine);
    const std::string jitter =
        cause + "fault startJitter must be finite and >= 0" + atAbort;
    EXPECT_EQ(loadEdited(abortLine, 7, "nan"), jitter);
    EXPECT_EQ(loadEdited(abortLine, 7, "inf"), jitter);
    EXPECT_EQ(loadEdited(abortLine, 1, "nan"),
              cause + "fault time must be finite and non-negative" +
                  atAbort);
    EXPECT_EQ(loadEdited(lines.size(), 2, "0"),
              cause + "windowed DC faults need a positive duration" +
                  " at line " + std::to_string(lines.size()));
    std::remove(path.c_str());
}

TEST(ScenarioTrace, RttAndBurstsSurviveCsvRoundTrip)
{
    // flash-crowd scripts both RTT inflation and background bursts.
    const auto topo = topo4();
    DriveConfig cfg;
    cfg.seed = 9;
    cfg.horizon = 150.0;
    const auto run =
        driveScenario(libraryScenario("flash-crowd"), topo, cfg);

    ASSERT_FALSE(run.trace.bursts.empty());
    bool sawInflation = false;
    for (const auto &row : run.trace.rttRows)
        for (double f : row)
            sawInflation = sawInflation || f > 1.0;
    EXPECT_TRUE(sawInflation);

    const std::string path = tmpPath("rtt_bursts.csv");
    writeTraceCsv(path, run.trace);
    const auto loaded = readTraceCsv(path);
    std::remove(path.c_str());
    EXPECT_TRUE(loaded.identical(run.trace));
    EXPECT_EQ(loaded.hash(), run.trace.hash());
}

TEST(ScenarioTrace, ReplayReproducesRttFactorsAndBursts)
{
    const auto topo = topo4();
    DriveConfig cfg;
    cfg.seed = 9;
    cfg.horizon = 150.0;
    const auto run =
        driveScenario(libraryScenario("flash-crowd"), topo, cfg);

    const auto replayed = driveReplay(run.trace, topo, cfg);
    // RTT factors replay exactly: they carry no OU noise.
    ASSERT_EQ(replayed.trace.rttRows.size(),
              run.trace.rttRows.size());
    for (std::size_t k = 0; k < run.trace.rttRows.size(); ++k)
        for (std::size_t p = 0; p < run.trace.rttRows[k].size(); ++p)
            EXPECT_DOUBLE_EQ(replayed.trace.rttRows[k][p],
                             run.trace.rttRows[k][p])
                << "sample " << k << " pair " << p;
    // The recorded bursts are re-launched and re-recorded verbatim.
    ASSERT_EQ(replayed.trace.bursts.size(), run.trace.bursts.size());
    for (std::size_t b = 0; b < run.trace.bursts.size(); ++b) {
        EXPECT_DOUBLE_EQ(replayed.trace.bursts[b].start,
                         run.trace.bursts[b].start);
        EXPECT_EQ(replayed.trace.bursts[b].src,
                  run.trace.bursts[b].src);
        EXPECT_EQ(replayed.trace.bursts[b].dst,
                  run.trace.bursts[b].dst);
        EXPECT_EQ(replayed.trace.bursts[b].connections,
                  run.trace.bursts[b].connections);
    }
}

// ---- replay boundary semantics ---------------------------------------------

TEST(ScenarioTrace, CapFactorHoldsRowsOverClosedRightIntervals)
{
    // Rows are held over (t_{k-1}, t_k]: an exact-t_k query reads
    // row k, not k+1; t before the first timestamp reads row 0; t
    // past the last reads the final row.
    BwTrace trace;
    trace.dcs = 2;
    trace.add(10.0, {1.0, 0.5, 0.5, 1.0});
    trace.add(20.0, {1.0, 0.25, 0.25, 1.0});
    const TraceReplay replay(trace);

    EXPECT_DOUBLE_EQ(replay.capFactorAt(0, 1, 0.0), 0.5);
    EXPECT_DOUBLE_EQ(replay.capFactorAt(0, 1, 10.0), 0.5);
    EXPECT_DOUBLE_EQ(replay.capFactorAt(0, 1, 10.1), 0.25);
    EXPECT_DOUBLE_EQ(replay.capFactorAt(0, 1, 20.0), 0.25);
    EXPECT_DOUBLE_EQ(replay.capFactorAt(0, 1, 1.0e6), 0.25);
    // Diagonal entries replay as recorded (identity here).
    EXPECT_DOUBLE_EQ(replay.capFactorAt(0, 0, 10.0), 1.0);
}

TEST(ScenarioTrace, ApplyAtInstallsTheIntervalAfterTheBoundary)
{
    // The deliberate asymmetry with capFactorAt: applyAt answers
    // "what governs the interval starting at t" (with a microsecond
    // of forward slack for bit-exact replay), so applying at an exact
    // sample time installs the *next* row while capFactorAt still
    // reads the closed-right row.
    BwTrace trace;
    trace.dcs = 2;
    trace.add(10.0, {1.0, 0.5, 0.5, 1.0});
    trace.add(20.0, {1.0, 0.25, 0.25, 1.0});
    const TraceReplay replay(trace);

    net::NetworkSim sim(experiments::workerCluster(2),
                        experiments::quietSimConfig(), 1);
    replay.applyAt(sim, 0.0);
    EXPECT_NEAR(capturedMultipliers(sim)[1], 0.5, 1e-12);
    replay.applyAt(sim, 10.0);
    EXPECT_NEAR(capturedMultipliers(sim)[1], 0.25, 1e-12);
    EXPECT_DOUBLE_EQ(replay.capFactorAt(0, 1, 10.0), 0.5);
    replay.applyAt(sim, 9.0); // strictly inside the first interval
    EXPECT_NEAR(capturedMultipliers(sim)[1], 0.5, 1e-12);
    replay.applyAt(sim, 50.0); // past the end: last row held
    EXPECT_NEAR(capturedMultipliers(sim)[1], 0.25, 1e-12);
}

TEST(ScenarioTrace, SingleRowTraceHoldsEverywhere)
{
    // A one-sample trace must replay as a constant medium at every
    // query time, including t = 0 and far past the lone timestamp.
    BwTrace trace;
    trace.dcs = 2;
    trace.add(5.0, {1.0, 0.6, 0.6, 1.0});

    EXPECT_EQ(trace.dcs, 2u);
    ASSERT_EQ(trace.size(), 1u);
    EXPECT_TRUE(trace.bursts.empty());

    const TraceReplay replay(trace);
    for (double t : {0.0, 5.0, 5.1, 1.0e6})
        EXPECT_DOUBLE_EQ(replay.capFactorAt(0, 1, t), 0.6)
            << "t = " << t;
    EXPECT_TRUE(replay.burstsIn(-1.0, 1.0e6).empty());

    net::NetworkSim sim(experiments::workerCluster(2),
                        experiments::quietSimConfig(), 1);
    replay.applyAt(sim, 0.0);
    EXPECT_NEAR(capturedMultipliers(sim)[1], 0.6, 1e-12);
    replay.applyAt(sim, 100.0);
    EXPECT_NEAR(capturedMultipliers(sim)[1], 0.6, 1e-12);
}

// ---- engine integration -----------------------------------------------------

namespace {

gda::QueryResult
runUnderDynamics(const scenario::Dynamics *dynamics,
                 core::Wanify *wanify, std::uint64_t seed)
{
    const auto topo = experiments::workerCluster(4, 2);
    const auto job = workloads::teraSort(8.0);
    storage::HdfsStore hdfs(topo);
    hdfs.loadUniform(job.inputBytes);
    sched::LocalityScheduler locality;

    gda::Engine engine(topo, experiments::defaultSimConfig(), seed);
    gda::RunOptions opts;
    opts.schedulerBw = Matrix<Mbps>::square(4, 500.0);
    opts.wanify = wanify;
    opts.dynamics = dynamics;
    opts.adaptOnDrift = true;
    if (wanify == nullptr)
        opts.staticConnections = Matrix<int>::square(4, 2);
    return engine.run(job, hdfs.distribution(), locality, opts);
}

core::WanifyConfig
scenarioWanifyConfig()
{
    core::WanifyConfig cfg;
    // 4 DCs: a mesh is 12 pairs; one DC's row+col is 6/12 = 50%.
    cfg.drift.windowSize = 24;
    cfg.drift.minObservations = 12;
    cfg.drift.retrainFraction = 0.2;
    return cfg;
}

} // namespace

TEST(EngineScenario, DriftRetrainFiresEndToEnd)
{
    // A long all-pairs outage beginning shortly after the job starts
    // guarantees overlap with the shuffle no matter how stages land.
    ScenarioSpec spec;
    spec.name = "test-outage";
    ScenarioEvent ev;
    ev.kind = EventKind::Outage;
    ev.start = 10.0;
    ev.duration = 3000.0;
    ev.residual = 0.3;
    spec.events.push_back(ev);
    const ScenarioTimeline timeline(spec, 4, 99);

    core::Wanify wanify(scenarioWanifyConfig());
    wanify.setPredictor(experiments::sharedPredictor());

    const auto result =
        runUnderDynamics(&timeline, &wanify, 2024);
    EXPECT_GT(result.driftObservations, 0u);
    EXPECT_GE(result.retrainTriggers, 1u);
    EXPECT_GT(result.driftErrorFraction, 0.0);
    EXPECT_GT(result.latency, 0.0);
}

TEST(EngineScenario, SteadyConditionsRaiseNoRetrains)
{
    core::Wanify wanify(scenarioWanifyConfig());
    wanify.setPredictor(experiments::sharedPredictor());
    const auto result = runUnderDynamics(nullptr, &wanify, 2024);
    EXPECT_GT(result.driftObservations, 0u);
    EXPECT_EQ(result.retrainTriggers, 0u);
    EXPECT_DOUBLE_EQ(result.driftErrorFraction, 0.0);
}

TEST(EngineScenario, OutageSlowsTheJobDown)
{
    ScenarioSpec spec;
    spec.name = "test-outage";
    ScenarioEvent ev;
    ev.kind = EventKind::Outage;
    ev.start = 5.0;
    ev.duration = 3000.0;
    ev.residual = 0.01;
    spec.events.push_back(ev);
    const ScenarioTimeline timeline(spec, 4, 1);

    const auto clean = runUnderDynamics(nullptr, nullptr, 777);
    const auto outage = runUnderDynamics(&timeline, nullptr, 777);
    EXPECT_GT(outage.latency, 1.3 * clean.latency);
}

TEST(EngineScenario, DeterministicWithDynamics)
{
    const auto spec = libraryScenario("cascading");
    const ScenarioTimeline timeline(spec, 4, 11);
    const auto a = runUnderDynamics(&timeline, nullptr, 555);
    const auto b = runUnderDynamics(&timeline, nullptr, 555);
    EXPECT_DOUBLE_EQ(a.latency, b.latency);
    EXPECT_DOUBLE_EQ(a.cost.total(), b.cost.total());
}

namespace {

/** Skewed TeraSort under Tetrium with forecast planning on. */
gda::QueryResult
runForecastRun(const scenario::Dynamics *dynamics,
               core::Wanify *wanify, std::uint64_t seed)
{
    const auto topo = experiments::workerCluster(4, 2);
    const auto job = workloads::teraSort(8.0);
    storage::HdfsStore hdfs(topo);
    hdfs.loadSkewed(job.inputBytes, {0.55, 0.25, 0.15, 0.05});
    sched::TetriumScheduler tetrium;

    gda::Engine engine(topo, experiments::defaultSimConfig(), seed);
    gda::RunOptions opts;
    opts.schedulerBw = Matrix<Mbps>::square(4, 500.0);
    opts.wanify = wanify;
    opts.dynamics = dynamics;
    opts.adaptOnDrift = true;
    opts.forecast.enabled = true;
    opts.forecast.horizon = 120.0;
    opts.forecast.step = 5.0;
    return engine.run(job, hdfs.distribution(), tetrium, opts);
}

} // namespace

TEST(EngineScenario, ForecastReplanOnRetrainFiresAndIsDeterministic)
{
    // Same long outage as DriftRetrainFiresEndToEnd, but with
    // forecast planning + incremental re-plan on the retrain path:
    // the retrain must actually fire, the re-placed run must finish
    // every stage, and the whole pipeline (forecast build, warm
    // start, transfer stop/restart) must stay bit-deterministic.
    ScenarioSpec spec;
    spec.name = "test-outage";
    ScenarioEvent ev;
    ev.kind = EventKind::Outage;
    ev.start = 10.0;
    ev.duration = 3000.0;
    ev.residual = 0.3;
    spec.events.push_back(ev);
    const ScenarioTimeline timeline(spec, 4, 99);

    core::Wanify wanify(scenarioWanifyConfig());
    wanify.setPredictor(experiments::sharedPredictor());

    const auto a = runForecastRun(&timeline, &wanify, 2024);
    EXPECT_GE(a.retrainsApplied, 1u);
    EXPECT_GT(a.latency, 0.0);
    ASSERT_EQ(a.stages.size(), 2u);
    for (const auto &stage : a.stages) {
        EXPECT_GE(stage.end, stage.transferEnd);
        EXPECT_GE(stage.wanBytes, 0.0);
    }

    const auto b = runForecastRun(&timeline, &wanify, 2024);
    EXPECT_DOUBLE_EQ(a.latency, b.latency);
    EXPECT_DOUBLE_EQ(a.cost.total(), b.cost.total());
    EXPECT_EQ(a.retrainsApplied, b.retrainsApplied);

    // Without dynamics the forecast falls back to the gauge trend
    // (deployed mode) and the run must still complete cleanly.
    const auto trendOnly =
        runForecastRun(nullptr, &wanify, 2024);
    EXPECT_GT(trendOnly.latency, 0.0);
    const auto trendAgain =
        runForecastRun(nullptr, &wanify, 2024);
    EXPECT_DOUBLE_EQ(trendOnly.latency, trendAgain.latency);
}

TEST(EngineScenario, RejectsMismatchedClusterSize)
{
    const ScenarioTimeline timeline(libraryScenario("steady"), 8, 1);
    EXPECT_THROW(runUnderDynamics(&timeline, nullptr, 1),
                 FatalError);
}

// ---- runner aggregation -----------------------------------------------------

TEST(RunnerScenario, AggregateCarriesDriftStatsAndIsParallelSafe)
{
    core::Wanify wanify(scenarioWanifyConfig());
    wanify.setPredictor(experiments::sharedPredictor());

    // A long outage overlapping the whole run so every trial drifts.
    ScenarioSpec longOutage;
    longOutage.name = "long-outage";
    ScenarioEvent ev;
    ev.kind = EventKind::Outage;
    ev.start = 10.0;
    ev.duration = 3000.0;
    ev.residual = 0.3;
    longOutage.events.push_back(ev);
    const ScenarioTimeline longTimeline(longOutage, 4, 3);

    auto fn = [&](std::uint64_t seed) {
        return runUnderDynamics(&longTimeline, &wanify, seed);
    };
    const auto seq = experiments::runTrials(
        fn, 3, 42, experiments::Execution::Sequential);
    const auto par = experiments::runTrials(
        fn, 3, 42, experiments::Execution::Parallel);

    EXPECT_GT(seq.meanRetrainTriggers, 0.0);
    EXPECT_GT(seq.totalRetrainTriggers, 0u);
    EXPECT_GT(seq.meanDriftErrorFraction, 0.0);
    EXPECT_DOUBLE_EQ(seq.meanLatency, par.meanLatency);
    EXPECT_DOUBLE_EQ(seq.meanRetrainTriggers,
                     par.meanRetrainTriggers);
}

TEST(ScenarioTrace, ReplayMatchesScenarioAt128Dcs)
{
    // Record-then-replay equivalence at big-mesh scale: a 128-DC
    // drive (16,256 mesh flows, OU noise on) replays to the recorded
    // effective multipliers within one floating-point rounding, and
    // the replayed medium is closed under replay (bit-exact).
    const auto topo = experiments::workerCluster(128, 1);
    DriveConfig cfg;
    cfg.seed = 11;
    cfg.epoch = 5.0;
    cfg.horizon = 20.0;
    const auto live =
        driveScenario(libraryScenario("dc-outage"), topo, cfg);
    ASSERT_EQ(live.trace.dcs, 128u);
    ASSERT_GE(live.trace.size(), 4u);

    const auto replayed = driveReplay(live.trace, topo, cfg);
    ASSERT_EQ(replayed.trace.size(), live.trace.size());
    double maxDiff = 0.0;
    for (std::size_t k = 0; k < live.trace.size(); ++k) {
        ASSERT_EQ(replayed.trace.rows[k].size(),
                  live.trace.rows[k].size());
        for (std::size_t p = 0; p < live.trace.rows[k].size(); ++p)
            maxDiff = std::max(
                maxDiff, std::abs(replayed.trace.rows[k][p] -
                                  live.trace.rows[k][p]));
    }
    EXPECT_LT(maxDiff, 1e-9);

    const auto again = driveReplay(replayed.trace, topo, cfg);
    EXPECT_TRUE(again.trace.identical(replayed.trace));
    EXPECT_EQ(again.trace.hash(), replayed.trace.hash());
}
