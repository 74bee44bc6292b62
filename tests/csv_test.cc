/**
 * @file
 * Tests for the dataset CSV persistence (the paper open-sources its
 * collected datasets; this is the matching I/O path) plus the
 * multi-cloud (Section 5.8.3) and drift-retraining (Section 3.3.4)
 * end-to-end flows.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/bandwidth_analyzer.hh"
#include "core/drift.hh"
#include "core/heterogeneity.hh"
#include "core/predictor.hh"
#include "experiments/testbed.hh"
#include "ml/csv.hh"
#include "ml/metrics.hh"
#include "monitor/features.hh"
#include "monitor/measurement.hh"
#include "net/region.hh"
#include "net/vm.hh"
#include "expect_what.hh"

using namespace wanify;
using namespace wanify::ml;
using wanify::test::whatOf;

TEST(Csv, RoundTripPreservesData)
{
    Dataset data(2, 1);
    data.add({1.5, -2.25}, 10.0);
    data.add({0.0, 3.75}, -0.5);

    std::stringstream ss;
    writeCsv(ss, data, {"a", "b"});
    const Dataset loaded = readCsv(ss);

    ASSERT_EQ(loaded.size(), 2u);
    ASSERT_EQ(loaded.featureCount(), 2u);
    ASSERT_EQ(loaded.outputCount(), 1u);
    EXPECT_DOUBLE_EQ(loaded.x(0)[0], 1.5);
    EXPECT_DOUBLE_EQ(loaded.x(0)[1], -2.25);
    EXPECT_DOUBLE_EQ(loaded.target(1), -0.5);
}

TEST(Csv, LoadsCrlfBlankLinesAndSpacedCells)
{
    // A file saved with Windows line endings, a blank line, and
    // spaces on both sides of a number loads; each data row keeps the
    // file line it came from.
    std::stringstream ss("a,b,y0\r\n1, 2 ,3\r\n\r\n4,5,6 \r\n");
    std::vector<std::size_t> lines;
    const Dataset loaded = readCsv(ss, &lines);
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded.x(0)[1], 2.0);
    EXPECT_EQ(loaded.target(0), 3.0);
    EXPECT_EQ(loaded.target(1), 6.0);
    EXPECT_EQ(lines, (std::vector<std::size_t>{2, 4}));
}

TEST(Csv, HeaderNamesWritten)
{
    Dataset data(2, 1);
    data.add({1.0, 2.0}, 3.0);
    std::stringstream ss;
    writeCsv(ss, data, {"N", "S_BWij"});
    std::string header;
    std::getline(ss, header);
    EXPECT_EQ(header, "N,S_BWij,y0");
}

TEST(Csv, RejectsMalformedInput)
{
    {
        std::stringstream ss("");
        EXPECT_THROW(readCsv(ss), FatalError);
    }
    {
        std::stringstream ss("a,b,y0\n1,2\n");
        EXPECT_THROW(readCsv(ss), FatalError);
    }
    {
        std::stringstream ss("a,b,y0\n1,huh,3\n");
        EXPECT_THROW(readCsv(ss), FatalError);
    }
    {
        // Feature column after targets.
        std::stringstream ss("a,y0,b\n1,2,3\n");
        EXPECT_THROW(readCsv(ss), FatalError);
    }
    {
        // A cell must parse whole: std::stod alone reads "1abc" as 1.
        std::stringstream ss("a,y0\n1,2\n1abc,3\n");
        EXPECT_EQ(whatOf<FatalError>([&] { readCsv(ss); }),
                  "fatal: readCsv: bad number at line 3");
    }
    {
        std::stringstream ss("a,y0\n1,2.5e\n");
        EXPECT_EQ(whatOf<FatalError>([&] { readCsv(ss); }),
                  "fatal: readCsv: bad number at line 2");
    }
}

TEST(Csv, AnalyzerDatasetRoundTripsWithFeatureNames)
{
    core::AnalyzerConfig cfg;
    cfg.clusterSizes = {3};
    cfg.meshesPerSize = 2;
    core::BandwidthAnalyzer analyzer(cfg);
    const auto data = analyzer.collect(808);

    std::vector<std::string> names(monitor::featureNames().begin(),
                                   monitor::featureNames().end());
    std::stringstream ss;
    writeCsv(ss, data, names);
    const auto loaded = readCsv(ss);
    ASSERT_EQ(loaded.size(), data.size());
    for (std::size_t i = 0; i < data.size(); ++i)
        EXPECT_NEAR(loaded.target(i), data.target(i), 1e-6);

    // A model trained from the re-loaded CSV behaves equivalently
    // (CSV carries 12 significant digits; splits near ties may land
    // on either side, so compare predictions, not trees).
    core::RuntimeBwPredictor a, b;
    a.train(data, 809);
    b.train(loaded, 809);
    const double pa = a.predictPair(data.x(0));
    const double pb = b.predictPair(data.x(0));
    EXPECT_NEAR(pa, pb, 0.05 * std::abs(pa));
}

// ---- Section 5.8.3: multi-cloud (AWS + GCP) -----------------------------------

TEST(MultiCloud, MixedProviderTopologyWorksEndToEnd)
{
    // AWS t2.medium regions plus GCP e2-medium regions in one
    // cluster, as in the paper's multi-cloud accuracy test.
    net::TopologyBuilder builder;
    builder.addDc(net::RegionCatalog::byId("us-east-1"),
                  net::VmTypeCatalog::m5large());
    builder.addDc(net::RegionCatalog::byId("eu-west-1"),
                  net::VmTypeCatalog::m5large());
    for (const auto &region : net::RegionCatalog::gcpRegions())
        builder.addDc(region, net::VmTypeCatalog::e2medium());
    const auto topo = builder.build();
    ASSERT_EQ(topo.dcCount(), 4u);

    // Refactoring vector reflects the weaker GCP endpoints.
    const auto rvec = core::providerRvec(topo);
    EXPECT_LT(rvec.at(0, 2), 1.0);
    EXPECT_DOUBLE_EQ(rvec.at(0, 1), 1.0); // AWS<->AWS untouched

    // Mesh measurement across providers runs like any other.
    const auto bw = monitor::staticIndependentBw(
        topo, experiments::quietSimConfig(),
        monitor::MeasurementConfig{}, 5);
    for (net::DcId i = 0; i < 4; ++i)
        for (net::DcId j = 0; j < 4; ++j)
            if (i != j) {
                EXPECT_GT(bw.at(i, j), 0.0);
            }
}

// ---- Section 3.3.4: drift -> warm-start retraining -----------------------------

TEST(DriftRetraining, FlagTriggersWarmStartAndRecovers)
{
    // Train on one network regime...
    core::AnalyzerConfig cfg;
    cfg.clusterSizes = {4};
    cfg.meshesPerSize = 6;
    core::BandwidthAnalyzer analyzer(cfg);
    const auto before = analyzer.collect(111);

    ml::ForestConfig forestCfg;
    forestCfg.nEstimators = 24;
    core::RuntimeBwPredictor predictor(forestCfg);
    predictor.train(before, 112);

    // ...then the WAN shifts: a different fluctuation regime with
    // much lower effective capacities (simulated by scaling targets).
    Dataset shifted(before.featureCount(), 1);
    for (std::size_t i = 0; i < before.size(); ++i) {
        auto x = before.x(i);
        x[monitor::FeatSnapshotBw] *= 0.3;
        shifted.add(x, before.target(i) * 0.3);
    }

    // The drift detector sees persistent significant errors (weak
    // pairs shift by < 100 Mbps, so the fraction is moderate).
    core::DriftConfig driftCfg;
    driftCfg.minObservations = 16;
    driftCfg.retrainFraction = 0.15;
    core::ModelDriftDetector drift(driftCfg);
    for (std::size_t i = 0; i < shifted.size(); ++i) {
        drift.record(predictor.predictPair(shifted.x(i)),
                     shifted.target(i));
    }
    ASSERT_TRUE(drift.needsRetraining());

    std::vector<double> truth, predBefore;
    for (std::size_t i = 0; i < shifted.size(); ++i) {
        truth.push_back(shifted.target(i));
        predBefore.push_back(predictor.predictPair(shifted.x(i)));
    }
    const double maeBefore = ml::mae(truth, predBefore);

    // Warm start on old + new data (the paper's Section 3.3.4 flow).
    // The kept trees dilute the correction, so grow a larger batch of
    // new trees than the original forest.
    Dataset combined = before;
    combined.append(shifted);
    predictor.retrain(combined, 72, 113);
    drift.reset();

    std::vector<double> predAfter;
    for (std::size_t i = 0; i < shifted.size(); ++i) {
        predAfter.push_back(predictor.predictPair(shifted.x(i)));
        drift.record(predAfter.back(), truth[i]);
    }
    // Retraining substantially reduces the error on the new regime.
    EXPECT_LT(ml::mae(truth, predAfter), 0.5 * maeBefore);
    EXPECT_LT(drift.errorFraction(), 0.5);
}
