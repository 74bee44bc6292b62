/**
 * @file
 * Tests for the CSV cell and line rules of the trace reader plus the
 * multi-cloud (Section 5.8.3) and drift-retraining (Section 3.3.4)
 * end-to-end flows.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "core/bandwidth_analyzer.hh"
#include "core/drift.hh"
#include "core/heterogeneity.hh"
#include "core/predictor.hh"
#include "experiments/testbed.hh"
#include "ml/metrics.hh"
#include "monitor/features.hh"
#include "monitor/measurement.hh"
#include "net/region.hh"
#include "net/vm.hh"
#include "scenario/trace.hh"
#include "expect_what.hh"

using namespace wanify;
using namespace wanify::ml;
using wanify::test::whatOf;

namespace {

/** Write @p text to a temp file and read it back as a trace. */
scenario::BwTrace
readText(const std::string &text)
{
    const std::string path = ::testing::TempDir() + "wanify_csv.csv";
    {
        std::ofstream out(path, std::ios::binary);
        out << text;
    }
    struct Remove
    {
        std::string path;
        ~Remove() { std::remove(path.c_str()); }
    } remove{path};
    return scenario::readTraceCsv(path);
}

/** The cause readTraceCsv gives for @p text, without the file name. */
std::string
causeOf(const std::string &text)
{
    const std::string what =
        whatOf<FatalError>([&] { readText(text); });
    const std::string::size_type cut = what.find("': ");
    return cut == std::string::npos ? what : what.substr(cut + 3);
}

const std::string kHeader2 = "t,y0,y1,y2,y3,y4,y5,y6,y7";

} // namespace

TEST(Csv, LoadsCrlfBlankLinesAndSpacedCells)
{
    // A file saved with Windows line endings, a blank line, and
    // spaces on both sides of a number loads.
    const auto loaded = readText(kHeader2 + "\r\n" +
                                 "5, 1 ,0.5,0.5,1,1,1,1,1\r\n\r\n" +
                                 "10,1,0.25,0.25,1,1,2,2,1 \r\n");
    EXPECT_EQ(loaded.dcs, 2u);
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_EQ(loaded.times, (std::vector<double>{5.0, 10.0}));
    EXPECT_EQ(loaded.rows[0][1], 0.5);
    EXPECT_EQ(loaded.rows[1][2], 0.25);
    EXPECT_EQ(loaded.rttRows[1][1], 2.0);
}

TEST(Csv, RejectsMalformedInput)
{
    EXPECT_EQ(causeOf(""), "missing header");
    EXPECT_EQ(causeOf(kHeader2 + "\n5,1,1\n"),
              "wrong column count at line 2");
    EXPECT_EQ(causeOf(kHeader2 + "\n5,huh,1,1,1,1,1,1,1\n"),
              "bad number at line 2");
    // A cell must parse whole: std::stod alone reads "1abc" as 1.
    EXPECT_EQ(causeOf(kHeader2 + "\n5,1,1,1,1,1,1,1,1\n" +
                      "1abc,1,1,1,1,1,1,1,1\n"),
              "bad number at line 3");
    EXPECT_EQ(causeOf(kHeader2 + "\n5,2.5e,1,1,1,1,1,1,1\n"),
              "bad number at line 2");
    // Only t,y0,...,y{2n^2-1} with n >= 2 is a trace header.
    const std::string header =
        "header must be t,y0,...,y{2n^2-1} with n >= 2 DCs";
    for (const std::string bad :
         {"a,y0,y1,y2,y3,y4,y5,y6,y7", "t,y0,y1,y2,y3,y4,y5,y6,y8",
          "t,y0,y1,y2,y3", "t,y0,y1", "t, y0,y1,y2,y3,y4,y5,y6,y7"})
        EXPECT_EQ(causeOf(bad + "\n"), header) << bad;
    // A blank line does not shift the line named.
    EXPECT_EQ(causeOf(kHeader2 + "\n\n5,1,1\n"),
              "wrong column count at line 3");
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
    Dataset shifted(before.featureCount());
    for (std::size_t i = 0; i < before.size(); ++i) {
        auto x = before.x(i);
        x[monitor::FeatSnapshotBw] *= 0.3;
        shifted.add(x, before.y(i) * 0.3);
    }

    // The drift detector sees persistent significant errors (weak
    // pairs shift by < 100 Mbps, so the fraction is moderate).
    core::DriftConfig driftCfg;
    driftCfg.minObservations = 16;
    driftCfg.retrainFraction = 0.15;
    core::ModelDriftDetector drift(driftCfg);
    for (std::size_t i = 0; i < shifted.size(); ++i) {
        drift.record(predictor.predictPair(shifted.x(i)),
                     shifted.y(i));
    }
    ASSERT_TRUE(drift.needsRetraining());

    std::vector<double> truth, predBefore;
    for (std::size_t i = 0; i < shifted.size(); ++i) {
        truth.push_back(shifted.y(i));
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
