/**
 * @file
 * Unit tests for the common foundation: units, RNG, matrix, stats,
 * geo, table, and error primitives.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/error.hh"
#include "common/geo.hh"
#include "common/matrix.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/units.hh"
#include "expect_what.hh"

using namespace wanify;
using test::whatOf;

// ---- units -----------------------------------------------------------------

TEST(Units, TransferTimeBasics)
{
    // 1 decimal GB at 800 Mbps = 8 Gbit / 0.8 Gbps = 10 s.
    EXPECT_NEAR(units::transferTime(1.0e9, 800.0), 10.0, 1e-9);
    EXPECT_DOUBLE_EQ(units::transferTime(0.0, 100.0), 0.0);
    EXPECT_TRUE(std::isinf(units::transferTime(1.0, 0.0)));
}

TEST(Units, RateForInvertsTransferTime)
{
    const Bytes size = units::gigabytes(2.5);
    const Seconds t = units::transferTime(size, 345.0);
    EXPECT_NEAR(units::rateFor(size, t), 345.0, 1e-9);
}

TEST(Units, BytesAtRateRoundTrip)
{
    const Bytes moved = units::bytesAtRate(200.0, 4.0);
    // 200 Mbps * 4 s = 800 Mbit = 100 MB (decimal).
    EXPECT_NEAR(moved, 100.0e6, 1.0);
}

TEST(Units, MilesConversion)
{
    EXPECT_NEAR(units::toMiles(100.0), 62.1371, 1e-3);
}

// ---- error -----------------------------------------------------------------

TEST(Error, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config"), FatalError);
    EXPECT_THROW(fatalIf(true, "x"), FatalError);
    EXPECT_NO_THROW(fatalIf(false, "x"));
}

TEST(Error, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("bug"), PanicError);
    EXPECT_THROW(panicIf(true, "x"), PanicError);
    EXPECT_NO_THROW(panicIf(false, "x"));
}

// ---- rng -------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(12345), b(12345);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(equal, 4);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntCoversRangeInclusive)
{
    Rng rng(11);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.uniformInt(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalMomentsRoughlyCorrect)
{
    Rng rng(21);
    stats::RunningStats acc;
    for (int i = 0; i < 20000; ++i)
        acc.push(rng.normal(10.0, 2.0));
    EXPECT_NEAR(acc.mean(), 10.0, 0.1);
    EXPECT_NEAR(acc.stddev(), 2.0, 0.1);
}

TEST(Rng, SampleWithoutReplacementIsDistinct)
{
    Rng rng(5);
    const auto idx = rng.sampleWithoutReplacement(50, 20);
    std::set<std::size_t> unique(idx.begin(), idx.end());
    EXPECT_EQ(unique.size(), 20u);
    for (std::size_t i : idx)
        EXPECT_LT(i, 50u);
}

TEST(Rng, SampleWithReplacementInRange)
{
    Rng rng(5);
    for (std::size_t i : rng.sampleWithReplacement(10, 100))
        EXPECT_LT(i, 10u);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng parent(99);
    Rng child = parent.split();
    // The child's next values should not track the parent's.
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += parent.next() == child.next() ? 1 : 0;
    EXPECT_LT(equal, 4);
}

// ---- matrix ----------------------------------------------------------------

TEST(Matrix, InitializerListAndAccess)
{
    Matrix<int> m{{1, 2}, {3, 4}};
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 2u);
    EXPECT_EQ(m.at(0, 1), 2);
    EXPECT_EQ(m.at(1, 0), 3);
}

TEST(Matrix, OutOfRangeAccessPanics)
{
    Matrix<int> m = Matrix<int>::square(2, 0);
    EXPECT_EQ(whatOf<PanicError>([&] { m.at(2, 0); }),
              "panic: Matrix::at out of range");
    EXPECT_EQ(whatOf<PanicError>([&] { m.at(0, 2); }),
              "panic: Matrix::at out of range");
    const Matrix<int> &cm = m;
    EXPECT_EQ(whatOf<PanicError>([&] { cm.at(2, 2); }),
              "panic: Matrix::at out of range");
    EXPECT_EQ(cm.at(1, 1), 0);
}

TEST(Matrix, OffDiagonalStats)
{
    Matrix<double> m{{99.0, 2.0, 3.0},
                     {4.0, 99.0, 6.0},
                     {8.0, 10.0, 99.0}};
    EXPECT_DOUBLE_EQ(m.offDiagonalMin(), 2.0);
    EXPECT_DOUBLE_EQ(m.offDiagonalMax(), 10.0);
    EXPECT_NEAR(m.offDiagonalMean(), (2 + 3 + 4 + 6 + 8 + 10) / 6.0,
                1e-12);
}

TEST(Matrix, RowMaxAndSum)
{
    Matrix<int> m{{1, 5, 2}, {7, 0, 3}, {2, 2, 2}};
    EXPECT_EQ(m.rowMax(0), 5);
    EXPECT_EQ(m.rowMax(1), 7);
    EXPECT_EQ(m.sum(), 24);
}

TEST(Matrix, RaggedInitializerFails)
{
    auto make = [] { Matrix<int> m{{1, 2}, {3}}; };
    EXPECT_THROW(make(), FatalError);
}

// ---- stats -----------------------------------------------------------------

TEST(Stats, MeanVarianceStddev)
{
    const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0,
                                    7.0, 9.0};
    EXPECT_DOUBLE_EQ(stats::mean(xs), 5.0);
    EXPECT_NEAR(stats::variance(xs), 32.0 / 7.0, 1e-12);
}

TEST(Stats, PearsonPerfectCorrelation)
{
    const std::vector<double> xs = {1, 2, 3, 4, 5};
    const std::vector<double> ys = {2, 4, 6, 8, 10};
    EXPECT_NEAR(stats::pearson(xs, ys), 1.0, 1e-12);
    std::vector<double> neg = {10, 8, 6, 4, 2};
    EXPECT_NEAR(stats::pearson(xs, neg), -1.0, 1e-12);
}

TEST(Stats, PearsonZeroVarianceIsZero)
{
    const std::vector<double> xs = {1, 1, 1};
    const std::vector<double> ys = {2, 4, 6};
    EXPECT_DOUBLE_EQ(stats::pearson(xs, ys), 0.0);
}

TEST(Stats, PercentileInterpolates)
{
    std::vector<double> xs = {10, 20, 30, 40};
    EXPECT_DOUBLE_EQ(stats::percentile(xs, 0), 10.0);
    EXPECT_DOUBLE_EQ(stats::percentile(xs, 100), 40.0);
    EXPECT_DOUBLE_EQ(stats::percentile(xs, 50), 25.0);
}

TEST(Stats, RunningStatsMatchesBatch)
{
    const std::vector<double> xs = {3.1, -2.0, 7.7, 0.4, 12.0};
    stats::RunningStats acc;
    for (double x : xs)
        acc.push(x);
    EXPECT_NEAR(acc.mean(), stats::mean(xs), 1e-12);
    EXPECT_NEAR(acc.variance(), stats::variance(xs), 1e-12);
    EXPECT_DOUBLE_EQ(acc.min(), -2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 12.0);
}

// ---- geo -------------------------------------------------------------------

TEST(Geo, HaversineKnownDistances)
{
    // New York <-> London ~ 5570 km.
    const GeoPoint nyc{40.71, -74.01};
    const GeoPoint london{51.51, -0.13};
    EXPECT_NEAR(geo::haversineKm(nyc, london), 5570.0, 60.0);
    EXPECT_DOUBLE_EQ(geo::haversineKm(nyc, nyc), 0.0);
}

TEST(Geo, HaversineSymmetry)
{
    const GeoPoint a{38.95, -77.45};
    const GeoPoint b{1.35, 103.82};
    EXPECT_NEAR(geo::haversineKm(a, b), geo::haversineKm(b, a), 1e-9);
}

// ---- table -----------------------------------------------------------------

TEST(Table, RendersAlignedCells)
{
    Table t("Title");
    t.setHeader({"a", "bb"});
    t.addRow({"1", "2"});
    const std::string s = t.str();
    EXPECT_NE(s.find("Title"), std::string::npos);
    EXPECT_NE(s.find("| a "), std::string::npos);
    EXPECT_NE(s.find("| 1 "), std::string::npos);
}

TEST(Table, ColumnCountMismatchFails)
{
    Table t;
    t.setHeader({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), FatalError);
}

TEST(Table, NumberFormatting)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::pct(0.125, 1), "12.5%");
}
