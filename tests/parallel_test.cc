/**
 * @file
 * Determinism under concurrency: the thread pool itself, splitmix64
 * seed derivation, parallel-vs-sequential Random Forest training, and
 * parallel-vs-sequential experiment trials. Everything the ThreadPool
 * touches must be bit-identical to the sequential path — these tests
 * are the contract.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <mutex>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/error.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "core/bandwidth_analyzer.hh"
#include "core/wanify.hh"
#include "experiments/runner.hh"
#include "experiments/testbed.hh"
#include "gda/engine.hh"
#include "ml/dataset.hh"
#include "ml/random_forest.hh"
#include "sched/locality.hh"
#include "storage/hdfs.hh"
#include "workloads/terasort.hh"
#include "oracles/forest_predict.hh"
#include "expect_what.hh"

using namespace wanify;
using namespace wanify::experiments;
using namespace wanify::ml;
using test::whatOf;

namespace {

/** y = 3x0 + noise on x1 (irrelevant feature). */
Dataset
linearData(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    Dataset data(2);
    for (std::size_t i = 0; i < n; ++i) {
        const double x0 = rng.uniform(0.0, 10.0);
        const double x1 = rng.uniform(0.0, 10.0);
        data.add({x0, x1}, 3.0 * x0 + rng.normal(0.0, 0.05));
    }
    return data;
}

/** A pure function of the seed — trivially thread-safe. */
gda::QueryResult
syntheticTrial(std::uint64_t seed)
{
    Rng rng(seed);
    gda::QueryResult r;
    r.latency = rng.uniform(100.0, 500.0);
    r.cost.compute = rng.uniform(1.0, 5.0);
    r.cost.network = rng.uniform(0.1, 2.0);
    r.minObservedBw = rng.uniform(50.0, 900.0);
    return r;
}

} // namespace

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    for (auto &h : hits)
        h.store(0);
    pool.parallelFor(hits.size(),
                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, OneThreadPoolRunsSequentiallyInOrder)
{
    // ThreadPool(1) spawns no workers: the caller executes every
    // index itself, strictly in order.
    ThreadPool pool(1);
    EXPECT_EQ(pool.threadCount(), 1u);
    std::vector<std::size_t> order;
    pool.parallelFor(16, [&](std::size_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 16u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, ParallelForZeroAndOne)
{
    ThreadPool pool(2);
    pool.parallelFor(0, [](std::size_t) { FAIL(); });
    std::atomic<int> calls{0};
    pool.parallelFor(1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        calls.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, PropagatesFirstException)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(64,
                                  [](std::size_t i) {
                                      if (i % 7 == 3)
                                          throw std::runtime_error(
                                              "boom");
                                  }),
                 std::runtime_error);
    // The pool survives a failed batch.
    std::atomic<int> calls{0};
    pool.parallelFor(8, [&](std::size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 8);
}

TEST(ThreadPool, NestedParallelForCompletes)
{
    // A worker calling parallelFor again must not deadlock: the
    // nested caller drains its own batch.
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    pool.parallelFor(4, [&](std::size_t) {
        ThreadPool::global().parallelFor(
            8, [&](std::size_t) { calls.fetch_add(1); });
    });
    EXPECT_EQ(calls.load(), 32);
}

TEST(ThreadPool, ReentrantSubmissionOnSamedPoolCoversEveryIndex)
{
    // The serve loop's shape: work submitted to the SAME pool from
    // inside one of its own batches (not via a second pool). Every
    // (outer, inner) pair must run exactly once, with no deadlock
    // even though outer tasks outnumber the threads.
    ThreadPool pool(3);
    constexpr std::size_t kOuter = 8, kInner = 8;
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    for (auto &h : hits)
        h.store(0);
    pool.parallelFor(kOuter, [&](std::size_t o) {
        pool.parallelFor(kInner, [&](std::size_t i) {
            hits[o * kInner + i].fetch_add(1);
        });
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, DeeplyNestedSubmissionCompletes)
{
    // Three levels of re-entrant submission on one pool: each level's
    // caller must drain its own batch regardless of which thread runs
    // it, so depth cannot exhaust the workers.
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    pool.parallelFor(3, [&](std::size_t) {
        pool.parallelFor(3, [&](std::size_t) {
            pool.parallelFor(3,
                             [&](std::size_t) { calls.fetch_add(1); });
        });
    });
    EXPECT_EQ(calls.load(), 27);
}

TEST(ThreadPool, NestedExceptionPropagatesAndPoolSurvives)
{
    ThreadPool pool(2);
    // An inner batch throws on a worker thread; the inner parallelFor
    // rethrows it inside the outer task, and the outer parallelFor
    // surfaces it to the original caller.
    EXPECT_THROW(
        pool.parallelFor(4,
                         [&](std::size_t o) {
                             pool.parallelFor(4, [&](std::size_t i) {
                                 if (o == 1 && i == 2)
                                     throw std::runtime_error("inner");
                             });
                         }),
        std::runtime_error);
    // Both nesting levels drained: the pool accepts new batches.
    std::atomic<int> calls{0};
    pool.parallelFor(4, [&](std::size_t) {
        pool.parallelFor(4, [&](std::size_t) { calls.fetch_add(1); });
    });
    EXPECT_EQ(calls.load(), 16);
}

TEST(ThreadPool, SaturatedNestedSubmissionMakesProgress)
{
    // Far more in-flight nested batches than threads: progress relies
    // on callers executing work items themselves, never on a free
    // worker existing.
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    pool.parallelFor(32, [&](std::size_t) {
        pool.parallelFor(16, [&](std::size_t) { calls.fetch_add(1); });
    });
    EXPECT_EQ(calls.load(), 512);
}

TEST(ThreadPool, ThreadCountParseAcceptsOnlyBoundedIntegers)
{
    // WANIFY_THREADS values are parsed without building a pool, so
    // the over-bound case starts no thread.
    const std::string want =
        "fatal: WANIFY_THREADS must be an integer in [1, 1024]";
    for (const char *bad : {"0", "-2", "4x", "abc", "", "1025"})
        EXPECT_EQ(whatOf<FatalError>(
                      [&] { ThreadPool::parseThreadCount(bad); }),
                  want)
            << "WANIFY_THREADS='" << bad << "'";
    EXPECT_EQ(ThreadPool::parseThreadCount("1"), 1u);
    EXPECT_EQ(ThreadPool::parseThreadCount("04"), 4u);
    EXPECT_EQ(ThreadPool::parseThreadCount("1024"), 1024u);
}

TEST(Rng, DeriveSeedsAvoidsAdjacentBaseCollisions)
{
    // Regression for the old `base + 7919 * t` scheme, where e.g.
    // bases 1000 and 8919 shared trial seeds. Derived seeds from a
    // window of adjacent bases must all be distinct.
    std::set<std::uint64_t> seen;
    std::size_t total = 0;
    for (std::uint64_t base = 1000; base < 1032; ++base) {
        for (std::uint64_t s : deriveSeeds(base, 8)) {
            seen.insert(s);
            ++total;
        }
    }
    EXPECT_EQ(seen.size(), total);
}

TEST(Rng, DeriveSeedsIsStable)
{
    const auto a = deriveSeeds(42, 5);
    const auto b = deriveSeeds(42, 5);
    EXPECT_EQ(a, b);
    // A longer derivation shares the prefix: warm starts and repeated
    // runs see the same per-unit seeds.
    const auto c = deriveSeeds(42, 9);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i], c[i]);
}

TEST(ParallelForest, MatchesSequentialBitForBit)
{
    const auto data = linearData(400, 7);

    ForestConfig seqCfg;
    seqCfg.nEstimators = 24;
    seqCfg.nThreads = 1; // sequential reference
    RandomForestRegressor seq(seqCfg);
    seq.fit(data, 99);

    ForestConfig parCfg = seqCfg;
    parCfg.nThreads = 0; // process-wide pool
    RandomForestRegressor par(parCfg);
    par.fit(data, 99);

    // nThreads = 2 is the smallest genuinely-parallel cap (one
    // worker plus the caller) — the boundary the capped path must
    // get right.
    ForestConfig cappedCfg = seqCfg;
    cappedCfg.nThreads = 2;
    RandomForestRegressor capped(cappedCfg);
    capped.fit(data, 99);

    ASSERT_EQ(seq.treeCount(), par.treeCount());
    ASSERT_EQ(seq.treeCount(), capped.treeCount());
    EXPECT_EQ(seq.oobR2(), par.oobR2());
    EXPECT_EQ(seq.oobR2(), capped.oobR2());
    for (double x = 0.0; x <= 10.0; x += 0.25) {
        EXPECT_EQ(oracle::forestPredict(seq, {x, 5.0}),
                  oracle::forestPredict(par, {x, 5.0}));
        EXPECT_EQ(oracle::forestPredict(seq, {x, 5.0}),
                  oracle::forestPredict(capped, {x, 5.0}));
    }
    const auto seqImp = seq.featureImportances();
    const auto parImp = par.featureImportances();
    ASSERT_EQ(seqImp.size(), parImp.size());
    for (std::size_t f = 0; f < seqImp.size(); ++f)
        EXPECT_EQ(seqImp[f], parImp[f]);
}

TEST(ParallelForest, WarmStartMatchesSequential)
{
    const auto data = linearData(300, 11);

    ForestConfig seqCfg;
    seqCfg.nEstimators = 10;
    seqCfg.nThreads = 1;
    RandomForestRegressor seq(seqCfg);
    seq.fit(data, 51);
    seq.warmStart(data, 6, 52);

    ForestConfig parCfg = seqCfg;
    parCfg.nThreads = 0;
    RandomForestRegressor par(parCfg);
    par.fit(data, 51);
    par.warmStart(data, 6, 52);

    ASSERT_EQ(seq.treeCount(), 16u);
    ASSERT_EQ(par.treeCount(), 16u);
    EXPECT_EQ(seq.oobR2(), par.oobR2());
    for (double x = 0.5; x <= 9.5; x += 0.5) {
        EXPECT_EQ(oracle::forestPredict(seq, {x, 1.0}),
                  oracle::forestPredict(par, {x, 1.0}));
    }
}

TEST(ParallelTrials, AggregateMatchesSequentialBitForBit)
{
    const auto seq =
        runTrials(syntheticTrial, 16, 1000, Execution::Sequential);
    const auto par =
        runTrials(syntheticTrial, 16, 1000, Execution::Parallel);

    EXPECT_EQ(seq.trials, par.trials);
    EXPECT_EQ(seq.meanLatency, par.meanLatency);
    EXPECT_EQ(seq.seLatency, par.seLatency);
    EXPECT_EQ(seq.meanCost, par.meanCost);
    EXPECT_EQ(seq.seCost, par.seCost);
    EXPECT_EQ(seq.meanMinBw, par.meanMinBw);
    EXPECT_EQ(seq.seMinBw, par.seMinBw);
}

TEST(ParallelTrials, RealEngineTrialsSharingOneWanifyAreDeterministic)
{
    // End-to-end variant of the contract: full engine runs sharing a
    // single const Wanify facade (predictor + planner + deployment)
    // across concurrent trials must aggregate identically to the
    // sequential path.
    const auto topo = workerCluster(4);
    const auto simCfg = defaultSimConfig();
    const auto job = workloads::teraSort(2.0);
    storage::HdfsStore hdfs(topo);
    hdfs.loadUniform(job.inputBytes);
    const auto input = hdfs.distribution();
    sched::LocalityScheduler locality;

    // A deliberately small training run keeps the test fast.
    core::AnalyzerConfig acfg;
    acfg.clusterSizes = {4};
    acfg.meshesPerSize = 4;
    acfg.sim = simCfg;
    core::BandwidthAnalyzer analyzer(acfg);
    ml::ForestConfig fcfg;
    fcfg.nEstimators = 10;
    auto pred = std::make_shared<core::RuntimeBwPredictor>(fcfg);
    pred->train(analyzer.collect(777), 778);

    core::Wanify wanify;
    wanify.setPredictor(std::move(pred));

    auto trial = [&](std::uint64_t seed) {
        gda::Engine engine(topo, simCfg, seed);
        gda::RunOptions opts;
        opts.schedulerBw = Matrix<Mbps>::square(4, 500.0);
        opts.wanify = &wanify;
        return engine.run(job, input, locality, opts);
    };

    const auto seq = runTrials(trial, 4, 2024, Execution::Sequential);
    const auto par = runTrials(trial, 4, 2024, Execution::Parallel);
    EXPECT_EQ(seq.meanLatency, par.meanLatency);
    EXPECT_EQ(seq.seLatency, par.seLatency);
    EXPECT_EQ(seq.meanCost, par.meanCost);
    EXPECT_EQ(seq.meanMinBw, par.meanMinBw);
    EXPECT_EQ(seq.seMinBw, par.seMinBw);
}

TEST(ParallelTrials, SeedsNoLongerCollideAcrossAdjacentBases)
{
    // Old scheme: runTrials(fn, 5, 1000) and runTrials(fn, 5, 8919)
    // shared seeds. Record the seeds each base hands the closure.
    std::set<std::uint64_t> a, b;
    std::mutex mu;
    auto record = [&mu](std::set<std::uint64_t> &dst,
                        std::uint64_t seed) {
        std::lock_guard<std::mutex> lock(mu);
        dst.insert(seed);
        return gda::QueryResult{};
    };
    runTrials([&](std::uint64_t s) { return record(a, s); }, 5, 1000);
    runTrials([&](std::uint64_t s) { return record(b, s); }, 5, 8919);
    for (std::uint64_t s : a)
        EXPECT_EQ(b.count(s), 0u);
}

TEST(Runner, FormatDurationHandlesEdgeCases)
{
    EXPECT_EQ(formatDuration(-3.0), "0.0s");
    EXPECT_EQ(formatDuration(0.0), "0.0s");
    EXPECT_EQ(formatDuration(12.34), "12.3s");
    EXPECT_EQ(formatDuration(59.99), "60.0s");
    EXPECT_EQ(formatDuration(60.0), "1m 00s");
    EXPECT_EQ(formatDuration(125.7), "2m 05s");
    EXPECT_EQ(formatDuration(3600.0), "1h 00m 00s");
    EXPECT_EQ(formatDuration(7387.0), "2h 03m 07s");
    EXPECT_EQ(formatDuration(std::nan("")), "0.0s");
    EXPECT_EQ(formatDuration(-INFINITY), "0.0s");
    // +inf clamps to a finite cap instead of a UB integer cast.
    const auto capped = formatDuration(INFINITY);
    EXPECT_EQ(capped, formatDuration(1.0e15));
    EXPECT_EQ(capped.back(), 's');
}
