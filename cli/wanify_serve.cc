/**
 * @file
 * `wanify-serve` — run the resident multi-query WAN-sharing service
 * over a mixed workload and report aggregate service metrics.
 *
 *   wanify-serve run [options]
 *   wanify-serve verify [options]
 *
 * Options:
 *   --queries N        workload size                  (default 300)
 *   --dcs N            cluster size, 2..256           (default 8)
 *   --concurrent N     admission cap                  (default 256)
 *   --policy P         maxmin | weighted              (default maxmin)
 *   --scheduler S      tetrium | kimchi | locality    (default tetrium)
 *   --epoch E          control-plane quantum seconds  (default 1)
 *   --window W         arrival window seconds         (default 60)
 *   --heavy F          heavy-query fraction           (default 0.08)
 *   --retrain-every K  republish the predictor every K completions
 *                      (default 0 = never)
 *   --no-model         plan from raw path capacities (skip the
 *                      shared predictor; much faster to start)
 *   --quiet            disable stationary OU fluctuation
 *   --seed S           base seed                      (default 1)
 *
 * `run` executes one drain and prints the report. `verify` runs the
 * same configuration twice and fails unless the two aggregate result
 * hashes are bit-identical — the service determinism contract under
 * CTest, same shape as `wanify-scenario verify`.
 *
 * Exit status: 0 on success, 1 when verify finds differing hashes or
 * the service rejects the configuration, 2 on a usage error (unknown
 * option, a numeric flag that is not a non-negative number, or
 * --dcs out of range).
 */

#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <string>

#include "experiments/predictor_factory.hh"
#include "experiments/testbed.hh"
#include "serve/service.hh"
#include "serve/workload.hh"

#include "numeric_flags.hh"

using namespace wanify;
using cli::parseCount;
using cli::parseReal;

namespace {

struct CliOptions
{
    std::size_t queries = 300;
    std::size_t dcs = 8;
    std::size_t concurrent = 256;
    serve::AllocPolicy policy = serve::AllocPolicy::MaxMinFair;
    serve::SchedulerKind scheduler = serve::SchedulerKind::Tetrium;
    Seconds epoch = 1.0;
    Seconds window = 60.0;
    double heavy = 0.08;
    std::size_t retrainEvery = 0;
    bool useModel = true;
    bool fluctuation = true;
    std::uint64_t seed = 1;
};

int
usage()
{
    std::printf(
        "usage: wanify-serve <command> [options]\n"
        "  run      drain one mixed workload and print the report\n"
        "  verify   drain the workload twice; fail unless the\n"
        "           aggregate result hashes are bit-identical\n"
        "options: --queries N --dcs N --concurrent N\n"
        "         --policy maxmin|weighted\n"
        "         --scheduler tetrium|kimchi|locality\n"
        "         --epoch E --window W --heavy F\n"
        "         --retrain-every K --no-model --quiet --seed S\n");
    return 2;
}

bool
parseOptions(int argc, char **argv, int first, CliOptions &opts)
{
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *what) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", what);
                return nullptr;
            }
            return argv[++i];
        };
        const char *v = nullptr;
        if (arg == "--queries") {
            if ((v = next("--queries")) == nullptr ||
                !parseCount("--queries", v, opts.queries))
                return false;
        } else if (arg == "--dcs") {
            if ((v = next("--dcs")) == nullptr ||
                !parseCount("--dcs", v, opts.dcs))
                return false;
        } else if (arg == "--concurrent") {
            if ((v = next("--concurrent")) == nullptr ||
                !parseCount("--concurrent", v, opts.concurrent))
                return false;
        } else if (arg == "--policy") {
            if ((v = next("--policy")) == nullptr)
                return false;
            if (std::strcmp(v, "maxmin") == 0) {
                opts.policy = serve::AllocPolicy::MaxMinFair;
            } else if (std::strcmp(v, "weighted") == 0) {
                opts.policy = serve::AllocPolicy::WeightedPriority;
            } else {
                std::fprintf(stderr, "unknown policy '%s'\n", v);
                return false;
            }
        } else if (arg == "--scheduler") {
            if ((v = next("--scheduler")) == nullptr)
                return false;
            if (std::strcmp(v, "tetrium") == 0) {
                opts.scheduler = serve::SchedulerKind::Tetrium;
            } else if (std::strcmp(v, "kimchi") == 0) {
                opts.scheduler = serve::SchedulerKind::Kimchi;
            } else if (std::strcmp(v, "locality") == 0) {
                opts.scheduler = serve::SchedulerKind::Locality;
            } else {
                std::fprintf(stderr, "unknown scheduler '%s'\n", v);
                return false;
            }
        } else if (arg == "--epoch") {
            if ((v = next("--epoch")) == nullptr ||
                !parseReal("--epoch", v, opts.epoch))
                return false;
        } else if (arg == "--window") {
            if ((v = next("--window")) == nullptr ||
                !parseReal("--window", v, opts.window))
                return false;
        } else if (arg == "--heavy") {
            if ((v = next("--heavy")) == nullptr ||
                !parseReal("--heavy", v, opts.heavy))
                return false;
        } else if (arg == "--retrain-every") {
            if ((v = next("--retrain-every")) == nullptr ||
                !parseCount("--retrain-every", v, opts.retrainEvery))
                return false;
        } else if (arg == "--no-model") {
            opts.useModel = false;
        } else if (arg == "--quiet") {
            opts.fluctuation = false;
        } else if (arg == "--seed") {
            if ((v = next("--seed")) == nullptr ||
                !parseCount("--seed", v, opts.seed))
                return false;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n",
                         arg.c_str());
            return false;
        }
    }
    // A mesh needs two DCs, and 256 is the largest cluster the perf
    // sweep exercises; far past it the per-pair state ends in an
    // allocation failure or a drain that runs for minutes.
    if (opts.dcs < 2 || opts.dcs > 256) {
        std::fprintf(stderr, "--dcs must be in [2, 256]\n");
        return false;
    }
    return true;
}

serve::ServiceReport
drainOnce(const CliOptions &opts)
{
    // A fresh facade per drain: a retrain-publishing drain swaps its
    // own facade's model, so back-to-back drains (verify mode) still
    // start from the identical published predictor.
    std::unique_ptr<core::Wanify> wanify;
    if (opts.useModel) {
        wanify = std::make_unique<core::Wanify>();
        wanify->setPredictor(experiments::sharedPredictor());
    }

    serve::ServiceConfig cfg;
    cfg.policy = opts.policy;
    cfg.scheduler = opts.scheduler;
    cfg.maxConcurrent = opts.concurrent;
    cfg.epoch = opts.epoch;
    cfg.retrainEveryCompleted = opts.retrainEvery;

    serve::Service service(experiments::workerCluster(opts.dcs),
                           cfg,
                           opts.fluctuation
                               ? experiments::defaultSimConfig()
                               : experiments::quietSimConfig(),
                           wanify.get(), opts.seed);

    serve::WorkloadConfig wl;
    wl.queries = opts.queries;
    wl.heavyFraction = opts.heavy;
    wl.arrivalWindow = opts.window;
    for (serve::QuerySpec &q :
         serve::mixedWorkload(wl, opts.dcs, opts.seed))
        service.submit(std::move(q));
    return service.drain();
}

void
printReport(const serve::ServiceReport &report)
{
    std::printf("queries          %zu\n", report.queries.size());
    std::printf("completed        %zu\n", report.completed);
    std::printf("timed-out        %zu\n", report.timedOut);
    std::printf("peak-concurrent  %zu\n", report.peakConcurrent);
    std::printf("queued           %zu\n", report.queuedAdmissions);
    std::printf("makespan-s       %.1f\n", report.makespan);
    std::printf("queries-per-hour %.1f\n", report.throughputPerHour);
    std::printf("jain-fairness    %.4f\n", report.jainFairness);
    std::printf("redispatches     %zu\n", report.redispatches);
    std::printf("retrains         %zu\n", report.retrainsPublished);
    std::printf("capped-pairs     %zu\n", report.cappedPairRounds);
    std::printf("result-hash      %016llx\n",
                static_cast<unsigned long long>(report.resultHash));
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    CliOptions opts;
    if (!parseOptions(argc, argv, 2, opts))
        return usage();

    try {
        if (command == "run") {
            printReport(drainOnce(opts));
            return 0;
        }
        if (command == "verify") {
            const auto a = drainOnce(opts);
            const auto b = drainOnce(opts);
            std::printf("hash-a %016llx\nhash-b %016llx\n",
                        static_cast<unsigned long long>(a.resultHash),
                        static_cast<unsigned long long>(b.resultHash));
            if (a.resultHash != b.resultHash) {
                std::fprintf(stderr,
                             "verify FAILED: reports differ\n");
                return 1;
            }
            std::printf("verify OK: bit-identical reports\n");
            return 0;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "wanify-serve: %s\n", e.what());
        return 1;
    }
    return usage();
}
