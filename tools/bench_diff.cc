/**
 * @file
 * Perf-trajectory diff gate: compares freshly produced BENCH_*.json
 * files against their committed baselines and fails on regression.
 *
 * The BENCH files carry two kinds of metric: absolute wall-clock
 * values (machine-dependent — meaningless to compare across a dev box
 * and a CI runner) and ratio/score metrics (algorithm-vs-algorithm on
 * the same machine, or virtual-time service metrics — comparable
 * anywhere). Only keys matching a gated prefix are compared,
 * higher-is-better, with a 25% relative tolerance by default: a fresh
 * value below baseline * (1 - tolerance) fails, and so does a gated
 * baseline key missing from the fresh file (a silently dropped
 * measurement is how trajectories rot), and so does a gated key whose
 * baseline or fresh value is not finite. Improvements always pass and
 * should be locked in by committing the fresh file as the new
 * baseline. Pool-dependent keys (speedup_predict_batch_pool) are
 * skipped with a visible note when either file records
 * `pool_threads: 1` — a one-thread pool has nothing to fan out over,
 * so that ratio is scheduler noise, not a signal.
 *
 * Usage:
 *   wanify-bench-diff <baseline.json> <fresh.json>
 *                     [<baseline2.json> <fresh2.json> ...]
 *                     [--max-regress 0.25] [--prefix speedup_,serve_]
 *
 * Any even number of positional (baseline, fresh) pairs is accepted,
 * so one invocation gates the whole trajectory — inference, training,
 * and serve — in a single CI step; the exit code is nonzero if any
 * pair regressed. --prefix takes a comma-separated list of gated key
 * prefixes applied to every pair.
 *
 * The parser understands exactly the flat `"results": { "key":
 * number, ... }` object the bench binaries emit — no JSON library
 * needed (and none available without new dependencies).
 */

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/numeric_flags.hh"

namespace {

struct Metric
{
    std::string name;
    double value;
};

/** Extract "key": number pairs from the "results" object. */
std::vector<Metric>
parseResults(const std::string &text, const std::string &path)
{
    const std::size_t anchor = text.find("\"results\"");
    if (anchor == std::string::npos) {
        std::fprintf(stderr, "%s: no \"results\" object\n",
                     path.c_str());
        std::exit(2);
    }
    const std::size_t open = text.find('{', anchor);
    const std::size_t close = text.find('}', open);
    if (open == std::string::npos || close == std::string::npos) {
        std::fprintf(stderr, "%s: malformed \"results\" object\n",
                     path.c_str());
        std::exit(2);
    }

    std::vector<Metric> metrics;
    std::size_t pos = open + 1;
    while (pos < close) {
        const std::size_t keyStart = text.find('"', pos);
        if (keyStart == std::string::npos || keyStart >= close)
            break;
        const std::size_t keyEnd = text.find('"', keyStart + 1);
        if (keyEnd == std::string::npos || keyEnd >= close)
            break;
        const std::size_t colon = text.find(':', keyEnd);
        if (colon == std::string::npos || colon >= close)
            break;
        std::size_t valStart = colon + 1;
        while (valStart < close &&
               std::isspace(static_cast<unsigned char>(
                   text[valStart])))
            ++valStart;
        char *end = nullptr;
        const double value =
            std::strtod(text.c_str() + valStart, &end);
        if (end == text.c_str() + valStart) {
            std::fprintf(stderr, "%s: non-numeric value for \"%s\"\n",
                         path.c_str(),
                         text.substr(keyStart + 1,
                                     keyEnd - keyStart - 1)
                             .c_str());
            std::exit(2);
        }
        metrics.push_back(
            {text.substr(keyStart + 1, keyEnd - keyStart - 1),
             value});
        pos = static_cast<std::size_t>(end - text.c_str());
    }
    if (metrics.empty()) {
        std::fprintf(stderr, "%s: empty \"results\" object\n",
                     path.c_str());
        std::exit(2);
    }
    return metrics;
}

std::string
readFile(const char *path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "cannot read %s\n", path);
        std::exit(2);
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

const Metric *
find(const std::vector<Metric> &metrics, const std::string &name)
{
    for (const auto &m : metrics)
        if (m.name == name)
            return &m;
    return nullptr;
}

/**
 * Read a top-level numeric field like `"pool_threads": 4` from the
 * raw JSON text (outside the "results" object). Returns @p fallback
 * when absent — older BENCH files predate the field.
 */
double
topLevelNumber(const std::string &text, const std::string &key,
               double fallback)
{
    const std::string needle = "\"" + key + "\"";
    const std::size_t anchor = text.find(needle);
    if (anchor == std::string::npos)
        return fallback;
    const std::size_t colon = text.find(':', anchor + needle.size());
    if (colon == std::string::npos)
        return fallback;
    char *end = nullptr;
    const double value = std::strtod(text.c_str() + colon + 1, &end);
    return end == text.c_str() + colon + 1 ? fallback : value;
}

/**
 * Keys whose value is meaningless on a single-thread pool: the pool
 * speedup compares the batched predict path against itself when
 * there is nothing to fan out over. Gating it on a one-core runner
 * just measures scheduler noise around 1.0x.
 */
bool
poolDependent(const std::string &name)
{
    return name == "speedup_predict_batch_pool";
}

/** Split a comma-separated prefix list; empty entries dropped. */
std::vector<std::string>
splitPrefixes(const std::string &list)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::size_t end =
            comma == std::string::npos ? list.size() : comma;
        if (end > pos)
            out.push_back(list.substr(pos, end - pos));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

bool
matchesAny(const std::string &name,
           const std::vector<std::string> &prefixes)
{
    for (const auto &p : prefixes)
        if (name.compare(0, p.size(), p) == 0)
            return true;
    return false;
}

/**
 * Gate one (baseline, fresh) pair. Returns the number of
 * regressions; exits with status 2 when the pair gates nothing (a
 * misconfigured prefix must not silently pass).
 */
int
diffPair(const char *baselinePath, const char *freshPath,
         const std::vector<std::string> &prefixes, double maxRegress)
{
    const std::string baselineText = readFile(baselinePath);
    const std::string freshText = readFile(freshPath);
    const auto baseline = parseResults(baselineText, baselinePath);
    const auto fresh = parseResults(freshText, freshPath);
    const double basePool =
        topLevelNumber(baselineText, "pool_threads", 0.0);
    const double freshPool =
        topLevelNumber(freshText, "pool_threads", 0.0);

    std::printf("== %s vs %s\n", baselinePath, freshPath);
    int regressions = 0;
    std::size_t gated = 0;
    for (const auto &base : baseline) {
        if (!matchesAny(base.name, prefixes))
            continue;
        ++gated;
        if (poolDependent(base.name) &&
            (basePool == 1.0 || freshPool == 1.0)) {
            std::printf("%-32s SKIPPED: pool_threads == 1 in %s — "
                        "pool speedup is noise on a single-core "
                        "runner\n",
                        base.name.c_str(),
                        freshPool == 1.0
                            ? (basePool == 1.0 ? "baseline and fresh"
                                               : "fresh run")
                            : "baseline");
            continue;
        }
        const Metric *now = find(fresh, base.name);
        if (now == nullptr) {
            std::fprintf(stderr,
                         "REGRESSION %s: present in baseline, "
                         "missing from %s\n",
                         base.name.c_str(), freshPath);
            ++regressions;
            continue;
        }
        if (!std::isfinite(base.value) || !std::isfinite(now->value)) {
            // NaN compares false against any floor, so it would pass.
            std::fprintf(stderr,
                         "REGRESSION %s: non-finite value (baseline "
                         "%g, fresh %g)\n",
                         base.name.c_str(), base.value, now->value);
            ++regressions;
            continue;
        }
        const double floor = base.value * (1.0 - maxRegress);
        const char *verdict =
            now->value < floor ? "REGRESSION" : "ok";
        std::printf("%-32s baseline %9.3f  fresh %9.3f  floor "
                    "%9.3f  %s\n",
                    base.name.c_str(), base.value, now->value, floor,
                    verdict);
        if (now->value < floor)
            ++regressions;
    }
    if (gated == 0) {
        std::fprintf(stderr,
                     "%s: no baseline keys match any gated prefix — "
                     "nothing gated\n",
                     baselinePath);
        std::exit(2);
    }
    return regressions;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s <baseline.json> <fresh.json> "
                 "[<baseline2.json> <fresh2.json> ...]\n"
                 "       [--max-regress 0.25] "
                 "[--prefix speedup_,serve_]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<const char *> paths;
    double maxRegress = 0.25;
    std::string prefixList = "speedup_";
    for (int a = 1; a < argc; ++a) {
        if (std::strcmp(argv[a], "--max-regress") == 0 &&
            a + 1 < argc) {
            if (!wanify::cli::parseReal("--max-regress", argv[++a],
                                        maxRegress))
                return 2;
        } else if (std::strcmp(argv[a], "--prefix") == 0 &&
                   a + 1 < argc) {
            prefixList = argv[++a];
        } else {
            paths.push_back(argv[a]);
        }
    }
    if (paths.empty() || paths.size() % 2 != 0)
        return usage(argv[0]);
    if (maxRegress <= 0.0 || maxRegress >= 1.0) {
        std::fprintf(stderr, "--max-regress must be in (0, 1)\n");
        return 2;
    }
    const std::vector<std::string> prefixes =
        splitPrefixes(prefixList);
    if (prefixes.empty()) {
        std::fprintf(stderr, "--prefix list is empty\n");
        return 2;
    }

    int regressions = 0;
    for (std::size_t p = 0; p + 1 < paths.size(); p += 2)
        regressions +=
            diffPair(paths[p], paths[p + 1], prefixes, maxRegress);

    if (regressions > 0) {
        std::fprintf(stderr,
                     "%d metric(s) regressed more than %.0f%% vs "
                     "baseline\n",
                     regressions, maxRegress * 100.0);
        return 1;
    }
    std::printf("perf trajectory ok: %zu file pair(s) within %.0f%% "
                "of baseline\n",
                paths.size() / 2, maxRegress * 100.0);
    return 0;
}
