/**
 * @file
 * Strict numeric flag parsing shared by the command-line tools.
 *
 * std::atoi and std::atof read garbage as 0, stop silently at the
 * first bad character ("8abc" is 8, "4.5" is 4), wrap a leading minus
 * sign into a huge unsigned value, and overflow into undefined
 * behaviour. These parsers accept only the whole string, reject signs,
 * range-check against the destination type, and print a message that
 * names the flag when they refuse a value.
 */

#ifndef WANIFY_CLI_NUMERIC_FLAGS_HH
#define WANIFY_CLI_NUMERIC_FLAGS_HH

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace wanify {
namespace cli {

/** Parse @p v, the value of @p flag, as a non-negative integer;
 *  prints the cause and returns false on anything else (atoi would
 *  read garbage as 0). */
template <typename Int>
bool
parseCount(const char *flag, const char *v, Int &out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(v, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(v[0])) ||
        *end != '\0' || errno == ERANGE ||
        parsed > std::numeric_limits<Int>::max()) {
        std::fprintf(stderr,
                     "%s expects a non-negative integer, got '%s'\n",
                     flag, v);
        return false;
    }
    out = static_cast<Int>(parsed);
    return true;
}

/** Parse @p v, the value of @p flag, as a finite non-negative number. */
inline bool
parseReal(const char *flag, const char *v, double &out)
{
    char *end = nullptr;
    const double parsed = std::strtod(v, &end);
    if (end == v || *end != '\0' || !std::isfinite(parsed) ||
        parsed < 0.0) {
        std::fprintf(stderr,
                     "%s expects a non-negative number, got '%s'\n",
                     flag, v);
        return false;
    }
    out = parsed;
    return true;
}

} // namespace cli
} // namespace wanify

#endif // WANIFY_CLI_NUMERIC_FLAGS_HH
