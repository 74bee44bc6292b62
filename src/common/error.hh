/**
 * @file
 * Error reporting primitives, following the gem5 fatal/panic distinction.
 *
 * fatal(): the caller (user of the library) supplied an invalid
 * configuration or argument — recoverable by fixing the input; throws
 * FatalError.
 *
 * panic(): an internal invariant was violated — a WANify bug; throws
 * PanicError. Both are exceptions rather than process exits so the test
 * suite can assert on them.
 */

#ifndef WANIFY_COMMON_ERROR_HH
#define WANIFY_COMMON_ERROR_HH

#include <stdexcept>
#include <string>

namespace wanify {

/** Raised when user-provided configuration or inputs are invalid. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error("fatal: " + msg)
    {}
};

/** Raised when an internal invariant is violated (a WANify bug). */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error("panic: " + msg)
    {}
};

/** Abort with a user-error; see class docs. */
[[noreturn]] void fatal(const std::string &msg);

/** Abort with an internal-invariant violation; see class docs. */
[[noreturn]] void panic(const std::string &msg);

/** fatal(msg) when cond holds. */
void fatalIf(bool cond, const std::string &msg);

/** panic(msg) when cond holds. */
void panicIf(bool cond, const std::string &msg);

} // namespace wanify

#endif // WANIFY_COMMON_ERROR_HH
