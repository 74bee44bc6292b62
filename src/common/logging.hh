/**
 * @file
 * Status messages in the gem5 style: warn() for conditions that might
 * indicate a problem. It does not stop execution; fatal()/panic()
 * (error.hh) do.
 */

#ifndef WANIFY_COMMON_LOGGING_HH
#define WANIFY_COMMON_LOGGING_HH

#include <string>

namespace wanify {
namespace logging {

/** Something might be off but execution continues: prints
 *  "warn: <msg>" to standard error. */
void warn(const std::string &msg);

} // namespace logging
} // namespace wanify

#endif // WANIFY_COMMON_LOGGING_HH
