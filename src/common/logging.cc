#include "common/logging.hh"

#include <iostream>

namespace wanify {
namespace logging {

void
warn(const std::string &msg)
{
    std::cerr << "warn: " << msg << "\n";
}

} // namespace logging
} // namespace wanify
