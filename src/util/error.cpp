#include "util/error.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace scd::detail {

void fail_check(const char* kind, const char* expr, const char* file,
                int line, const std::string& msg) {
  std::ostringstream os;
  os << "scd " << kind << " violated: (" << expr << ") at " << file << ':'
     << line;
  if (!msg.empty()) os << " — " << msg;
  throw UsageError(os.str());
}

void abort_check(const char* expr, const char* file, int line,
                 const char* msg) noexcept {
  std::fprintf(stderr, "scd invariant violated: (%s) at %s:%d — %s\n", expr,
               file, line, msg);
  std::abort();
}

}  // namespace scd::detail
