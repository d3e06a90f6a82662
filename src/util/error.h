// Error handling primitives shared by all scd modules.
//
// The library throws `scd::Error` for unrecoverable misuse (bad arguments,
// corrupt input files, protocol violations in the simulated transport).
// Internal invariants use SCD_ASSERT which compiles to a cheap check in all
// build types: this is a research library where silent corruption is far
// more expensive than a branch.
#pragma once

#include <stdexcept>
#include <string>

namespace scd {

/// Base exception for all errors raised by the scd library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Raised when input data (graph files, configs) is malformed.
class DataError : public Error {
 public:
  explicit DataError(const std::string& what) : Error(what) {}
};

/// Raised when an API is used outside its contract.
class UsageError : public Error {
 public:
  explicit UsageError(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] void fail_check(const char* kind, const char* expr,
                             const char* file, int line,
                             const std::string& msg);
/// Print the message fail_check("invariant", ...) would throw to stderr,
/// then std::abort — for SCD_KERNEL_ASSERT (util/isa_clones.h).
[[noreturn]] void abort_check(const char* expr, const char* file, int line,
                              const char* msg) noexcept;
}  // namespace detail

}  // namespace scd

/// Validate a user-facing precondition; throws scd::UsageError on failure.
#define SCD_REQUIRE(cond, msg)                                        \
  do {                                                                \
    if (!(cond)) {                                                    \
      ::scd::detail::fail_check("precondition", #cond, __FILE__,      \
                                __LINE__, (msg));                     \
    }                                                                 \
  } while (0)

/// Internal invariant; enabled in every build type.
#define SCD_ASSERT(cond, msg)                                         \
  do {                                                                \
    if (!(cond)) {                                                    \
      ::scd::detail::fail_check("invariant", #cond, __FILE__,         \
                                __LINE__, (msg));                     \
    }                                                                 \
  } while (0)
