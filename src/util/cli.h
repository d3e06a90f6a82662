// Tiny declarative command-line parser used by examples and benches.
//
// Supports `--name value`, `--name=value` and boolean `--flag` options.
// Unknown options are an error so typos never silently fall back to
// defaults — a classic source of bogus benchmark configurations.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace scd {

class ArgParser {
 public:
  /// `program` and `description` feed the generated --help text.
  ArgParser(std::string program, std::string description);

  ArgParser& add_flag(const std::string& name, bool* target,
                      const std::string& help);
  ArgParser& add_int(const std::string& name, std::int64_t* target,
                     const std::string& help);
  ArgParser& add_uint(const std::string& name, std::uint64_t* target,
                      const std::string& help);
  /// 32-bit target: values above UINT32_MAX are a UsageError, never
  /// narrowed.
  ArgParser& add_uint(const std::string& name, std::uint32_t* target,
                      const std::string& help);
  ArgParser& add_double(const std::string& name, double* target,
                        const std::string& help);
  ArgParser& add_string(const std::string& name, std::string* target,
                        const std::string& help);

  /// Parse argv. Returns false (after printing usage) when --help was
  /// given; throws scd::UsageError on malformed input.
  bool parse(int argc, const char* const* argv);

  std::string usage() const;

 private:
  struct Option {
    std::string name;
    std::string help;
    std::string default_repr;
    bool is_flag = false;
    std::function<void(const std::string&)> apply;
  };

  Option& add_option(const std::string& name, const std::string& help,
                     std::string default_repr, bool is_flag,
                     std::function<void(const std::string&)> apply);

  std::string program_;
  std::string description_;
  std::vector<Option> options_;
  std::map<std::string, std::size_t> index_;
};

}  // namespace scd
