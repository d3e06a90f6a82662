#include "util/cli.h"

#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/error.h"

namespace scd {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

ArgParser::Option& ArgParser::add_option(
    const std::string& name, const std::string& help,
    std::string default_repr, bool is_flag,
    std::function<void(const std::string&)> apply) {
  SCD_REQUIRE(index_.find(name) == index_.end(),
              "duplicate option --" + name);
  Option opt;
  opt.name = name;
  opt.help = help;
  opt.default_repr = std::move(default_repr);
  opt.is_flag = is_flag;
  opt.apply = std::move(apply);
  index_[name] = options_.size();
  options_.push_back(std::move(opt));
  return options_.back();
}

ArgParser& ArgParser::add_flag(const std::string& name, bool* target,
                               const std::string& help) {
  add_option(name, help, *target ? "true" : "false", /*is_flag=*/true,
             [target](const std::string& v) {
               if (v.empty() || v == "true" || v == "1") {
                 *target = true;
               } else if (v == "false" || v == "0") {
                 *target = false;
               } else {
                 throw UsageError("flag takes true/false, got '" + v + "'");
               }
             });
  return *this;
}

namespace {
template <typename T, typename Conv>
std::function<void(const std::string&)> numeric_apply(const char* type_name,
                                                      T* target, Conv conv) {
  return [type_name, target, conv](const std::string& v) {
    try {
      std::size_t pos = 0;
      *target = conv(v, &pos);
      if (pos != v.size()) throw std::invalid_argument("trailing chars");
    } catch (const std::exception&) {
      throw UsageError(std::string("expected ") + type_name + ", got '" + v +
                       "'");
    }
  };
}
}  // namespace

ArgParser& ArgParser::add_int(const std::string& name, std::int64_t* target,
                              const std::string& help) {
  add_option(name, help, std::to_string(*target), false,
             numeric_apply("integer", target,
                           [](const std::string& s, std::size_t* pos) {
                             return std::stoll(s, pos);
                           }));
  return *this;
}

namespace {
std::uint64_t parse_unsigned(const std::string& s, std::size_t* pos) {
  if (!s.empty() && s[0] == '-') throw std::invalid_argument("negative");
  return std::stoull(s, pos);
}
}  // namespace

ArgParser& ArgParser::add_uint(const std::string& name, std::uint64_t* target,
                               const std::string& help) {
  add_option(name, help, std::to_string(*target), false,
             numeric_apply("unsigned integer", target, parse_unsigned));
  return *this;
}

ArgParser& ArgParser::add_uint(const std::string& name, std::uint32_t* target,
                               const std::string& help) {
  add_option(name, help, std::to_string(*target), false,
             [target](const std::string& v) {
               std::uint64_t wide = 0;
               numeric_apply("unsigned integer", &wide, parse_unsigned)(v);
               if (wide > std::numeric_limits<std::uint32_t>::max()) {
                 throw UsageError("expected at most 4294967295, got '" + v +
                                  "'");
               }
               *target = static_cast<std::uint32_t>(wide);
             });
  return *this;
}

ArgParser& ArgParser::add_double(const std::string& name, double* target,
                                 const std::string& help) {
  add_option(name, help, std::to_string(*target), false,
             numeric_apply("number", target,
                           [](const std::string& s, std::size_t* pos) {
                             return std::stod(s, pos);
                           }));
  return *this;
}

ArgParser& ArgParser::add_string(const std::string& name, std::string* target,
                                 const std::string& help) {
  add_option(name, help, *target, false,
             [target](const std::string& v) { *target = v; });
  return *this;
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    SCD_REQUIRE(arg.size() > 2 && arg.compare(0, 2, "--") == 0,
                "unexpected argument '" + arg + "'; options use --name");
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    auto it = index_.find(name);
    SCD_REQUIRE(it != index_.end(), "unknown option --" + name);
    const Option& opt = options_[it->second];
    if (!opt.is_flag && !has_value) {
      SCD_REQUIRE(i + 1 < argc, "option --" + name + " needs a value");
      value = argv[++i];
    }
    try {
      opt.apply(value);
    } catch (const UsageError& e) {
      throw UsageError("--" + name + ": " + e.what());
    }
  }
  return true;
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\nOptions:\n";
  for (const Option& opt : options_) {
    os << "  --" << opt.name;
    if (!opt.is_flag) os << " <value>";
    os << "\n      " << opt.help << " (default: " << opt.default_repr
       << ")\n";
  }
  return os.str();
}

}  // namespace scd
