#include "fault/fault_plan.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/error.h"

namespace scd::fault {

namespace {

// Minimal recursive-descent parser for the subset of JSON a fault plan
// uses: objects, arrays, and numbers (with exponents); the literals
// true/false/null are rejected since no plan field accepts them. No
// string escapes beyond \" and \\ — plan files hold identifiers, not
// prose. Hand-rolled so the container image needs no JSON dependency.
class JsonCursor {
 public:
  explicit JsonCursor(std::string_view text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'");
    }
    ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        c = text_[pos_++];
        if (c != '"' && c != '\\') fail("unsupported string escape");
      }
      out.push_back(c);
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  double parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a number");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      fail("malformed number '" + token + "'");
    }
    return value;
  }

  /// Skip any value (used for the literals true/false/null, which no
  /// plan field accepts — reaching one is a schema error upstream).
  void fail_on_literal() {
    const char c = peek();
    if (c == 't' || c == 'f' || c == 'n') {
      fail("boolean/null not valid in a fault plan");
    }
  }

  [[noreturn]] void fail(const std::string& msg) const {
    throw DataError("fault plan JSON (offset " + std::to_string(pos_) +
                    "): " + msg);
  }

  bool at_end() {
    skip_ws();
    return pos_ >= text_.size();
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Parse one {"key": number, ...} object, dispatching each field through
/// `field(key, value)` which returns false for unknown keys.
template <typename FieldFn>
void parse_flat_object(JsonCursor& cur, const char* what, FieldFn&& field) {
  cur.expect('{');
  if (cur.consume('}')) return;
  while (true) {
    const std::string key = cur.parse_string();
    cur.expect(':');
    cur.fail_on_literal();
    const double value = cur.parse_number();
    if (!field(key, value)) {
      cur.fail(std::string("unknown ") + what + " field '" + key + "'");
    }
    if (cur.consume('}')) return;
    cur.expect(',');
  }
}

template <typename ItemFn>
void parse_array(JsonCursor& cur, ItemFn&& item) {
  cur.expect('[');
  if (cur.consume(']')) return;
  while (true) {
    item(cur);
    if (cur.consume(']')) return;
    cur.expect(',');
  }
}

/// `value` as a T, or a parse error unless it is a non-negative integer
/// that T holds exactly (no wrap, truncation or out-of-range cast).
template <typename T = unsigned>
T as_index(JsonCursor& cur, const char* what, double value) {
  // 2^digits is exact in a double and is the first value T cannot hold.
  const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (!(value >= 0.0 && value < limit) || value != std::floor(value)) {
    cur.fail(std::string(what) +
             " must be a non-negative integer its field can hold");
  }
  return static_cast<T>(value);
}

}  // namespace

void FaultPlan::validate(unsigned num_ranks) const {
  SCD_REQUIRE(heartbeat_timeout_s > 0.0,
              "heartbeat_timeout_s must be positive");
  SCD_REQUIRE(retry_backoff_s >= 0.0, "retry_backoff_s must be >= 0");
  for (const CrashEvent& c : crashes) {
    SCD_REQUIRE(c.rank >= 1, "the master (rank 0) cannot crash");
    SCD_REQUIRE(c.rank < num_ranks, "crash rank out of range");
    if (c.iteration_triggered()) {
      SCD_REQUIRE(c.time_s == 0.0,
                  "a crash is triggered by time_s OR at_iteration, not both");
      SCD_REQUIRE(static_cast<unsigned>(c.at_point) < kNumCrashPoints,
                  "crash at_point out of range");
    } else {
      SCD_REQUIRE(c.time_s > 0.0, "crash time must be positive");
    }
  }
  for (const LinkFault& l : links) {
    SCD_REQUIRE(l.from < num_ranks && l.to < num_ranks,
                "link fault rank out of range");
    SCD_REQUIRE(l.from != l.to, "link fault needs two distinct ranks");
    SCD_REQUIRE(l.drop_prob >= 0.0 && l.drop_prob < 1.0,
                "drop_prob must be in [0, 1)");
    SCD_REQUIRE(l.dup_prob >= 0.0 && l.dup_prob <= 1.0,
                "dup_prob must be in [0, 1]");
    SCD_REQUIRE(l.delay_s >= 0.0, "link delay must be >= 0");
    SCD_REQUIRE(l.start_s < l.end_s, "link fault window is empty");
  }
  for (const StragglerWindow& s : stragglers) {
    SCD_REQUIRE(s.rank < num_ranks, "straggler rank out of range");
    SCD_REQUIRE(s.slowdown >= 1.0, "straggler slowdown must be >= 1");
    SCD_REQUIRE(s.start_s < s.end_s, "straggler window is empty");
  }
  for (const ShardStall& s : dkv_stalls) {
    SCD_REQUIRE(s.shard < num_ranks - 1, "stalled shard out of range");
    SCD_REQUIRE(s.stall_s >= 0.0, "shard stall must be >= 0");
    SCD_REQUIRE(s.start_s < s.end_s, "shard stall window is empty");
  }
}

FaultPlan FaultPlan::from_json(std::string_view text) {
  FaultPlan plan;
  JsonCursor cur(text);
  cur.expect('{');
  if (!cur.consume('}')) {
    while (true) {
      const std::string key = cur.parse_string();
      cur.expect(':');
      if (key == "seed") {
        plan.seed = as_index<std::uint64_t>(cur, "seed", cur.parse_number());
      } else if (key == "heartbeat_timeout_s") {
        plan.heartbeat_timeout_s = cur.parse_number();
      } else if (key == "retry_backoff_s") {
        plan.retry_backoff_s = cur.parse_number();
      } else if (key == "crashes") {
        parse_array(cur, [&](JsonCursor& c) {
          CrashEvent e;
          parse_flat_object(c, "crash", [&](const std::string& f, double v) {
            if (f == "rank") e.rank = as_index(c, "rank", v);
            else if (f == "time_s") e.time_s = v;
            else if (f == "at_iteration")
              e.at_iteration =
                  as_index<std::uint64_t>(c, "at_iteration", v);
            else if (f == "at_point")
              e.at_point = static_cast<CrashPoint>(as_index(c, "at_point", v));
            else return false;
            return true;
          });
          plan.crashes.push_back(e);
        });
      } else if (key == "links") {
        parse_array(cur, [&](JsonCursor& c) {
          LinkFault e;
          parse_flat_object(c, "link", [&](const std::string& f, double v) {
            if (f == "from") e.from = as_index(c, "from", v);
            else if (f == "to") e.to = as_index(c, "to", v);
            else if (f == "start_s") e.start_s = v;
            else if (f == "end_s") e.end_s = v;
            else if (f == "drop_prob") e.drop_prob = v;
            else if (f == "dup_prob") e.dup_prob = v;
            else if (f == "delay_s") e.delay_s = v;
            else return false;
            return true;
          });
          plan.links.push_back(e);
        });
      } else if (key == "stragglers") {
        parse_array(cur, [&](JsonCursor& c) {
          StragglerWindow e;
          parse_flat_object(c, "straggler",
                            [&](const std::string& f, double v) {
            if (f == "rank") e.rank = as_index(c, "rank", v);
            else if (f == "start_s") e.start_s = v;
            else if (f == "end_s") e.end_s = v;
            else if (f == "slowdown") e.slowdown = v;
            else return false;
            return true;
          });
          plan.stragglers.push_back(e);
        });
      } else if (key == "dkv_stalls") {
        parse_array(cur, [&](JsonCursor& c) {
          ShardStall e;
          parse_flat_object(c, "dkv_stall",
                            [&](const std::string& f, double v) {
            if (f == "shard") e.shard = as_index(c, "shard", v);
            else if (f == "start_s") e.start_s = v;
            else if (f == "end_s") e.end_s = v;
            else if (f == "stall_s") e.stall_s = v;
            else return false;
            return true;
          });
          plan.dkv_stalls.push_back(e);
        });
      } else {
        cur.fail("unknown fault plan field '" + key + "'");
      }
      if (cur.consume('}')) break;
      cur.expect(',');
    }
  }
  if (!cur.at_end()) cur.fail("trailing content after the plan object");
  return plan;
}

FaultPlan FaultPlan::from_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw DataError("cannot open fault plan '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  return from_json(text.str());
}

}  // namespace scd::fault
