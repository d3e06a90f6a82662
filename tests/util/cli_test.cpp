#include "util/cli.h"

#include <gtest/gtest.h>

#include <string>

#include "util/error.h"

namespace scd {
namespace {

struct Opts {
  bool verbose = false;
  std::int64_t iters = 100;
  std::uint64_t nodes = 8;
  double rate = 0.5;
  std::string name = "default";
};

ArgParser make_parser(Opts& opts) {
  ArgParser parser("prog", "test program");
  parser.add_flag("verbose", &opts.verbose, "chatty output")
      .add_int("iters", &opts.iters, "iteration count")
      .add_uint("nodes", &opts.nodes, "cluster size")
      .add_double("rate", &opts.rate, "learning rate")
      .add_string("name", &opts.name, "experiment name");
  return parser;
}

TEST(CliTest, DefaultsSurviveEmptyArgv) {
  Opts opts;
  ArgParser parser = make_parser(opts);
  const char* argv[] = {"prog"};
  EXPECT_TRUE(parser.parse(1, argv));
  EXPECT_EQ(opts.iters, 100);
  EXPECT_EQ(opts.name, "default");
}

TEST(CliTest, ParsesSeparateAndEqualsForms) {
  Opts opts;
  ArgParser parser = make_parser(opts);
  const char* argv[] = {"prog",  "--iters", "250",          "--rate=0.125",
                        "--name", "exp1",   "--nodes=64"};
  EXPECT_TRUE(parser.parse(7, argv));
  EXPECT_EQ(opts.iters, 250);
  EXPECT_DOUBLE_EQ(opts.rate, 0.125);
  EXPECT_EQ(opts.name, "exp1");
  EXPECT_EQ(opts.nodes, 64u);
}

TEST(CliTest, FlagsWork) {
  Opts opts;
  ArgParser parser = make_parser(opts);
  const char* argv[] = {"prog", "--verbose"};
  EXPECT_TRUE(parser.parse(2, argv));
  EXPECT_TRUE(opts.verbose);
}

TEST(CliTest, FlagAcceptsExplicitFalse) {
  Opts opts;
  opts.verbose = true;
  ArgParser parser = make_parser(opts);
  const char* argv[] = {"prog", "--verbose=false"};
  EXPECT_TRUE(parser.parse(2, argv));
  EXPECT_FALSE(opts.verbose);
}

TEST(CliTest, UnknownOptionThrows) {
  Opts opts;
  ArgParser parser = make_parser(opts);
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_THROW(parser.parse(3, argv), UsageError);
}

TEST(CliTest, MalformedNumberThrows) {
  Opts opts;
  ArgParser parser = make_parser(opts);
  const char* argv[] = {"prog", "--iters", "12abc"};
  EXPECT_THROW(parser.parse(3, argv), UsageError);
}

TEST(CliTest, NegativeForUnsignedThrows) {
  Opts opts;
  ArgParser parser = make_parser(opts);
  const char* argv[] = {"prog", "--nodes", "-4"};
  EXPECT_THROW(parser.parse(3, argv), UsageError);
}

TEST(CliTest, Uint32RefusesValuesAboveMax) {
  std::uint32_t threads = 4;
  ArgParser parser("prog", "test program");
  parser.add_uint("threads", &threads, "worker threads");
  for (const char* ok : {"0", "4294967295"}) {
    const char* argv[] = {"prog", "--threads", ok};
    EXPECT_TRUE(parser.parse(3, argv));
    EXPECT_EQ(std::to_string(threads), ok);
  }
  // 2^32 and 2^32 + 1 would narrow to 0 and 1; they are refused, and the
  // message names the option.
  for (const char* wide : {"4294967296", "4294967297", "-1", "7x"}) {
    threads = 4;
    const char* argv[] = {"prog", "--threads", wide};
    try {
      parser.parse(3, argv);
      ADD_FAILURE() << wide << " was accepted";
    } catch (const UsageError& e) {
      EXPECT_NE(std::string(e.what()).find("--threads"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(threads, 4u) << wide;
  }
}

TEST(CliTest, MissingValueThrows) {
  Opts opts;
  ArgParser parser = make_parser(opts);
  const char* argv[] = {"prog", "--iters"};
  EXPECT_THROW(parser.parse(2, argv), UsageError);
}

TEST(CliTest, HelpReturnsFalseAndMentionsOptions) {
  Opts opts;
  ArgParser parser = make_parser(opts);
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(parser.parse(2, argv));
  EXPECT_NE(parser.usage().find("--iters"), std::string::npos);
  EXPECT_NE(parser.usage().find("learning rate"), std::string::npos);
}

TEST(CliTest, DuplicateRegistrationThrows) {
  Opts opts;
  ArgParser parser("p", "d");
  parser.add_int("x", &opts.iters, "first");
  EXPECT_THROW(parser.add_double("x", &opts.rate, "second"), UsageError);
}

}  // namespace
}  // namespace scd
