#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace tracon {
namespace {

TEST(ArgParser, FlagForms) {
  // A flag followed by a non-flag token consumes it as a value, so
  // positionals must precede value-less flags.
  ArgParser args({"pos1", "pos2", "--alpha", "3", "--beta=xyz", "--gamma"});
  EXPECT_TRUE(args.has("alpha"));
  EXPECT_EQ(args.get("alpha"), "3");
  EXPECT_EQ(args.get("beta"), "xyz");
  EXPECT_TRUE(args.has("gamma"));
  EXPECT_EQ(args.get("gamma"), "");
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(ArgParser, FlagFollowedByFlagIsBoolean) {
  ArgParser args({"--a", "--b", "7"});
  EXPECT_EQ(args.get("a"), "");
  EXPECT_EQ(args.get("b"), "7");
}

TEST(ArgParser, Fallbacks) {
  ArgParser args({"--x", "1.5"});
  EXPECT_EQ(args.get("missing", "def"), "def");
  EXPECT_DOUBLE_EQ(args.get_double("x", 0.0), 1.5);
  EXPECT_DOUBLE_EQ(args.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(args.get_int("missing", 9), 9);
}

TEST(ArgParser, NumericValidation) {
  ArgParser args({"--n", "abc", "--m", "3x"});
  EXPECT_THROW(args.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(args.get_double("m", 0.0), std::invalid_argument);
}

TEST(ArgParser, ArgcArgvConstructor) {
  const char* argv[] = {"prog", "cmd", "--k", "5"};
  ArgParser args(4, argv);
  EXPECT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "cmd");
  EXPECT_EQ(args.get_int("k", 0), 5);
}

TEST(ArgParser, UnknownFlags) {
  ArgParser args({"--good", "1", "--oops", "2"});
  auto unknown = args.unknown_flags({"good"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "oops");
  EXPECT_TRUE(args.unknown_flags({"good", "oops"}).empty());
}

TEST(ArgParser, CountsRejectNegativeValues) {
  ArgParser args({"--queue", "-1", "--threads", "-2", "--machines", "16",
                  "--shards", "0", "--top", "x"});
  EXPECT_EQ(args.get_count("machines", 64), 16u);
  EXPECT_EQ(args.get_count("shards", 4), 0u);  // 0 keeps its "auto" meaning
  EXPECT_EQ(args.get_count("missing", 7), 7u);
  EXPECT_THROW(args.get_count("top", 10), std::invalid_argument);
  for (const char* flag : {"queue", "threads"}) {
    try {
      args.get_count(flag, 1);
      ADD_FAILURE() << "--" << flag << " accepted a negative count";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + flag),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ArgParser, BareDashesRejected) {
  EXPECT_THROW(ArgParser({"--"}), std::invalid_argument);
}

}  // namespace
}  // namespace tracon
