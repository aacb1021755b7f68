#include "common/cli.hpp"

#include <gtest/gtest.h>

namespace gossip {
namespace {

TEST(ArgParser, ParsesNameValuePairs) {
  const ArgParser args({"--nodes", "100", "--loss=0.05"});
  EXPECT_TRUE(args.has("nodes"));
  EXPECT_TRUE(args.has("loss"));
  EXPECT_FALSE(args.has("rounds"));
  EXPECT_EQ(args.get_string("nodes", ""), "100");
  EXPECT_EQ(args.get_string("loss", ""), "0.05");
}

TEST(ArgParser, Positionals) {
  const ArgParser args({"simulate", "--nodes", "10", "extra"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "simulate");
  EXPECT_EQ(args.positional()[1], "extra");
}

TEST(ArgParser, TypedGettersWithDefaults) {
  const ArgParser args({"--n", "42", "--x", "0.5", "--big", "-7"});
  EXPECT_EQ(args.get_int("n", 0, 0, 100), 42);
  EXPECT_EQ(args.get_int("absent", 9, 0, 100), 9);
  EXPECT_EQ(args.get_size("n", 0, 0, 100), 42u);
  EXPECT_DOUBLE_EQ(args.get_double("x", 0.0, 0.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(args.get_double("absent", 0.25, 0.0, 1.0), 0.25);
  EXPECT_EQ(args.get_int("big", 0, -10, 10), -7);
}

TEST(ArgParser, RangeValidation) {
  const ArgParser args({"--n", "42", "--x", "1.5"});
  EXPECT_THROW((void)(args.get_int("n", 0, 0, 10)), CliError);
  EXPECT_THROW((void)(args.get_double("x", 0.0, 0.0, 1.0)), CliError);
}

TEST(ArgParser, NaNIsOutOfEveryRange) {
  const ArgParser args({"--x", "nan", "--y", "-NaN"});
  EXPECT_THROW((void)(args.get_double("x", 0.0, 0.0, 1.0)), CliError);
  EXPECT_THROW((void)(args.get_double("y", 0.0, -1.0, 1.0)), CliError);
}

TEST(ArgParser, MalformedNumbers) {
  const ArgParser args({"--n", "4x2", "--x", "zero"});
  EXPECT_THROW((void)(args.get_int("n", 0, 0, 100)), CliError);
  EXPECT_THROW((void)(args.get_double("x", 0.0, 0.0, 1.0)), CliError);
}

TEST(ArgParser, Flags) {
  const ArgParser args({"--verbose", "--color=false", "--fast", "true"});
  EXPECT_TRUE(args.get_flag("verbose"));
  EXPECT_FALSE(args.get_flag("color"));
  EXPECT_TRUE(args.get_flag("fast"));
  EXPECT_FALSE(args.get_flag("absent"));
  EXPECT_TRUE(args.get_flag("absent", true));
}

TEST(ArgParser, BadFlagValue) {
  const ArgParser args({"--flag", "maybe"});
  EXPECT_THROW((void)(args.get_flag("flag")), CliError);
}

TEST(ArgParser, BareFlagHasNoStringValue) {
  const ArgParser args({"--flag"});
  EXPECT_TRUE(args.has("flag"));
  EXPECT_THROW((void)(args.get_string("flag", "")), CliError);
}

TEST(ArgParser, EmptyOptionNameThrows) {
  EXPECT_THROW((void)(ArgParser({"--"})), CliError);
  EXPECT_THROW((void)(ArgParser({"--=5"})), CliError);
}

TEST(ArgParser, ArgcArgvConstructorSkipsProgramName) {
  const char* argv[] = {"prog", "--n", "5"};
  const ArgParser args(3, argv);
  EXPECT_EQ(args.get_int("n", 0, 0, 10), 5);
}

TEST(ArgParser, OptionNames) {
  const ArgParser args({"--b", "1", "--a=2"});
  const auto names = args.option_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");  // map order
  EXPECT_EQ(names[1], "b");
}

TEST(ArgParser, LastValueWins) {
  const ArgParser args({"--n", "1", "--n", "2"});
  EXPECT_EQ(args.get_int("n", 0, 0, 10), 2);
}

}  // namespace
}  // namespace gossip
