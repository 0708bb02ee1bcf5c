#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

namespace vs07 {
namespace {

CliParser makeParser() {
  CliParser parser("test program");
  parser.option("nodes", "population size")
      .option("rate", "churn rate")
      .option("paper", "full scale", /*takesValue=*/false)
      .option("threads", "worker threads")
      .option("label", "free text");
  return parser;
}

std::optional<CliArgs> parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> args{"prog"};
  args.insert(args.end(), argv.begin(), argv.end());
  return makeParser().parse(static_cast<int>(args.size()), args.data());
}

TEST(Cli, SeparateValueForm) {
  const auto args = parse({"--nodes", "500"});
  ASSERT_TRUE(args.has_value());
  EXPECT_EQ(args->getUint("nodes", 0), 500u);
}

TEST(Cli, EqualsValueForm) {
  const auto args = parse({"--nodes=250"});
  ASSERT_TRUE(args.has_value());
  EXPECT_EQ(args->getUint("nodes", 0), 250u);
}

TEST(Cli, BooleanFlag) {
  const auto args = parse({"--paper"});
  ASSERT_TRUE(args.has_value());
  EXPECT_TRUE(args->getBool("paper"));
  EXPECT_FALSE(args->getBool("missing"));
}

TEST(Cli, BooleanWithExplicitValue) {
  EXPECT_TRUE(parse({"--paper=true"})->getBool("paper"));
  EXPECT_FALSE(parse({"--paper=false"})->getBool("paper"));
  // Junk is rejected at parse time, before the experiment starts.
  EXPECT_THROW(parse({"--paper=banana"}), std::invalid_argument);
}

TEST(Cli, DefaultsWhenAbsent) {
  const auto args = parse({});
  ASSERT_TRUE(args.has_value());
  EXPECT_EQ(args->getUint("nodes", 77), 77u);
  EXPECT_DOUBLE_EQ(args->getDouble("rate", 0.5), 0.5);
  EXPECT_EQ(args->getInt("nodes", -4), -4);
}

TEST(Cli, DoubleParsing) {
  const auto args = parse({"--rate", "0.002"});
  EXPECT_DOUBLE_EQ(args->getDouble("rate", 1.0), 0.002);
}

TEST(Cli, NonNumericValuesRejectedStrictly) {
  // Anything short of a complete number is an error, not a silent
  // truncation: "12abc" must not run a 12-node experiment.
  EXPECT_THROW(parse({"--nodes", "abc"})->getUint("nodes", 0),
               std::invalid_argument);
  EXPECT_THROW(parse({"--nodes", "12abc"})->getUint("nodes", 0),
               std::invalid_argument);
  EXPECT_THROW(parse({"--nodes", "-5"})->getUint("nodes", 0),
               std::invalid_argument);
  EXPECT_THROW(parse({"--nodes", ""})->getUint("nodes", 0),
               std::invalid_argument);
  EXPECT_THROW(parse({"--rate", "0.1x"})->getDouble("rate", 0),
               std::invalid_argument);
}

TEST(Cli, NonNumericErrorNamesTheOption) {
  try {
    parse({"--threads", "two"})->getPositiveUint("threads", 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--threads"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("two"), std::string::npos);
  }
}

TEST(Cli, PositiveUintRejectsZero) {
  // "--threads 0" must not spin up an experiment with no workers.
  EXPECT_THROW(parse({"--threads", "0"})->getPositiveUint("threads", 4),
               std::invalid_argument);
  EXPECT_THROW(parse({"--threads=0"})->getPositiveUint("threads", 4),
               std::invalid_argument);
}

TEST(Cli, PositiveUintAcceptsNormalValues) {
  EXPECT_EQ(parse({"--threads", "8"})->getPositiveUint("threads", 1), 8u);
  // Absent option falls back (the bench default: hardware concurrency).
  EXPECT_EQ(parse({})->getPositiveUint("threads", 6), 6u);
}

TEST(Cli, UnknownOptionThrows) {
  EXPECT_THROW(parse({"--bogus", "1"}), std::invalid_argument);
}

TEST(Cli, UnknownOptionIsReportedByName) {
  // A typo must be named in the error, never silently ignored.
  try {
    parse({"--bogus", "1"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--bogus"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("--help"), std::string::npos);
  }
}

TEST(Cli, UnknownOptionSuggestsClosestRegisteredOption) {
  try {
    parse({"--node", "5"});  // typo of --nodes
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean --nodes?"),
              std::string::npos);
  }
}

TEST(Cli, UnknownOptionFarFromEverythingGetsNoSuggestion) {
  try {
    parse({"--zzzzzzzzz"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).find("did you mean"), std::string::npos);
  }
}

TEST(Cli, UnknownFlagInEqualsFormRejected) {
  EXPECT_THROW(parse({"--bogus=7"}), std::invalid_argument);
}

TEST(Cli, MissingValueThrows) {
  EXPECT_THROW(parse({"--nodes"}), std::invalid_argument);
}

TEST(Cli, PositionalArgumentRejected) {
  EXPECT_THROW(parse({"stray"}), std::invalid_argument);
}

TEST(Cli, HasAndGet) {
  const auto args = parse({"--label", "hello world"});
  EXPECT_TRUE(args->has("label"));
  EXPECT_EQ(args->get("label").value(), "hello world");
  EXPECT_FALSE(args->has("rate"));
  EXPECT_FALSE(args->get("rate").has_value());
}

// -- getChoice: enumerated flags ----------------------------------------

const std::vector<std::string> kTimingChoices = {"cyclesync", "jittered",
                                                 "latency"};

TEST(Cli, GetChoiceMatchesExactValue) {
  CliParser parser("p");
  parser.option("timing", "timing model");
  std::vector<const char*> argv{"prog", "--timing", "jittered"};
  const auto args =
      parser.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(args->getChoice("timing", kTimingChoices, 0), 1u);
}

TEST(Cli, GetChoiceFallsBackWhenAbsent) {
  CliParser parser("p");
  parser.option("timing", "timing model");
  std::vector<const char*> argv{"prog"};
  const auto args =
      parser.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(args->getChoice("timing", kTimingChoices, 2), 2u);
}

TEST(Cli, GetChoiceTypoSuggestsClosestValue) {
  CliParser parser("p");
  parser.option("timing", "timing model");
  std::vector<const char*> argv{"prog", "--timing", "cyclsync"};
  const auto args =
      parser.parse(static_cast<int>(argv.size()), argv.data());
  try {
    args->getChoice("timing", kTimingChoices, 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--timing"), std::string::npos);
    EXPECT_NE(what.find("did you mean 'cyclesync'?"), std::string::npos);
  }
}

TEST(Cli, GetChoiceFarValueListsChoicesWithoutSuggestion) {
  CliParser parser("p");
  parser.option("timing", "timing model");
  std::vector<const char*> argv{"prog", "--timing", "zzzzzzzzzz"};
  const auto args =
      parser.parse(static_cast<int>(argv.size()), argv.data());
  try {
    args->getChoice("timing", kTimingChoices, 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.find("did you mean"), std::string::npos);
    EXPECT_NE(what.find("cyclesync jittered latency"), std::string::npos);
  }
}

// The --search vocabulary of bench/search_workload, exercising the
// did-you-mean rules the timing choices never hit: case folding and
// unique-prefix completion.
const std::vector<std::string> kSearchChoices = {"ttlgossip", "flood",
                                                 "randomwalk"};

std::string searchChoiceFailure(const char* value) {
  CliParser parser("p");
  parser.option("search", "search strategy");
  std::vector<const char*> argv{"prog", "--search", value};
  const auto args = parser.parse(static_cast<int>(argv.size()), argv.data());
  try {
    args->getChoice("search", kSearchChoices, 0);
    ADD_FAILURE() << "expected std::invalid_argument for '" << value << "'";
    return {};
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
}

TEST(Cli, GetChoiceSuggestionIsCaseInsensitive) {
  // Shouting the right value is a near-miss, not an unrecognisable one.
  EXPECT_NE(searchChoiceFailure("FLOOD").find("did you mean 'flood'?"),
            std::string::npos);
  EXPECT_NE(searchChoiceFailure("RandomWalk").find("did you mean "
                                                   "'randomwalk'?"),
            std::string::npos);
}

TEST(Cli, GetChoiceCompletesUniquePrefixes) {
  // "rand" is 6 edits from "randomwalk" — only prefix completion can
  // rescue it. Ambiguous or too-short prefixes must stay suggestion-free.
  EXPECT_NE(searchChoiceFailure("rand").find("did you mean 'randomwalk'?"),
            std::string::npos);
  EXPECT_NE(searchChoiceFailure("ttl").find("did you mean 'ttlgossip'?"),
            std::string::npos);
  EXPECT_EQ(searchChoiceFailure("xyzzyxplugh").find("did you mean"),
            std::string::npos);
}

TEST(Cli, GetChoiceStillRejectsNearMissesLoudly) {
  // The suggestion never silently falls back: the error still names the
  // option and lists the full vocabulary.
  const auto what = searchChoiceFailure("flod");
  EXPECT_NE(what.find("--search"), std::string::npos);
  EXPECT_NE(what.find("did you mean 'flood'?"), std::string::npos);
  EXPECT_NE(what.find("ttlgossip flood randomwalk"), std::string::npos);
}

TEST(Cli, GetChoiceRejectsBadFallback) {
  CliParser parser("p");
  parser.option("timing", "timing model");
  std::vector<const char*> argv{"prog"};
  const auto args =
      parser.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_THROW(args->getChoice("timing", kTimingChoices, 3),
               std::invalid_argument);
  EXPECT_THROW(args->getChoice("timing", {}, 0), std::invalid_argument);
}

// -- getHostPort (the runtime's --listen/--seed-peer grammar) ------------

std::optional<CliArgs> parseListen(const char* value) {
  CliParser parser("p");
  parser.option("listen", "host:port");
  std::vector<const char*> argv{"prog", "--listen", value};
  return parser.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, GetHostPortParsesHostAndPort) {
  const auto args = parseListen("127.0.0.1:9000");
  const HostPort hp = args->getHostPort("listen", {"", 0});
  EXPECT_EQ(hp, (HostPort{"127.0.0.1", 9000}));
}

TEST(Cli, GetHostPortReturnsFallbackWhenAbsent) {
  CliParser parser("p");
  parser.option("listen", "host:port");
  std::vector<const char*> argv{"prog"};
  const auto args =
      parser.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(args->getHostPort("listen", {"0.0.0.0", 0}),
            (HostPort{"0.0.0.0", 0}));
}

TEST(Cli, GetHostPortAcceptsPortZeroAndMax) {
  EXPECT_EQ(parseListen("0.0.0.0:0")->getHostPort("listen", {"", 1}).port, 0);
  EXPECT_EQ(parseListen("h:65535")->getHostPort("listen", {"", 1}).port,
            65535);
}

TEST(Cli, GetHostPortSplitsOnLastColon) {
  // Future-proofing for bracketed IPv6: the port is after the last colon.
  const HostPort hp =
      parseListen("[::1]:8080")->getHostPort("listen", {"", 0});
  EXPECT_EQ(hp.host, "[::1]");
  EXPECT_EQ(hp.port, 8080);
}

std::string hostPortFailure(const char* value) {
  try {
    (void)parseListen(value)->getHostPort("listen", {"", 0});
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  ADD_FAILURE() << "expected std::invalid_argument for " << value;
  return "";
}

TEST(Cli, GetHostPortDiagnosesLonePort) {
  EXPECT_NE(hostPortFailure("9000").find("did you mean '127.0.0.1:9000'"),
            std::string::npos);
}

TEST(Cli, GetHostPortDiagnosesMissingPort) {
  EXPECT_NE(hostPortFailure("myhost").find("did you mean 'myhost:9000'"),
            std::string::npos);
  EXPECT_NE(hostPortFailure("myhost:").find("empty port"),
            std::string::npos);
}

TEST(Cli, GetHostPortRejectsBadPorts) {
  EXPECT_NE(hostPortFailure("h:abc").find("not a number"),
            std::string::npos);
  EXPECT_NE(hostPortFailure("h:99999").find("above 65535"),
            std::string::npos);
  EXPECT_NE(hostPortFailure(":9000").find("empty host"), std::string::npos);
}

TEST(Cli, PositiveUint32RejectsZeroJunkAndValuesPast32Bits) {
  EXPECT_EQ(parse({"--nodes", "4294967295"})->getPositiveUint32("nodes", 1),
            4294967295u);
  EXPECT_EQ(parse({})->getPositiveUint32("nodes", 7), 7u);
  EXPECT_THROW(parse({"--nodes", "0"})->getPositiveUint32("nodes", 1),
               std::invalid_argument);
  EXPECT_THROW(parse({"--nodes", "x"})->getPositiveUint32("nodes", 1),
               std::invalid_argument);
  // 2^32 would truncate to 0 if it were narrowed unchecked.
  EXPECT_THROW(parse({"--nodes", "4294967296"})->getPositiveUint32("nodes", 1),
               std::invalid_argument);
}

TEST(Cli, RateMustLieStrictlyInsideTheUnitInterval) {
  EXPECT_DOUBLE_EQ(parse({"--rate", "0.25"})->getRate("rate", 0.5), 0.25);
  EXPECT_DOUBLE_EQ(parse({})->getRate("rate", 0.5), 0.5);
  for (const char* bad : {"0", "1", "-0.1", "1.5", "nan", "abc"})
    EXPECT_THROW(parse({"--rate", bad})->getRate("rate", 0.5),
                 std::invalid_argument)
        << bad;
  try {
    parse({"--rate", "0"})->getRate("rate", 0.5);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--rate must be a rate in (0, 1)"),
              std::string::npos);
  }
}

/// The numeric flags the examples read, as their mains read them.
CliArgs exampleArgs(std::initializer_list<const char*> argv) {
  CliParser parser("example");
  parser.option("nodes", "population size")
      .option("churn", "churn rate per cycle")
      .option("pushes", "number of pushes")
      .option("fanout", "fanout");
  std::vector<const char*> args{"example"};
  args.insert(args.end(), argv.begin(), argv.end());
  return *parser.parse(static_cast<int>(args.size()), args.data());
}

TEST(CliDeathTest, ArgOrExitTurnsBadExampleFlagsIntoExitStatusTwo) {
  const auto exits = [](std::initializer_list<const char*> argv,
                        const char* flag, bool rate) {
    const CliArgs args = exampleArgs(argv);
    EXPECT_EXIT(
        {
          if (rate)
            argOrExit([&] { return args.getRate(flag, 0.005); });
          else
            argOrExit([&] { return args.getPositiveUint32(flag, 1); });
          std::exit(0);
        },
        ::testing::ExitedWithCode(2), flag);
  };
  exits({"--nodes", "0"}, "nodes", false);
  exits({"--nodes", "x"}, "nodes", false);
  exits({"--pushes", "0"}, "pushes", false);
  exits({"--fanout", "0"}, "fanout", false);
  exits({"--churn", "abc"}, "churn", true);
  exits({"--churn", "0"}, "churn", true);
}

TEST(Cli, ArgOrExitPassesGoodValuesThrough) {
  const CliArgs args = exampleArgs({"--nodes", "300", "--churn", "0.01"});
  EXPECT_EQ(argOrExit([&] { return args.getPositiveUint32("nodes", 1); }),
            300u);
  EXPECT_DOUBLE_EQ(argOrExit([&] { return args.getRate("churn", 0.5); }),
                   0.01);
}

TEST(Cli, UsageListsOptions) {
  const auto usage = makeParser().usage("prog");
  EXPECT_NE(usage.find("--nodes"), std::string::npos);
  EXPECT_NE(usage.find("--paper"), std::string::npos);
  EXPECT_NE(usage.find("--help"), std::string::npos);
}

}  // namespace
}  // namespace vs07
