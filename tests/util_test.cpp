#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "util/cli.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace compsyn {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowStaysInBounds) {
  Rng r(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, (1ull << 40)}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.below(bound), bound);
  }
}

TEST(Rng, RangeInclusive) {
  Rng r(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = r.range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    saw_lo |= v == 5;
    saw_hi |= v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, PermutationIsBijection) {
  Rng r(3);
  auto p = r.permutation(50);
  std::set<std::uint32_t> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 49u);
}

TEST(Rng, UnitInHalfOpenInterval) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("  \t\n "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, Split) {
  auto v = split("a, b ,c", ',');
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], "a");
  EXPECT_EQ(v[1], "b");
  EXPECT_EQ(v[2], "c");
  EXPECT_EQ(split("", ',').size(), 1u);
  EXPECT_EQ(split("a,,b", ',')[1], "");
}

TEST(Strings, IEquals) {
  EXPECT_TRUE(iequals("NaNd", "nand"));
  EXPECT_FALSE(iequals("nand", "nor"));
  EXPECT_FALSE(iequals("nand", "nand2"));
}

TEST(Strings, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(23003369), "23,003,369");
  EXPECT_EQ(with_commas(1234567890123ull), "1,234,567,890,123");
}

TEST(Table, AlignsAndPrints) {
  Table t({"circuit", "gates", "paths"});
  t.row().add("irs1423").add(std::uint64_t{491}).add_commas(42089);
  t.row().add("x").add(std::uint64_t{9}).add_commas(7);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("irs1423"), std::string::npos);
  EXPECT_NE(s.find("42,089"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(Cli, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog", "--k=6", "--seed=42", "--verbose", "circuit.bench"};
  Cli cli(5, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("k", 0), 6);
  EXPECT_EQ(cli.get_u64("seed", 0), 42u);
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_FALSE(cli.has("missing"));
  EXPECT_EQ(cli.get_u64("missing", 17), 17u);
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "circuit.bench");
}

TEST(Cli, GetDouble) {
  const char* argv[] = {"prog", "--weight-gates=1.5", "--weight-paths=0.25",
                        "--bad=abc"};
  Cli cli(4, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(cli.get_double("weight-gates", 0.0), 1.5);
  EXPECT_DOUBLE_EQ(cli.get_double("weight-paths", 0.0), 0.25);
  EXPECT_DOUBLE_EQ(cli.get_double("missing", 2.75), 2.75);
  // A value that is not a number is a usage error, not the default.
  EXPECT_THROW(cli.get_double("bad", 9.0), UsageError);
}

TEST(Cli, NumericFlagsRejectMalformedValues) {
  const char* argv[] = {"prog",      "--budget=abc", "--neg=-1",  "--plus=+3",
                        "--k=5x",    "--empty=",     "--big=99999999999999999999",
                        "--int=-7",  "--wide=4294967296", "--d=1.5e",
                        "--inf=inf", "--hex=0x10",   "--sp=4 "};
  Cli cli(13, const_cast<char**>(argv));
  for (const char* flag : {"budget", "neg", "plus", "k", "empty", "big", "sp"}) {
    EXPECT_THROW(cli.get_u64(flag, 0), UsageError) << flag;
  }
  EXPECT_EQ(cli.get_u64("hex", 0), 16u);
  EXPECT_EQ(cli.get_int("int", 0), -7);
  EXPECT_THROW(cli.get_int("wide", 0), UsageError);
  EXPECT_THROW(cli.get_int("k", 0), UsageError);
  EXPECT_THROW(cli.get_double("d", 0.0), UsageError);
  EXPECT_THROW(cli.get_double("inf", 0.0), UsageError);
  EXPECT_THROW(cli.get_double("empty", 0.0), UsageError);
}

TEST(Cli, WarnsOnUnrecognizedFlags) {
  const char* argv[] = {"prog", "--k=6", "--bogus=1", "--typo"};
  Cli cli(4, const_cast<char**>(argv));
  // Only flags the program actually queried count as recognized.
  EXPECT_EQ(cli.get_int("k", 0), 6);
  EXPECT_FALSE(cli.has("full"));  // querying an absent flag registers it too
  const auto unknown = cli.unrecognized();
  ASSERT_EQ(unknown.size(), 2u);
  EXPECT_EQ(unknown[0], "bogus");
  EXPECT_EQ(unknown[1], "typo");
  std::ostringstream os;
  EXPECT_EQ(cli.warn_unrecognized(os), 2u);
  EXPECT_NE(os.str().find("unrecognized flag --bogus"), std::string::npos);
  EXPECT_NE(os.str().find("unrecognized flag --typo"), std::string::npos);
}

TEST(Cli, NoWarningWhenAllFlagsQueried) {
  const char* argv[] = {"prog", "--k=6"};
  Cli cli(2, const_cast<char**>(argv));
  EXPECT_EQ(cli.get_int("k", 0), 6);
  EXPECT_TRUE(cli.unrecognized().empty());
  std::ostringstream os;
  EXPECT_EQ(cli.warn_unrecognized(os), 0u);
  EXPECT_TRUE(os.str().empty());
}

}  // namespace
}  // namespace compsyn
