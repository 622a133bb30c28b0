//===- tests/support_test.cpp - support library unit tests ----------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Env.h"
#include "support/Format.h"
#include "support/Rng.h"
#include "support/Statistics.h"
#include "support/TablePrinter.h"
#include "support/Units.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

using namespace pasta;

//===----------------------------------------------------------------------===//
// Env
//===----------------------------------------------------------------------===//

class EnvTest : public ::testing::Test {
protected:
  void TearDown() override { clearAllEnvOverrides(); }
};

TEST_F(EnvTest, OverrideShadowsEnvironment) {
  setEnvOverride("PASTA_TEST_VAR", "42");
  EXPECT_EQ(getEnvInt("PASTA_TEST_VAR", 0), 42);
  clearEnvOverride("PASTA_TEST_VAR");
  EXPECT_EQ(getEnvInt("PASTA_TEST_VAR", 7), 7);
}

TEST_F(EnvTest, MissingVariableYieldsDefault) {
  EXPECT_EQ(getEnvString("PASTA_SURELY_UNSET_XYZ", "fallback"), "fallback");
  EXPECT_EQ(getEnvInt("PASTA_SURELY_UNSET_XYZ", -3), -3);
  EXPECT_DOUBLE_EQ(getEnvDouble("PASTA_SURELY_UNSET_XYZ", 0.5), 0.5);
}

TEST_F(EnvTest, MalformedIntFallsBack) {
  setEnvOverride("PASTA_TEST_VAR", "notanumber");
  EXPECT_EQ(getEnvInt("PASTA_TEST_VAR", 11), 11);
}

TEST_F(EnvTest, BoolParsesCommonSpellings) {
  for (const char *True : {"1", "true", "on", "yes"}) {
    setEnvOverride("PASTA_TEST_BOOL", True);
    EXPECT_TRUE(getEnvBool("PASTA_TEST_BOOL", false)) << True;
  }
  for (const char *False : {"0", "false", "off", "no"}) {
    setEnvOverride("PASTA_TEST_BOOL", False);
    EXPECT_FALSE(getEnvBool("PASTA_TEST_BOOL", true)) << False;
  }
  setEnvOverride("PASTA_TEST_BOOL", "maybe");
  EXPECT_TRUE(getEnvBool("PASTA_TEST_BOOL", true));
}

TEST_F(EnvTest, DoubleParses) {
  setEnvOverride("PASTA_TEST_VAR", "0.25");
  EXPECT_DOUBLE_EQ(getEnvDouble("PASTA_TEST_VAR", 1.0), 0.25);
}

//===----------------------------------------------------------------------===//
// Units
//===----------------------------------------------------------------------===//

TEST(UnitsTest, FormatBytesPicksUnit) {
  EXPECT_EQ(formatBytes(512), "512.00 B");
  EXPECT_EQ(formatBytes(KiB), "1.00 KB");
  EXPECT_EQ(formatBytes(3 * MiB / 2), "1.50 MB");
  EXPECT_EQ(formatBytes(2 * GiB), "2048.00 MB");
}

TEST(UnitsTest, FormatSimTimePicksUnit) {
  EXPECT_EQ(formatSimTime(500), "500.00 ns");
  EXPECT_EQ(formatSimTime(2 * Microsecond), "2.00 us");
  EXPECT_EQ(formatSimTime(3 * Millisecond), "3.00 ms");
  EXPECT_EQ(formatSimTime(Second), "1.00 s");
}

TEST(UnitsTest, FormatMiBIsUnitless) { EXPECT_EQ(formatMiB(MiB), "1.00"); }

//===----------------------------------------------------------------------===//
// Format
//===----------------------------------------------------------------------===//

TEST(FormatTest, BasicFormatting) {
  EXPECT_EQ(format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(format("%5.2f", 3.14159), " 3.14");
}

TEST(FormatTest, LongStringsAllocate) {
  std::string Long(500, 'a');
  EXPECT_EQ(format("%s", Long.c_str()).size(), 500u);
}

TEST(FormatTest, JoinWithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(RngTest, DeterministicForSeed) {
  SplitMix64 A(123), B(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  SplitMix64 A(1), B(2);
  EXPECT_NE(A.next(), B.next());
}

TEST(RngTest, NextBelowInRange) {
  SplitMix64 Rng(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(Rng.nextBelow(17), 17u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  SplitMix64 Rng(9);
  for (int I = 0; I < 1000; ++I) {
    double Value = Rng.nextDouble();
    EXPECT_GE(Value, 0.0);
    EXPECT_LT(Value, 1.0);
  }
}

TEST(RngTest, NextBoolExtremes) {
  SplitMix64 Rng(11);
  EXPECT_FALSE(Rng.nextBool(0.0));
  EXPECT_TRUE(Rng.nextBool(1.0));
}

TEST(RngTest, NextBoolRoughlyCalibrated) {
  SplitMix64 Rng(13);
  int Hits = 0;
  for (int I = 0; I < 10000; ++I)
    Hits += Rng.nextBool(0.3);
  EXPECT_NEAR(Hits / 10000.0, 0.3, 0.03);
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

TEST(StatsTest, BasicSummaries) {
  SampleStats Stats;
  for (double Value : {4.0, 1.0, 3.0, 2.0})
    Stats.add(Value);
  EXPECT_EQ(Stats.count(), 4u);
  EXPECT_DOUBLE_EQ(Stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(Stats.max(), 4.0);
  EXPECT_DOUBLE_EQ(Stats.mean(), 2.5);
  EXPECT_DOUBLE_EQ(Stats.median(), 2.5);
  EXPECT_DOUBLE_EQ(Stats.sum(), 10.0);
}

TEST(StatsTest, SingleElement) {
  SampleStats Stats;
  Stats.add(5.0);
  EXPECT_DOUBLE_EQ(Stats.min(), 5.0);
  EXPECT_DOUBLE_EQ(Stats.median(), 5.0);
  EXPECT_DOUBLE_EQ(Stats.percentile(90), 5.0);
}

TEST(StatsTest, MutationAfterQueryResorts) {
  SampleStats Stats;
  Stats.add(10.0);
  EXPECT_DOUBLE_EQ(Stats.max(), 10.0);
  Stats.add(20.0);
  EXPECT_DOUBLE_EQ(Stats.max(), 20.0);
}

/// Property sweep: percentiles of 1..N are exact under interpolation.
class PercentileSweep : public ::testing::TestWithParam<int> {};

TEST_P(PercentileSweep, LinearSequencePercentiles) {
  int N = GetParam();
  SampleStats Stats;
  for (int I = 1; I <= N; ++I)
    Stats.add(static_cast<double>(I));
  // percentile(p) of 1..N with linear interpolation is 1 + p/100*(N-1).
  for (double Pct : {0.0, 25.0, 50.0, 90.0, 100.0}) {
    double Expected = 1.0 + Pct / 100.0 * (N - 1);
    EXPECT_NEAR(Stats.percentile(Pct), Expected, 1e-9) << "p" << Pct;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PercentileSweep,
                         ::testing::Values(2, 3, 5, 10, 101, 1000));

//===----------------------------------------------------------------------===//
// TablePrinter
//===----------------------------------------------------------------------===//

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter Table({"A", "LongHeader"});
  Table.addRow({"xxxx", "1"});
  std::string Out = Table.toString();
  // Header line, rule line, one row.
  EXPECT_NE(Out.find("A     LongHeader"), std::string::npos);
  EXPECT_NE(Out.find("xxxx  1"), std::string::npos);
}

TEST(TablePrinterTest, ShortRowsPadded) {
  TablePrinter Table({"A", "B", "C"});
  Table.addRow({"1"});
  EXPECT_EQ(Table.numRows(), 1u);
  EXPECT_NE(Table.toString().find("1"), std::string::npos);
}

TEST(TablePrinterTest, EmptyTableStillRendersHeader) {
  TablePrinter Table({"OnlyHeader"});
  EXPECT_NE(Table.toString().find("OnlyHeader"), std::string::npos);
}
