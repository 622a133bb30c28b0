//===- bench/BenchUtil.h - Shared bench helpers -----------------*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the figure/table reproduction benches: a one-call
/// Session factory, banner printing, series downsampling, and the record
/// granularity the benches trade wall-clock time against (simulated
/// costs are unaffected; see
/// sim::DeviceTraceConfig::RecordGranularityBytes).
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_BENCH_BENCHUTIL_H
#define PASTA_BENCH_BENCHUTIL_H

#include "pasta/Session.h"
#include "support/Env.h"
#include "support/Format.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

namespace pasta {
namespace bench {

/// Wall-clock knob: one sampled record per this many access bytes.
/// PASTA_BENCH_GRANULARITY overrides (larger = faster, identical
/// simulated results).
inline std::uint64_t recordGranularity() {
  return static_cast<std::uint64_t>(
      getEnvInt("PASTA_BENCH_GRANULARITY", 65536));
}

/// Finalizes a bench session from \p Builder after applying the bench
/// record granularity. Benches are not user-facing, so a configuration
/// error dies with the builder diagnostic instead of returning it.
inline std::unique_ptr<Session> buildSession(SessionBuilder &Builder) {
  SessionError Err;
  std::unique_ptr<Session> S =
      Builder.recordGranularity(recordGranularity()).build(Err);
  if (!S) {
    std::fprintf(stderr, "bench: %s\n", Err.message().c_str());
    std::exit(1);
  }
  return S;
}

inline void banner(const char *Title, const char *PaperRef) {
  std::printf("==========================================================="
              "=====================\n");
  std::printf("%s\n  (reproduces %s)\n", Title, PaperRef);
  std::printf("==========================================================="
              "=====================\n");
}

/// Downsamples \p Series to at most \p Points entries (min/max preserved
/// per bucket would hide ramps; plain stride keeps the shape).
inline std::vector<std::uint64_t>
downsample(const std::vector<std::uint64_t> &Series, std::size_t Points) {
  if (Series.size() <= Points)
    return Series;
  std::vector<std::uint64_t> Out;
  Out.reserve(Points);
  for (std::size_t I = 0; I < Points; ++I)
    Out.push_back(Series[I * Series.size() / Points]);
  Out.push_back(Series.back());
  return Out;
}

/// The \p Q quantile of \p Values, interpolating linearly between
/// order statistics.
inline double quantile(std::vector<double> Values, double Q) {
  std::sort(Values.begin(), Values.end());
  double Pos = Q * static_cast<double>(Values.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Pos);
  std::size_t Hi = std::min(Lo + 1, Values.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * Frac;
}

/// Interquartile range of \p Values.
inline double iqr(const std::vector<double> &Values) {
  return quantile(Values, 0.75) - quantile(Values, 0.25);
}

/// Renders a series as a compact ASCII sparkline row (8 height levels).
inline std::string sparkline(const std::vector<std::uint64_t> &Series) {
  static const char Levels[] = " .:-=+*#";
  std::uint64_t Max = 0;
  for (std::uint64_t Value : Series)
    Max = std::max(Max, Value);
  std::string Out;
  for (std::uint64_t Value : Series) {
    std::size_t Level =
        Max == 0 ? 0 : static_cast<std::size_t>(Value * 7 / Max);
    Out += Levels[Level];
  }
  return Out;
}

} // namespace bench
} // namespace pasta

#endif // PASTA_BENCH_BENCHUTIL_H
