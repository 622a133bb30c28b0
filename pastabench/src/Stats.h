//===- pastabench/src/Stats.h - Quantiles, RSS and JSON output --*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small helpers the benchmark runner shares: sample quantiles, the
/// process's peak resident set, and a minimal ordered JSON writer (the
/// runner's output is read by run.py, which prints the tables).
///
//===----------------------------------------------------------------------===//

#ifndef PASTABENCH_STATS_H
#define PASTABENCH_STATS_H

#include <cstdint>
#include <string>
#include <vector>

namespace pastabench {

/// Quantile \p Q in [0, 1] (pasta::SampleStats::percentile), NaN for an
/// empty sample.
double quantile(const std::vector<double> &Values, double Q);
inline double median(const std::vector<double> &Values) {
  return quantile(Values, 0.5);
}

/// Peak resident set of this process so far, in MiB.
double peakRssMb();

/// CPU time every thread of this process, live or ended, has used so
/// far, in seconds.
double processCpuSeconds();

/// Machine-wide CPU time counters (/proc/stat, in clock ticks).
struct CpuTimes {
  std::uint64_t Steal = 0;
  std::uint64_t Total = 0;
};
CpuTimes cpuTimes();

/// Percent of all CPU time between \p Begin and \p End that the
/// hypervisor gave to other guests (0 when not measurable).
double stealPct(const CpuTimes &Begin, const CpuTimes &End);

/// Ordered JSON object builder. Values are rendered on add, so the
/// object is a flat string by the time it is nested or printed.
class JsonObject {
public:
  JsonObject &add(const std::string &Key, double Value);
  JsonObject &add(const std::string &Key, std::uint64_t Value);
  JsonObject &add(const std::string &Key, bool Value);
  JsonObject &add(const std::string &Key, const std::string &Value);
  JsonObject &add(const std::string &Key, const char *Value) {
    return add(Key, std::string(Value));
  }
  JsonObject &add(const std::string &Key, const JsonObject &Value);
  JsonObject &add(const std::string &Key,
                  const std::vector<std::string> &Values);
  /// Adds an already-rendered JSON value.
  JsonObject &addRaw(const std::string &Key, const std::string &Json);
  bool empty() const { return Body.empty(); }
  std::string str() const { return "{" + Body + "}"; }

private:
  void key(const std::string &Key);
  std::string Body;
};

/// Full-precision JSON number; null for NaN/inf.
std::string jsonNumber(double Value);

} // namespace pastabench

#endif // PASTABENCH_STATS_H
