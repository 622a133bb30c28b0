//===- pastabench/src/Stats.cpp -------------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include "support/ReportSink.h"
#include "support/Statistics.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <limits>

namespace pastabench {

namespace {
std::string quoted(const std::string &Raw) {
  return "\"" + pasta::jsonEscape(Raw) + "\"";
}
} // namespace

double quantile(const std::vector<double> &Values, double Q) {
  if (Values.empty())
    return std::numeric_limits<double>::quiet_NaN();
  pasta::SampleStats Stats;
  for (double V : Values)
    Stats.add(V);
  return Stats.percentile(Q * 100.0);
}

double peakRssMb() {
  // VmHWM is this address space's own high-water mark. getrusage's
  // ru_maxrss is not: across fork+exec it keeps the parent's peak, so a
  // runner started from a large process would report that process.
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB
  struct rusage Usage {};
  if (getrusage(RUSAGE_SELF, &Usage) != 0)
    return 0.0;
  return static_cast<double>(Usage.ru_maxrss) / 1024.0;
}

double processCpuSeconds() {
  timespec Now{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Now) != 0)
    return 0.0;
  return static_cast<double>(Now.tv_sec) +
         static_cast<double>(Now.tv_nsec) * 1e-9;
}

CpuTimes cpuTimes() {
  CpuTimes Times;
  std::ifstream Stat("/proc/stat");
  std::string Label;
  if (!(Stat >> Label) || Label != "cpu")
    return Times;
  // user nice system idle iowait irq softirq steal
  for (int Field = 0; Field < 8; ++Field) {
    std::uint64_t Ticks = 0;
    if (!(Stat >> Ticks))
      break;
    Times.Total += Ticks;
    if (Field == 7)
      Times.Steal = Ticks;
  }
  return Times;
}

double stealPct(const CpuTimes &Begin, const CpuTimes &End) {
  if (End.Total <= Begin.Total || End.Steal < Begin.Steal)
    return 0.0;
  return 100.0 * static_cast<double>(End.Steal - Begin.Steal) /
         static_cast<double>(End.Total - Begin.Total);
}

std::string jsonNumber(double Value) {
  if (!std::isfinite(Value))
    return "null";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
  return Buf;
}

void JsonObject::key(const std::string &Key) {
  if (!Body.empty())
    Body += ", ";
  Body += quoted(Key) + ": ";
}

JsonObject &JsonObject::add(const std::string &Key, double Value) {
  return addRaw(Key, jsonNumber(Value));
}

JsonObject &JsonObject::add(const std::string &Key, std::uint64_t Value) {
  return addRaw(Key, std::to_string(Value));
}

JsonObject &JsonObject::add(const std::string &Key, bool Value) {
  return addRaw(Key, Value ? "true" : "false");
}

JsonObject &JsonObject::add(const std::string &Key, const std::string &Value) {
  return addRaw(Key, quoted(Value));
}

JsonObject &JsonObject::add(const std::string &Key, const JsonObject &Value) {
  return addRaw(Key, Value.str());
}

JsonObject &JsonObject::add(const std::string &Key,
                            const std::vector<std::string> &Values) {
  std::string Json = "[";
  for (std::size_t I = 0; I < Values.size(); ++I)
    Json += (I ? ", " : "") + quoted(Values[I]);
  return addRaw(Key, Json + "]");
}

JsonObject &JsonObject::addRaw(const std::string &Key,
                               const std::string &Json) {
  key(Key);
  Body += Json;
  return *this;
}

} // namespace pastabench
