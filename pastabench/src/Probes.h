//===- pastabench/src/Probes.h - Bench-local tools and spans ----*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything the benchmark measures PASTA with lives outside src/ and
/// talks to it only through the public Tool interface:
///
///  * TimedTool decorates a real tool: it forwards the name,
///    subscription, requirements, deviceAnalysis and report, and adds up
///    the wall time spent in every hook, in onFinish and in report().
///    Reports are the inner tool's, byte for byte.
///  * NullTool has a real tool's subscription and contract (and a no-op
///    device analysis when the real one has one) but does nothing: the
///    pipeline's own cost for that routing.
///  * makeNullRecordsTool() makes a tool that subscribes to access
///    records only and drops them: the backend's record-generation cost.
///  * CountingTool counts the events an application emits.
///  * SpanLog keeps the traced run's spans in memory until it ends.
///
//===----------------------------------------------------------------------===//

#ifndef PASTABENCH_PROBES_H
#define PASTABENCH_PROBES_H

#include "pasta/Tool.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace pastabench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point Begin, Clock::time_point End) {
  return std::chrono::duration<double>(End - Begin).count();
}

/// Wall-time aggregates of one decorated tool, shared by every thread
/// that invokes it (lanes, producers, device-analysis workers).
struct HookStats {
  std::atomic<std::uint64_t> HookNs{0};
  std::atomic<std::uint64_t> Calls{0};
  std::atomic<std::uint64_t> FinishNs{0};
  std::atomic<std::uint64_t> ReportNs{0};
  std::atomic<std::uint64_t> DeviceNs{0};
};

/// Plain snapshot of HookStats, in seconds.
struct HookTotals {
  double HookS = 0.0;
  double FinishS = 0.0;
  double ReportS = 0.0;
  double DeviceS = 0.0;
  std::uint64_t Calls = 0;

  static HookTotals of(const HookStats &Stats);
  HookTotals &operator+=(const HookTotals &Other);
};

/// Per-tool-name HookStats for one sample. Thread-safe: tenant sessions
/// in the fleet daemon create decorated tools on connection threads.
class ToolTimers {
public:
  std::shared_ptr<HookStats> statsFor(const std::string &ToolName);
  std::map<std::string, HookTotals> totals() const;

private:
  mutable std::mutex Mu;
  std::map<std::string, std::shared_ptr<HookStats>> Stats;
};

/// The timing decorator.
class TimedTool final : public pasta::Tool {
public:
  TimedTool(std::unique_ptr<pasta::Tool> Inner,
            std::shared_ptr<HookStats> Stats);
  ~TimedTool() override;

  pasta::Tool &inner() { return *Inner; }

  std::string name() const override { return Inner->name(); }
  pasta::Subscription subscription() override {
    return Inner->subscription();
  }
  pasta::CapabilitySet requirements() override {
    return Inner->requirements();
  }
  void onStart() override { Inner->onStart(); }
  void onFinish() override;
  void onAttach(pasta::EventProcessor &Processor) override {
    Inner->onAttach(Processor);
  }

  void onEvent(const pasta::Event &E) override;
  void onKernelLaunch(const pasta::Event &E) override;
  void onKernelComplete(const pasta::Event &E) override;
  void onMemoryAlloc(const pasta::Event &E) override;
  void onMemoryFree(const pasta::Event &E) override;
  void onMemoryCopy(const pasta::Event &E) override;
  void onMemorySet(const pasta::Event &E) override;
  void onSynchronization(const pasta::Event &E) override;
  void onBatchMemoryOp(const pasta::Event &E) override;
  void onOperatorStart(const pasta::Event &E) override;
  void onOperatorEnd(const pasta::Event &E) override;
  void onTensorAlloc(const pasta::Event &E) override;
  void onTensorReclaim(const pasta::Event &E) override;

  void onAccessBatch(const pasta::sim::LaunchInfo &Info,
                     const pasta::sim::MemAccessRecord *Records,
                     std::size_t Count) override;
  pasta::DeviceAnalysis *deviceAnalysis() override;
  void onInstrMix(const pasta::sim::LaunchInfo &Info,
                  const pasta::sim::InstrMix &Mix) override;
  void onKernelTraceEnd(const pasta::sim::LaunchInfo &Info,
                        const pasta::sim::TraceTimeBreakdown &Breakdown)
      override;

  void writeReport(std::FILE *Out) override { Inner->writeReport(Out); }
  void report(pasta::ReportSink &Sink) override;

private:
  /// Times the inner DeviceAnalysis's processRecords on the pool threads.
  class TimedAnalysis final : public pasta::DeviceAnalysis {
  public:
    explicit TimedAnalysis(HookStats &Stats) : Stats(Stats) {}
    void processRecords(const pasta::sim::LaunchInfo &Info,
                        const pasta::sim::MemAccessRecord *Records,
                        std::size_t Count) override;
    std::atomic<pasta::DeviceAnalysis *> Inner{nullptr};

  private:
    HookStats &Stats;
  };

  std::unique_ptr<pasta::Tool> Inner;
  std::shared_ptr<HookStats> Stats;
  TimedAnalysis Analysis;
};

/// A tool with \p Real's subscription, requirements and contract that
/// does nothing. Named "null.<real name>".
std::unique_ptr<pasta::Tool> makeNullClone(pasta::Tool &Real);

/// Subscribes to host-side access records only, and drops them.
std::unique_ptr<pasta::Tool> makeNullRecordsTool();

/// Counts every coarse event the application emits.
class CountingTool final : public pasta::Tool {
public:
  std::string name() const override { return "event_count"; }
  pasta::Subscription subscription() override;
  void onEvent(const pasta::Event &E) override;

  std::uint64_t Events = 0;
};

/// One traced interval; Parent 0 means a root span (one per sample).
struct Span {
  std::uint64_t Id = 0;
  std::uint64_t Parent = 0;
  std::string Name;
  std::uint64_t StartNs = 0;
  std::uint64_t EndNs = 0;
};

/// In-memory span store of the traced run, written out when it ends.
class SpanLog {
public:
  SpanLog();
  std::uint64_t begin(const std::string &Name, std::uint64_t Parent);
  void end(std::uint64_t Id);
  /// JSON array of every span, times relative to the log's creation.
  std::string json() const;

private:
  std::uint64_t nowNs() const;
  Clock::time_point Origin;
  mutable std::mutex Mu;
  std::vector<Span> Spans;
};

/// RAII span; a null log makes it free.
class ScopedSpan {
public:
  ScopedSpan(SpanLog *Log, const std::string &Name, std::uint64_t Parent = 0)
      : Log(Log), Id(Log ? Log->begin(Name, Parent) : 0) {}
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;
  void close() {
    if (Log && Id)
      Log->end(Id);
    Log = nullptr;
  }
  std::uint64_t id() const { return Id; }

private:
  SpanLog *Log;
  std::uint64_t Id;
};

} // namespace pastabench

#endif // PASTABENCH_PROBES_H
