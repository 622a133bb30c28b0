//===- pastabench/src/Probes.cpp ------------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "Probes.h"

#include "Stats.h"

using namespace pasta;

namespace pastabench {

namespace {

std::uint64_t elapsedNs(Clock::time_point Begin) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           Begin)
          .count());
}

/// Adds the hook's wall time and one call to the tool's aggregates.
class HookTimer {
public:
  explicit HookTimer(HookStats &Stats) : Stats(Stats), Begin(Clock::now()) {}
  ~HookTimer() {
    Stats.HookNs.fetch_add(elapsedNs(Begin), std::memory_order_relaxed);
    Stats.Calls.fetch_add(1, std::memory_order_relaxed);
  }
  HookTimer(const HookTimer &) = delete;
  HookTimer &operator=(const HookTimer &) = delete;

private:
  HookStats &Stats;
  Clock::time_point Begin;
};

class NoopAnalysis final : public DeviceAnalysis {
public:
  void processRecords(const sim::LaunchInfo &, const sim::MemAccessRecord *,
                      std::size_t) override {}
};

class NullTool final : public Tool {
public:
  NullTool(std::string Name, Subscription Sub, CapabilitySet Required,
           bool WithAnalysis)
      : ToolName(std::move(Name)), Sub(Sub), Required(Required),
        WithAnalysis(WithAnalysis) {}

  std::string name() const override { return ToolName; }
  Subscription subscription() override { return Sub; }
  CapabilitySet requirements() override { return Required; }
  void onAccessBatch(const sim::LaunchInfo &, const sim::MemAccessRecord *,
                     std::size_t) override {}
  DeviceAnalysis *deviceAnalysis() override {
    return WithAnalysis ? &Analysis : nullptr;
  }

private:
  std::string ToolName;
  Subscription Sub;
  CapabilitySet Required;
  bool WithAnalysis;
  NoopAnalysis Analysis;
};

} // namespace

HookTotals HookTotals::of(const HookStats &Stats) {
  HookTotals T;
  T.HookS = static_cast<double>(Stats.HookNs.load()) * 1e-9;
  T.FinishS = static_cast<double>(Stats.FinishNs.load()) * 1e-9;
  T.ReportS = static_cast<double>(Stats.ReportNs.load()) * 1e-9;
  T.DeviceS = static_cast<double>(Stats.DeviceNs.load()) * 1e-9;
  T.Calls = Stats.Calls.load();
  return T;
}

HookTotals &HookTotals::operator+=(const HookTotals &Other) {
  HookS += Other.HookS;
  FinishS += Other.FinishS;
  ReportS += Other.ReportS;
  DeviceS += Other.DeviceS;
  Calls += Other.Calls;
  return *this;
}

std::shared_ptr<HookStats> ToolTimers::statsFor(const std::string &ToolName) {
  std::lock_guard<std::mutex> Lock(Mu);
  std::shared_ptr<HookStats> &Slot = Stats[ToolName];
  if (!Slot)
    Slot = std::make_shared<HookStats>();
  return Slot;
}

std::map<std::string, HookTotals> ToolTimers::totals() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::map<std::string, HookTotals> Out;
  for (const auto &[Name, Stats] : Stats)
    Out[Name] = HookTotals::of(*Stats);
  return Out;
}

//===----------------------------------------------------------------------===//
// TimedTool
//===----------------------------------------------------------------------===//

TimedTool::TimedTool(std::unique_ptr<Tool> Inner,
                     std::shared_ptr<HookStats> Stats)
    : Inner(std::move(Inner)), Stats(std::move(Stats)), Analysis(*this->Stats) {}

TimedTool::~TimedTool() = default;

void TimedTool::onFinish() {
  Clock::time_point Begin = Clock::now();
  Inner->onFinish();
  Stats->FinishNs.fetch_add(elapsedNs(Begin), std::memory_order_relaxed);
}

#define PASTABENCH_TIMED_HOOK(Hook)                                           \
  void TimedTool::Hook(const Event &E) {                                      \
    HookTimer Timer(*Stats);                                                  \
    Inner->Hook(E);                                                           \
  }
PASTABENCH_TIMED_HOOK(onEvent)
PASTABENCH_TIMED_HOOK(onKernelLaunch)
PASTABENCH_TIMED_HOOK(onKernelComplete)
PASTABENCH_TIMED_HOOK(onMemoryAlloc)
PASTABENCH_TIMED_HOOK(onMemoryFree)
PASTABENCH_TIMED_HOOK(onMemoryCopy)
PASTABENCH_TIMED_HOOK(onMemorySet)
PASTABENCH_TIMED_HOOK(onSynchronization)
PASTABENCH_TIMED_HOOK(onBatchMemoryOp)
PASTABENCH_TIMED_HOOK(onOperatorStart)
PASTABENCH_TIMED_HOOK(onOperatorEnd)
PASTABENCH_TIMED_HOOK(onTensorAlloc)
PASTABENCH_TIMED_HOOK(onTensorReclaim)
#undef PASTABENCH_TIMED_HOOK

void TimedTool::onAccessBatch(const sim::LaunchInfo &Info,
                              const sim::MemAccessRecord *Records,
                              std::size_t Count) {
  HookTimer Timer(*Stats);
  Inner->onAccessBatch(Info, Records, Count);
}

DeviceAnalysis *TimedTool::deviceAnalysis() {
  DeviceAnalysis *Real = Inner->deviceAnalysis();
  if (!Real)
    return nullptr;
  Analysis.Inner.store(Real, std::memory_order_release);
  return &Analysis;
}

void TimedTool::TimedAnalysis::processRecords(
    const sim::LaunchInfo &Info, const sim::MemAccessRecord *Records,
    std::size_t Count) {
  Clock::time_point Begin = Clock::now();
  Inner.load(std::memory_order_acquire)->processRecords(Info, Records, Count);
  Stats.DeviceNs.fetch_add(elapsedNs(Begin), std::memory_order_relaxed);
}

void TimedTool::onInstrMix(const sim::LaunchInfo &Info,
                           const sim::InstrMix &Mix) {
  HookTimer Timer(*Stats);
  Inner->onInstrMix(Info, Mix);
}

void TimedTool::onKernelTraceEnd(const sim::LaunchInfo &Info,
                                 const sim::TraceTimeBreakdown &Breakdown) {
  HookTimer Timer(*Stats);
  Inner->onKernelTraceEnd(Info, Breakdown);
}

void TimedTool::report(ReportSink &Sink) {
  Clock::time_point Begin = Clock::now();
  Inner->report(Sink);
  Stats->ReportNs.fetch_add(elapsedNs(Begin), std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Null and counting tools
//===----------------------------------------------------------------------===//

std::unique_ptr<Tool> makeNullClone(Tool &Real) {
  return std::make_unique<NullTool>("null." + Real.name(), Real.subscription(),
                                    Real.requirements(),
                                    Real.deviceAnalysis() != nullptr);
}

std::unique_ptr<Tool> makeNullRecordsTool() {
  Subscription Sub;
  Sub.Kinds = EventKindMask::none();
  Sub.AccessRecords = true;
  Sub.Model = ExecutionModel::Serial;
  return std::make_unique<NullTool>("null_records", Sub,
                                    Sub.requiredCapabilities(),
                                    /*WithAnalysis=*/false);
}

Subscription CountingTool::subscription() {
  Subscription Sub;
  Sub.Kinds = EventKindMask::all();
  Sub.Model = ExecutionModel::Serial;
  return Sub;
}

void CountingTool::onEvent(const Event &) { ++Events; }

//===----------------------------------------------------------------------===//
// SpanLog
//===----------------------------------------------------------------------===//

SpanLog::SpanLog() : Origin(Clock::now()) {}

std::uint64_t SpanLog::nowNs() const { return elapsedNs(Origin); }

std::uint64_t SpanLog::begin(const std::string &Name, std::uint64_t Parent) {
  std::uint64_t Start = nowNs();
  std::lock_guard<std::mutex> Lock(Mu);
  Span S;
  S.Id = Spans.size() + 1;
  S.Parent = Parent;
  S.Name = Name;
  S.StartNs = Start;
  Spans.push_back(std::move(S));
  return Spans.back().Id;
}

void SpanLog::end(std::uint64_t Id) {
  std::uint64_t End = nowNs();
  std::lock_guard<std::mutex> Lock(Mu);
  if (Id >= 1 && Id <= Spans.size())
    Spans[Id - 1].EndNs = End;
}

std::string SpanLog::json() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::string Out = "[";
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    JsonObject Obj;
    Obj.add("id", S.Id)
        .add("parent", S.Parent)
        .add("name", S.Name)
        .add("start_ns", S.StartNs)
        .add("end_ns", S.EndNs);
    Out += (I ? ",\n " : "") + Obj.str();
  }
  return Out + "]";
}

} // namespace pastabench
