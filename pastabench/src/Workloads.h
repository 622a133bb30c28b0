//===- pastabench/src/Workloads.h - The benchmark workloads -----*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four workloads, each driving PASTA's public API from outside:
///
///  * zoo_live    GPT-2 training, backend none, four coarse-event tools,
///                async with 2 lanes: admission and dispatch with hot
///                payloads; the record path stays idle.
///  * zoo_records ResNet-18 training on cs-cpu with working_set_host and
///                hotness, async with 2 lanes: backend record generation,
///                per-kernel flushes, host and thread-pool analysis.
///  * fleet       3 client threads, each a GPT-2 training session that
///                forwards to one embedded serve::Aggregator tenant.
///  * admit_cold  2 producer threads calling EventProcessor::process with
///                a seeded stream whose kernel, op and layer names are all
///                distinct: memo misses and arena allocation on every
///                event.
///
/// Every workload runs its samples in "arms": the profiled program, the
/// same program traced with TimedTool decorators, and the reference
/// programs the per-layer metrics subtract (no tools, no-op tools with
/// the real subscriptions, a records-only no-op tool).
///
//===----------------------------------------------------------------------===//

#ifndef PASTABENCH_WORKLOADS_H
#define PASTABENCH_WORKLOADS_H

#include "Probes.h"

#include "pasta/EventProcessor.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pastabench {

enum class Arm {
  /// The real tools; the end-to-end numbers.
  Profiled,
  /// The real tools behind TimedTool decorators.
  Traced,
  /// Same program, backend none, no tools, no lanes (app.native_s and
  /// the overhead_pct baseline).
  Native,
  /// Backend none and no tools, but the profiled run's pipeline options:
  /// the baseline the per-layer differences subtract, where Native is
  /// lighter than that (zoo_*).
  Bare,
  /// No-op tools with the real tools' subscriptions and contracts.
  NullTools,
  /// One no-op tool subscribing to access records only.
  NullRecords,
};

const char *armName(Arm Which);

/// The effective configuration behind a workload's numbers.
struct WorkloadConfig {
  std::string Program;
  std::string Backend;
  std::vector<std::string> Tools;
  bool Async = false;
  std::size_t Lanes = 0;
  std::size_t QueueDepth = 0;
  std::size_t AnalysisThreads = 0;
  /// Application threads: producers or fleet clients.
  std::size_t AppThreads = 1;
  /// Threads that may run tool hooks at once (the bound of the
  /// summed-hook-time self-check).
  std::size_t HookThreads = 1;
  /// What one sample is: "session" or "round".
  std::string SampleUnit = "session";
};

/// One session or round.
struct Sample {
  Arm Which = Arm::Profiled;
  /// Which pass through the arms this sample belongs to; samples of one
  /// cycle ran back to back, so their ratios cancel slow drift.
  std::size_t Cycle = 0;
  bool Ok = true;
  std::string Error;
  /// The set-up PASTA does (setup_s): session build; fleet: daemon start
  /// and client connects; admit_cold: processor and tool attach.
  double SetupS = 0.0;
  /// Run through report and teardown (run_s).
  double RunS = 0.0;
  /// CPU time every thread of the process used over the RunS window
  /// (cpu_s).
  double CpuS = 0.0;
  /// writeReports into a JSON sink (session.report_s).
  double ReportS = 0.0;
  /// Coarse events admitted.
  std::uint64_t Events = 0;
  /// Client-side pipeline counters, summed over sessions.
  pasta::ProcessorStats Pipeline;
  std::uint64_t ArenaLookups = 0;
  /// admit_cold: quantiles of the per-call process() time this round.
  double AdmitP50Ns = 0.0;
  double AdmitP99Ns = 0.0;
  /// fleet: last client return -> all events admitted; requestStop ->
  /// wait.
  double DrainS = 0.0;
  double StopS = 0.0;
  std::uint64_t TraceBytes = 0;
  std::uint64_t SendBlocked = 0;
  std::uint64_t PayloadRefs = 0;
  std::uint64_t PayloadHits = 0;
  std::uint64_t CleanStreams = 0;
  std::uint64_t CorruptStreams = 0;
  std::uint64_t DuplicateFrames = 0;
  /// Traced arm: per-tool hook aggregates of this sample.
  std::map<std::string, HookTotals> Tools;
};

class Workload {
public:
  virtual ~Workload();
  const WorkloadConfig &config() const { return Config; }
  /// Produces the oracle's reference reports and counts, untimed, before
  /// the first sample. False with \p Err on any failure.
  bool prepare(std::string &Err);
  /// Runs one sample of \p Which. Spans go to \p Trace when non-null.
  virtual Sample run(Arm Which, SpanLog *Trace) = 0;
  /// The tool-less arm with the profiled run's pipeline options.
  virtual Arm layerBaseline() const { return Arm::Native; }

protected:
  /// Builds the references; throws on failure.
  virtual void reference() = 0;

  WorkloadConfig Config;
};

struct WorkloadParams {
  std::string Name;
  std::uint64_t Seed = 1;
  /// Tiny sizes for the self-check.
  bool Smoke = false;
  /// Directory for the fleet socket and daemon report files.
  std::string WorkDir = ".";
};

/// Null with \p Err for an unknown name.
std::unique_ptr<Workload> makeWorkload(const WorkloadParams &Params,
                                       std::string &Err);

} // namespace pastabench

#endif // PASTABENCH_WORKLOADS_H
