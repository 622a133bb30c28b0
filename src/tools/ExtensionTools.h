//===- tools/ExtensionTools.h - §III-H extensibility demos ------*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three tool families the paper's §III-H claims PASTA makes easy to
/// prototype, each implemented in a few dozen lines over the template:
///
///  * InstructionMixTool — instruction-level analysis on the NVBit
///    full-coverage backend (warp-efficiency style per-kernel mixes);
///  * BarrierStallTool — memory-centric analysis quantifying
///    synchronization stalls at barriers, attributed to layers;
///  * RedundantLoadTool — value-based analysis flagging kernels that
///    re-load the same addresses (GVProf-style redundancy).
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_TOOLS_EXTENSIONTOOLS_H
#define PASTA_TOOLS_EXTENSIONTOOLS_H

#include "pasta/Tool.h"

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace pasta {
namespace tools {

/// Per-kernel dynamic instruction mixes (requires the NVBit backend,
/// which alone sees every SASS instruction).
class InstructionMixTool : public Tool {
public:
  std::string name() const override { return "instruction_mix"; }

  /// No discrete events at all — instruction mixes arrive on the
  /// record-delivery path, so the contract does not matter
  /// (Concurrent).
  Subscription subscription() override;

  struct KernelMix {
    std::uint64_t Launches = 0;
    sim::InstrMix Mix;
    /// Memory instructions / total (memory-boundedness proxy).
    double memoryFraction() const;
  };

  void onInstrMix(const sim::LaunchInfo &Info,
                  const sim::InstrMix &Mix) override;
  void writeReport(std::FILE *Out) override;

  const std::map<std::string, KernelMix> &mixes() const { return Mixes; }

private:
  std::map<std::string, KernelMix> Mixes;
};

/// Synchronization-stall estimation: barriers per launch times the
/// per-barrier reconvergence latency, attributed to the enclosing layer.
class BarrierStallTool : public Tool {
public:
  /// \p BarrierLatencyNs is the modeled reconvergence cost per barrier
  /// per resident block wave.
  explicit BarrierStallTool(std::uint64_t BarrierLatencyNs = 200);

  std::string name() const override { return "barrier_stall"; }

  /// Operator starts (layer context) + kernel launches, serial (the
  /// current layer threads state between the two hooks).
  Subscription subscription() override;

  void onOperatorStart(const Event &E) override;
  void onKernelLaunch(const Event &E) override;
  void writeReport(std::FILE *Out) override;

  /// Estimated stall nanoseconds per layer.
  const std::map<std::string, std::uint64_t> &stallByLayer() const {
    return StallByLayer;
  }
  std::uint64_t totalStallNs() const { return TotalStall; }

private:
  std::uint64_t BarrierLatencyNs;
  /// Layer of the latest operator start, per device: producers of
  /// different devices interleave their operators. Shared handles adopted
  /// from the events (no copy per operator start).
  std::map<int, PayloadString> CurrentLayer;
  std::map<std::string, std::uint64_t> StallByLayer;
  std::uint64_t TotalStall = 0;
};

/// Value-based redundancy detection: fraction of accesses per kernel that
/// hit an address already accessed in the same launch.
class RedundantLoadTool : public Tool {
public:
  std::string name() const override { return "redundant_load"; }

  /// Kernel launches + access records + per-launch breakdowns, serial
  /// (per-kernel accumulators reset on launch, harvested on trace end).
  Subscription subscription() override;

  struct KernelRedundancy {
    std::string Name;
    std::uint64_t GridId = 0;
    std::uint64_t Accesses = 0;
    std::uint64_t Redundant = 0;
    double fraction() const {
      return Accesses == 0 ? 0.0
                           : static_cast<double>(Redundant) /
                                 static_cast<double>(Accesses);
    }
  };

  void onKernelLaunch(const Event &E) override;
  DeviceAnalysis *deviceAnalysis() override { return &Reducer; }
  void onKernelTraceEnd(const sim::LaunchInfo &Info,
                        const sim::TraceTimeBreakdown &Breakdown) override;
  void writeReport(std::FILE *Out) override;

  const std::vector<KernelRedundancy> &kernels() const { return Kernels; }

  RedundantLoadTool() : Reducer(*this) {}

private:
  class InSitu : public DeviceAnalysis {
  public:
    explicit InSitu(RedundantLoadTool &Parent) : Parent(Parent) {}
    void processRecords(const sim::LaunchInfo &Info,
                        const sim::MemAccessRecord *Records,
                        std::size_t Count) override;

  private:
    RedundantLoadTool &Parent;
  };

  InSitu Reducer;
  std::unordered_map<sim::DeviceAddr, std::uint64_t> SeenAddresses;
  std::uint64_t CurrentAccesses = 0;
  std::uint64_t CurrentRedundant = 0;
  std::vector<KernelRedundancy> Kernels;
};

} // namespace tools
} // namespace pasta

#endif // PASTA_TOOLS_EXTENSIONTOOLS_H
