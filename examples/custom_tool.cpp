//===- examples/custom_tool.cpp - Writing your own tool ---------*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Extensibility demo (paper §III-H): a complete custom analysis in ~40
// lines — a transfer-volume tool tracking host<->device memcpy traffic
// per direction, built by overriding exactly one hook of the PASTA tool
// template and registering it under a name usable via PASTA_TOOL or
// SessionBuilder::tool().
//
// The tool *declares* its subscription: only MemoryCopy events reach it
// (no fan-out of anything else, the generic hook included), the session
// negotiates coarse-only instrumentation from the same declaration, and
// because its counters are atomics it can honestly claim the Concurrent
// contract: its hooks are safe to run at any time, from any thread.
//
//===----------------------------------------------------------------------===//

#include "pasta/Session.h"
#include "pasta/Tool.h"
#include "support/ReportSink.h"
#include "support/Units.h"

#include <atomic>
#include <cstdio>

using namespace pasta;

namespace {

/// Counts memcpy volume per direction. That's the whole tool.
class TransferVolumeTool : public Tool {
public:
  std::string name() const override { return "transfer_volume"; }

  /// The declarative half: MemoryCopy only, callable from any lane.
  Subscription subscription() override {
    Subscription Sub;
    Sub.Kinds = {EventKind::MemoryCopy};
    Sub.Model = ExecutionModel::Concurrent; // counters below are atomic
    return Sub;
  }

  void onMemoryCopy(const Event &E) override {
    switch (E.Direction) {
    case CopyDirection::HostToDevice:
      H2D += E.Bytes;
      break;
    case CopyDirection::DeviceToHost:
      D2H += E.Bytes;
      break;
    case CopyDirection::DeviceToDevice:
      D2D += E.Bytes;
      break;
    }
    ++Copies;
  }

  void writeReport(std::FILE *Out) override {
    std::fprintf(Out,
                 "transfer_volume: %llu copies | H2D %s | D2H %s | D2D %s\n",
                 static_cast<unsigned long long>(Copies.load()),
                 formatBytes(H2D.load()).c_str(),
                 formatBytes(D2H.load()).c_str(),
                 formatBytes(D2D.load()).c_str());
  }

private:
  std::atomic<std::uint64_t> H2D{0}, D2H{0}, D2D{0}, Copies{0};
};

} // namespace

int main() {
  // Register the custom tool exactly like the built-ins.
  ToolRegistry::instance().registerTool(
      "transfer_volume", [] { return std::make_unique<TransferVolumeTool>(); });

  SessionError Err;
  std::unique_ptr<Session> S = SessionBuilder()
                                   .tool("transfer_volume")
                                   .model("alexnet")
                                   .training()
                                   .iterations(2)
                                   .build(Err);
  if (!S) {
    std::fprintf(stderr, "error: %s\n", Err.message().c_str());
    return 1;
  }
  S->run();
  TextReportSink Sink(stdout);
  S->writeReports(Sink);
  return 0;
}
