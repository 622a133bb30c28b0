//===- tools/TraceCaptureTool.h - Binary trace capture sink -----*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The capture half of PASTA's capture-once, analyze-anywhere story: a
/// Serial tool subscribing to *every* event kind, writing
/// each admitted event into a binary trace file (pasta/TraceWriter.h).
/// Because the Serial contract delivers events in admission order, the
/// captured file is deterministic for a deterministic workload — replay
/// of a capture reproduces it byte for byte, which the test suite and
/// the CI smoke step assert with cmp(1).
///
/// The output path comes from the constructor (SessionBuilder::capture /
/// accelprof --capture) or, for registry-created instances
/// ("trace_capture" via --tool/PASTA_TOOL), the PASTA_CAPTURE
/// environment variable. The report deliberately omits the path so a
/// live report and the report of a replay capturing to a different path
/// stay byte-identical.
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_TOOLS_TRACECAPTURETOOL_H
#define PASTA_TOOLS_TRACECAPTURETOOL_H

#include "pasta/Tool.h"
#include "pasta/TraceWriter.h"

#include <string>

namespace pasta {
namespace tools {

/// Serializes the admitted event stream to a binary trace file.
class TraceCaptureTool : public Tool {
public:
  /// Registry constructor: takes the path from PASTA_CAPTURE at
  /// onStart() time (warns and captures nothing when unset).
  TraceCaptureTool();
  /// Captures into \p Path (the SessionBuilder::capture path).
  explicit TraceCaptureTool(std::string Path);

  std::string name() const override { return "trace_capture"; }

  /// Every kind, Serial: the writer sees the full admitted stream in
  /// admission order, which is what makes captures deterministic.
  Subscription subscription() override;

  /// Opens the output file now instead of at onStart(), so callers with
  /// a SessionError at hand (Session::initialize) surface open failures
  /// at build time. False with \p Err naming the file on failure.
  bool openNow(SessionError &Err);

  void onStart() override;
  void onEvent(const Event &E) override;
  void onFinish() override;

  /// Capture counters (events, payload-table sizes, bytes); no path.
  void report(ReportSink &Sink) override;

  const TraceWriterStats &stats() const { return Writer.stats(); }
  const std::string &path() const { return OutputPath; }

private:
  std::string OutputPath;
  TraceWriter Writer;
  bool OpenFailed = false;
};

} // namespace tools
} // namespace pasta

#endif // PASTA_TOOLS_TRACECAPTURETOOL_H
