//===- support/ReportSink.h - Structured report output ----------*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Destination for tool reports. Tools emit a sequence of named reports,
/// each carrying typed key/value metrics plus an optional free-text body
/// (the legacy writeReport(FILE*) rendering). Three implementations:
/// human-readable text, a JSON document (machine-readable driver/bench
/// output), and flat CSV rows for spreadsheet ingestion.
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_SUPPORT_REPORTSINK_H
#define PASTA_SUPPORT_REPORTSINK_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace pasta {

/// Abstract consumer of tool reports.
///
/// Usage protocol: beginReport, any number of metric()/text() calls,
/// endReport; repeat per tool; close() once at the end (destructors call
/// it, so explicit close is only needed to observe the full output before
/// the sink dies).
class ReportSink {
public:
  virtual ~ReportSink();

  virtual void beginReport(const std::string &ToolName) = 0;
  virtual void metric(const std::string &Key, std::uint64_t Value) = 0;
  virtual void metric(const std::string &Key, double Value) = 0;
  virtual void metric(const std::string &Key, const std::string &Value) = 0;
  /// Free-form body; may contain newlines.
  virtual void text(const std::string &Body) = 0;
  virtual void endReport() = 0;
  /// Emits any trailing structure. Must be idempotent.
  virtual void close() {}
};

/// Human-readable rendering (e.g. `TextReportSink Sink(stdout)`). When
/// a report carries a free-text body (the legacy writeReport rendering,
/// which already contains every metric in tabular form) only the body is
/// printed, byte-for-byte matching the historical output; the key/value
/// metrics are rendered only for reports without one.
class TextReportSink : public ReportSink {
public:
  explicit TextReportSink(std::FILE *Out) : Out(Out) {}

  void beginReport(const std::string &ToolName) override;
  void metric(const std::string &Key, std::uint64_t Value) override;
  void metric(const std::string &Key, double Value) override;
  void metric(const std::string &Key, const std::string &Value) override;
  void text(const std::string &Body) override;
  void endReport() override;

private:
  void metricLine(const std::string &Key, const std::string &Value);

  std::FILE *Out;
  std::string Current;
  std::string Body;
  std::vector<std::string> MetricLines;
};

/// One JSON array, one object per report:
///   [{"tool": "...", "metrics": {...}, "text": "..."}]
/// Output goes to \p Out (FILE) or an owned string buffer retrievable via
/// str() after close(). Keys, values and text bodies are escaped straight
/// into one output buffer; in FILE mode each finished report leaves it in
/// one fwrite.
class JsonReportSink : public ReportSink {
public:
  explicit JsonReportSink(std::FILE *Out) : Out(Out) {}
  /// Buffer mode for tests and embedding.
  JsonReportSink() = default;
  ~JsonReportSink() override;

  void beginReport(const std::string &ToolName) override;
  void metric(const std::string &Key, std::uint64_t Value) override;
  void metric(const std::string &Key, double Value) override;
  void metric(const std::string &Key, const std::string &Value) override;
  void text(const std::string &Body) override;
  void endReport() override;
  void close() override;

  /// Buffer-mode accessor; complete JSON only after close().
  const std::string &str() const { return Buffer; }

private:
  void metricPrefix(const std::string &Key);
  /// FILE mode: writes the buffered bytes and empties the buffer.
  void writeBuffered();

  std::FILE *Out = nullptr;
  /// The whole document (buffer mode) or the unwritten bytes (FILE mode).
  std::string Buffer;
  /// The current report's text body, already escaped.
  std::string Body;
  bool AnyReport = false;
  bool AnyMetric = false;
  bool Closed = false;
};

/// Flat "tool,key,value" rows; free text is folded into one quoted row
/// under the reserved key "text".
class CsvReportSink : public ReportSink {
public:
  explicit CsvReportSink(std::FILE *Out) : Out(Out) {}

  void beginReport(const std::string &ToolName) override;
  void metric(const std::string &Key, std::uint64_t Value) override;
  void metric(const std::string &Key, double Value) override;
  void metric(const std::string &Key, const std::string &Value) override;
  void text(const std::string &Body) override;
  void endReport() override;

private:
  void row(const std::string &Key, const std::string &Value);

  std::FILE *Out;
  std::string Current;
  bool HeaderPrinted = false;
};

/// Escapes \p Raw for embedding inside a JSON string literal.
std::string jsonEscape(const std::string &Raw);

/// Quotes \p Field per RFC 4180 when it contains commas/quotes/newlines.
std::string csvQuote(const std::string &Field);

} // namespace pasta

#endif // PASTA_SUPPORT_REPORTSINK_H
