//===- support/ReportSink.cpp ---------------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ReportSink.h"

#include <charconv>
#include <cinttypes>
#include <cmath>
#include <iterator>

using namespace pasta;

ReportSink::~ReportSink() = default;

/// Appends \p Raw to \p Out escaped for a JSON string literal. Each
/// stretch of bytes that needs no escape is copied in one append.
static void appendJsonEscaped(std::string &Out, const std::string &Raw) {
  static constexpr char Hex[] = "0123456789abcdef";
  const char *Run = Raw.data();
  const char *End = Run + Raw.size();
  for (const char *P = Run; P != End; ++P) {
    const auto C = static_cast<unsigned char>(*P);
    if (C >= 0x20 && C != '"' && C != '\\')
      continue;
    Out.append(Run, static_cast<std::size_t>(P - Run));
    Run = P + 1;
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default: {
      const char Unicode[] = {'\\', 'u', '0', '0', Hex[C >> 4], Hex[C & 0xf]};
      Out.append(Unicode, sizeof(Unicode));
    }
    }
  }
  Out.append(Run, static_cast<std::size_t>(End - Run));
}

std::string pasta::jsonEscape(const std::string &Raw) {
  std::string Out;
  Out.reserve(Raw.size() + 8);
  appendJsonEscaped(Out, Raw);
  return Out;
}

std::string pasta::csvQuote(const std::string &Field) {
  if (Field.find_first_of(",\"\n\r") == std::string::npos)
    return Field;
  std::string Out = "\"";
  for (char C : Field) {
    if (C == '"')
      Out += '"';
    Out += C;
  }
  Out += '"';
  return Out;
}

//===----------------------------------------------------------------------===
// TextReportSink
//===----------------------------------------------------------------------===

void TextReportSink::beginReport(const std::string &ToolName) {
  Current = ToolName;
  Body.clear();
  MetricLines.clear();
}

void TextReportSink::metricLine(const std::string &Key,
                                const std::string &Value) {
  MetricLines.push_back("  " + Key + ": " + Value + "\n");
}

void TextReportSink::metric(const std::string &Key, std::uint64_t Value) {
  char Num[32];
  std::snprintf(Num, sizeof(Num), "%" PRIu64, Value);
  metricLine(Key, Num);
}

void TextReportSink::metric(const std::string &Key, double Value) {
  char Num[64];
  std::snprintf(Num, sizeof(Num), "%g", Value);
  metricLine(Key, Num);
}

void TextReportSink::metric(const std::string &Key,
                            const std::string &Value) {
  metricLine(Key, Value);
}

void TextReportSink::text(const std::string &Body_) { Body += Body_; }

void TextReportSink::endReport() {
  if (!Body.empty()) {
    // The legacy writeReport rendering already shows everything in its
    // own tabular format; print it verbatim.
    std::fputs(Body.c_str(), Out);
  } else if (!MetricLines.empty()) {
    std::fprintf(Out, "[%s]\n", Current.c_str());
    for (const std::string &Line : MetricLines)
      std::fputs(Line.c_str(), Out);
  }
  Current.clear();
  Body.clear();
  MetricLines.clear();
}

//===----------------------------------------------------------------------===
// JsonReportSink
//===----------------------------------------------------------------------===

JsonReportSink::~JsonReportSink() { close(); }

void JsonReportSink::writeBuffered() {
  if (!Out)
    return;
  std::fwrite(Buffer.data(), 1, Buffer.size(), Out);
  Buffer.clear();
}

void JsonReportSink::beginReport(const std::string &ToolName) {
  Buffer += AnyReport ? ",\n" : "[\n";
  AnyReport = true;
  AnyMetric = false;
  Body.clear();
  Buffer += "  {\"tool\": \"";
  appendJsonEscaped(Buffer, ToolName);
  Buffer += "\", \"metrics\": {";
}

void JsonReportSink::metricPrefix(const std::string &Key) {
  if (AnyMetric)
    Buffer += ", ";
  AnyMetric = true;
  Buffer += '"';
  appendJsonEscaped(Buffer, Key);
  Buffer += "\": ";
}

void JsonReportSink::metric(const std::string &Key, std::uint64_t Value) {
  metricPrefix(Key);
  char Num[20]; // UINT64_MAX has 20 digits
  const char *End = std::to_chars(Num, std::end(Num), Value).ptr;
  Buffer.append(Num, static_cast<std::size_t>(End - Num));
}

void JsonReportSink::metric(const std::string &Key, double Value) {
  metricPrefix(Key);
  // JSON has no inf/nan literals; "%.17g" would emit them verbatim and
  // corrupt the document.
  if (!std::isfinite(Value)) {
    Buffer += "null";
    return;
  }
  char Num[64];
  int Len = std::snprintf(Num, sizeof(Num), "%.17g", Value);
  Buffer.append(Num, static_cast<std::size_t>(Len));
}

void JsonReportSink::metric(const std::string &Key,
                            const std::string &Value) {
  metricPrefix(Key);
  Buffer += '"';
  appendJsonEscaped(Buffer, Value);
  Buffer += '"';
}

void JsonReportSink::text(const std::string &Body_) {
  appendJsonEscaped(Body, Body_);
}

void JsonReportSink::endReport() {
  Buffer += '}';
  if (!Body.empty()) {
    Buffer += ", \"text\": \"";
    Buffer += Body;
    Buffer += '"';
  }
  Buffer += '}';
  Body.clear();
  writeBuffered();
}

void JsonReportSink::close() {
  if (Closed)
    return;
  Closed = true;
  Buffer += AnyReport ? "\n]\n" : "[]\n";
  writeBuffered();
}

//===----------------------------------------------------------------------===
// CsvReportSink
//===----------------------------------------------------------------------===

void CsvReportSink::beginReport(const std::string &ToolName) {
  Current = ToolName;
  if (!HeaderPrinted) {
    HeaderPrinted = true;
    std::fputs("tool,key,value\n", Out);
  }
}

void CsvReportSink::row(const std::string &Key, const std::string &Value) {
  std::fprintf(Out, "%s,%s,%s\n", csvQuote(Current).c_str(),
               csvQuote(Key).c_str(), csvQuote(Value).c_str());
}

void CsvReportSink::metric(const std::string &Key, std::uint64_t Value) {
  char Num[32];
  std::snprintf(Num, sizeof(Num), "%" PRIu64, Value);
  row(Key, Num);
}

void CsvReportSink::metric(const std::string &Key, double Value) {
  char Num[64];
  std::snprintf(Num, sizeof(Num), "%g", Value);
  row(Key, Num);
}

void CsvReportSink::metric(const std::string &Key,
                           const std::string &Value) {
  row(Key, Value);
}

void CsvReportSink::text(const std::string &Body) { row("text", Body); }

void CsvReportSink::endReport() { Current.clear(); }
