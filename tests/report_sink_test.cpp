//===- tests/report_sink_test.cpp - text/JSON/CSV report sinks ------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pasta/Tool.h"
#include "support/ReportSink.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>

using namespace pasta;

namespace {

/// Minimal JSON scalar extraction for round-trip checks: finds
/// "key": <value> inside \p Doc and returns the raw value token.
std::string jsonValue(const std::string &Doc, const std::string &Key) {
  std::string Needle = "\"" + Key + "\": ";
  std::size_t Pos = Doc.find(Needle);
  if (Pos == std::string::npos)
    return "<missing>";
  Pos += Needle.size();
  std::size_t End = Pos;
  if (Doc[Pos] == '"') {
    // String value: scan to the closing unescaped quote.
    ++End;
    while (End < Doc.size() && (Doc[End] != '"' || Doc[End - 1] == '\\'))
      ++End;
    return Doc.substr(Pos + 1, End - Pos - 1);
  }
  while (End < Doc.size() && Doc[End] != ',' && Doc[End] != '}')
    ++End;
  return Doc.substr(Pos, End - Pos);
}

TEST(JsonReportSink, MetricsRoundTrip) {
  JsonReportSink Sink;
  Sink.beginReport("alpha");
  Sink.metric("launches", static_cast<std::uint64_t>(42));
  Sink.metric("ratio", 0.5);
  Sink.metric("mode", std::string("gpu-resident"));
  Sink.endReport();
  Sink.beginReport("beta");
  Sink.metric("count", static_cast<std::uint64_t>(7));
  Sink.text("free text body\n");
  Sink.endReport();
  Sink.close();

  const std::string &Doc = Sink.str();
  EXPECT_EQ(Doc.front(), '[');
  EXPECT_EQ(jsonValue(Doc, "launches"), "42");
  EXPECT_EQ(jsonValue(Doc, "ratio"), "0.5");
  EXPECT_EQ(jsonValue(Doc, "mode"), "gpu-resident");
  EXPECT_EQ(jsonValue(Doc, "count"), "7");
  EXPECT_EQ(jsonValue(Doc, "text"), "free text body\\n");
  // Two report objects inside one array.
  EXPECT_NE(Doc.find("\"tool\": \"alpha\""), std::string::npos);
  EXPECT_NE(Doc.find("\"tool\": \"beta\""), std::string::npos);
}

TEST(JsonReportSink, EscapesSpecialCharacters) {
  JsonReportSink Sink;
  Sink.beginReport("esc");
  Sink.metric("name", std::string("kernel<\"T\">\\path\n"));
  Sink.endReport();
  Sink.close();
  EXPECT_NE(Sink.str().find("kernel<\\\"T\\\">\\\\path\\n"),
            std::string::npos);
}

TEST(JsonReportSink, NonFiniteMetricsEmitNull) {
  // JSON has no inf/nan literals; "%.17g" used to write them verbatim,
  // producing an unparseable document.
  JsonReportSink Sink;
  Sink.beginReport("nonfinite");
  Sink.metric("pos_inf", std::numeric_limits<double>::infinity());
  Sink.metric("neg_inf", -std::numeric_limits<double>::infinity());
  Sink.metric("nan", std::numeric_limits<double>::quiet_NaN());
  Sink.metric("finite", 2.5);
  Sink.endReport();
  Sink.close();

  const std::string &Doc = Sink.str();
  EXPECT_EQ(jsonValue(Doc, "pos_inf"), "null");
  EXPECT_EQ(jsonValue(Doc, "neg_inf"), "null");
  EXPECT_EQ(jsonValue(Doc, "nan"), "null");
  EXPECT_EQ(jsonValue(Doc, "finite"), "2.5");
}

TEST(JsonReportSink, EmptyDocumentIsValidArray) {
  JsonReportSink Sink;
  Sink.close();
  EXPECT_EQ(Sink.str(), "[]\n");
}

TEST(JsonReportSink, CloseIsIdempotent) {
  JsonReportSink Sink;
  Sink.beginReport("t");
  Sink.endReport();
  Sink.close();
  std::string Once = Sink.str();
  Sink.close();
  EXPECT_EQ(Sink.str(), Once);
}

TEST(CsvReportSink, RowsAndQuoting) {
  char *Buffer = nullptr;
  std::size_t Size = 0;
  std::FILE *Mem = open_memstream(&Buffer, &Size);
  ASSERT_NE(Mem, nullptr);
  {
    CsvReportSink Sink(Mem);
    Sink.beginReport("tool_a");
    Sink.metric("count", static_cast<std::uint64_t>(3));
    Sink.metric("label", std::string("has,comma and \"quote\""));
    Sink.endReport();
  }
  std::fclose(Mem);
  std::string Out(Buffer, Size);
  std::free(Buffer);

  EXPECT_NE(Out.find("tool,key,value\n"), std::string::npos);
  EXPECT_NE(Out.find("tool_a,count,3\n"), std::string::npos);
  EXPECT_NE(Out.find("tool_a,label,\"has,comma and \"\"quote\"\"\"\n"),
            std::string::npos);
}

TEST(TextReportSink, TextBodyMatchesHistoricalFormat) {
  char *Buffer = nullptr;
  std::size_t Size = 0;
  std::FILE *Mem = open_memstream(&Buffer, &Size);
  ASSERT_NE(Mem, nullptr);
  {
    TextReportSink Sink(Mem);
    // A report with a legacy text body prints the body verbatim — and
    // nothing else, so historical writeReports(FILE*) consumers see
    // byte-identical output.
    Sink.beginReport("tool_b");
    Sink.metric("kernels", static_cast<std::uint64_t>(9));
    Sink.text("legacy body\n");
    Sink.endReport();
    // A metrics-only report falls back to a [tool] key/value block.
    Sink.beginReport("tool_c");
    Sink.metric("count", static_cast<std::uint64_t>(3));
    Sink.endReport();
  }
  std::fclose(Mem);
  std::string Out(Buffer, Size);
  std::free(Buffer);

  EXPECT_EQ(Out.find("legacy body\n"), 0u);
  EXPECT_EQ(Out.find("[tool_b]"), std::string::npos);
  EXPECT_EQ(Out.find("kernels"), std::string::npos);
  EXPECT_NE(Out.find("[tool_c]\n  count: 3\n"), std::string::npos);
}

/// Tool that only implements the legacy writeReport.
class LegacyTool : public Tool {
public:
  std::string name() const override { return "legacy"; }
  Subscription subscription() override {
    Subscription Sub;
    Sub.Kinds = EventKindMask::all();
    Sub.KernelTrace = true;
    Sub.CapturesStacks = true;
    return Sub;
  }
  void writeReport(std::FILE *Out) override {
    std::fprintf(Out, "legacy report line\n");
  }
};

TEST(ToolReport, DefaultWrapsLegacyWriteReport) {
  LegacyTool T;
  JsonReportSink Sink;
  T.report(Sink);
  Sink.close();
  EXPECT_NE(Sink.str().find("\"tool\": \"legacy\""), std::string::npos);
  EXPECT_EQ(jsonValue(Sink.str(), "text"), "legacy report line\\n");
}

} // namespace
