//===- tests/report_sink_test.cpp - text/JSON/CSV report sinks ------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "dl/Tensor.h"
#include "pasta/EventProcessor.h"
#include "pasta/Tool.h"
#include "sim/Kernel.h"
#include "support/ReportSink.h"
#include "support/Rng.h"
#include "tools/ExtensionTools.h"
#include "tools/KernelFrequencyTool.h"
#include "tools/MemUsageTimelineTool.h"
#include "tools/OpKernelMapTool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <set>

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

/// The escape of one byte, spelled out case by case.
std::string referenceEscape(unsigned char C) {
  switch (C) {
  case '"':
    return "\\\"";
  case '\\':
    return "\\\\";
  case '\n':
    return "\\n";
  case '\r':
    return "\\r";
  case '\t':
    return "\\t";
  default:
    break;
  }
  if (C < 0x20) {
    static const char Hex[] = "0123456789abcdef";
    return std::string("\\u00") + Hex[C >> 4] + Hex[C & 0xf];
  }
  return std::string(1, static_cast<char>(C));
}

TEST(JsonReportSink, EscapeMatchesPerCharacterReferenceOnEveryByte) {
  std::string Raw;
  std::string Expected;
  for (int B = 0; B < 256; ++B) {
    const auto C = static_cast<unsigned char>(B);
    EXPECT_EQ(jsonEscape(std::string(1, static_cast<char>(C))),
              referenceEscape(C))
        << "byte " << B;
    // Plain runs of 0-2 bytes between the bytes under test, so escapes
    // land at the start, the end and next to each other.
    std::string Run(B % 3, 'a');
    Raw += Run;
    Raw += static_cast<char>(C);
    Expected += Run;
    Expected += referenceEscape(C);
  }
  EXPECT_EQ(jsonEscape(""), "");
  EXPECT_EQ(jsonEscape(Raw), Expected);

  // The sink escapes keys, string values and text bodies the same way.
  JsonReportSink Sink;
  Sink.beginReport(Raw);
  Sink.metric(Raw, Raw);
  Sink.text(Raw.substr(0, 100));
  Sink.text(Raw.substr(100));
  Sink.endReport();
  Sink.close();
  EXPECT_EQ(Sink.str(), "[\n  {\"tool\": \"" + Expected +
                            "\", \"metrics\": {\"" + Expected + "\": \"" +
                            Expected + "\"}, \"text\": \"" + Expected +
                            "\"}\n]\n");
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

//===----------------------------------------------------------------------===
// Report golden: the four admit_cold tools over one seeded stream
//===----------------------------------------------------------------------===

/// Name suffixes carrying every byte class the sinks escape or quote:
/// '"', '\\', tab, newline, CR, other control bytes, DEL, ',' and UTF-8
/// ("réduction_σ", "矩阵"). Adjacent literals keep a hex escape from
/// swallowing the next character.
const char *const Decorations[] = {
    "\"quoted\"",      "back\\slash",     "tab\there",
    "ctl\x01" "ctl\x1f", "line\nbreak",   "cr\r" "del\x7f",
    "comma, \"csv\"",  "r\xc3\xa9" "duction_\xcf\x83",
    "\xe7\x9f\xa9\xe9\x98\xb5", "plain"};
constexpr std::size_t NumDecorations = std::size(Decorations);

/// Feeds \p P one seeded single-device stream of 12 operators (one
/// nested in another) and 19 kernel launches, one of them outside any
/// operator. Every kernel, operator and layer name is distinct and ends
/// in a decoration. Kernel k is launched 1 + k % 3 times, so launch
/// counts tie; each launch stalls 1 or 2 ns, so layer stalls tie.
void feedGoldenStream(EventProcessor &P) {
  SplitMix64 Rng(31);
  std::vector<sim::KernelDesc> Kernels(NumDecorations);
  std::vector<std::size_t> Launches;
  for (std::size_t K = 0; K < NumDecorations; ++K) {
    Kernels[K].Name = "kernel_" + std::to_string(K) + "_" + Decorations[K];
    Kernels[K].Grid = {5, 1, 1};
    Kernels[K].Block = {128, 1, 1};
    Kernels[K].BarriersPerBlock = static_cast<std::uint32_t>(1 + K % 2);
    Launches.insert(Launches.end(), 1 + K % 3, K);
  }
  for (std::size_t I = Launches.size(); I > 1; --I)
    std::swap(Launches[I - 1], Launches[Rng.nextBelow(I)]);

  constexpr std::size_t NumOps = 12;
  std::vector<dl::TensorInfo> Tensors(NumOps);
  SimTime Now = 0;
  std::uint64_t Pool = 0;
  std::size_t NextLaunch = 0;
  auto Base = [&](EventKind Kind) {
    Event E;
    E.Kind = Kind;
    E.Timestamp = Now += 1 + Rng.nextBelow(1000);
    return E;
  };
  auto Launch = [&] {
    const sim::KernelDesc &Kernel = Kernels[Launches[NextLaunch++]];
    Event L = Base(EventKind::KernelLaunch);
    L.Kernel = &Kernel;
    L.GridId = NextLaunch;
    P.process(L);
    Event C = Base(EventKind::KernelComplete);
    C.Kernel = &Kernel;
    C.GridId = NextLaunch;
    P.process(C);
  };
  auto OpName = [](std::size_t Op) {
    return "aten::op" + std::to_string(Op) + "_" +
           Decorations[Op % NumDecorations];
  };
  auto Start = [&](std::size_t Op) {
    Event S = Base(EventKind::OperatorStart);
    S.OpName = OpName(Op);
    S.LayerName = "layer" + std::to_string(Op) + "." +
                  Decorations[(Op + 3) % NumDecorations];
    P.process(S);
    dl::TensorInfo &T = Tensors[Op];
    T.Id = Op;
    T.Name = "tensor" + std::to_string(Op);
    Event A = Base(EventKind::TensorAlloc);
    A.Tensor = &T;
    A.Bytes = 4096 * (1 + Rng.nextBelow(8));
    Pool += A.Bytes;
    A.PoolAllocated = Pool;
    P.process(A);
    return A.Bytes;
  };
  auto End = [&](std::size_t Op, std::uint64_t Bytes) {
    Event R = Base(EventKind::TensorReclaim);
    R.Tensor = &Tensors[Op];
    R.Bytes = Bytes;
    Pool -= Bytes;
    R.PoolAllocated = Pool;
    P.process(R);
    Event E = Base(EventKind::OperatorEnd);
    E.OpName = OpName(Op);
    P.process(E);
  };

  Launch(); // no operator yet: unattributed, charged to <toplevel>
  for (std::size_t Op = 0; Op < NumOps; ++Op) {
    if (Op == 5)
      continue; // runs nested inside operator 4
    std::uint64_t Bytes = Start(Op);
    Launch();
    if (Op == 4) {
      std::uint64_t Nested = Start(5);
      Launch();
      End(5, Nested);
    }
    if (Op % 2 == 0)
      Launch();
    End(Op, Bytes);
  }
  ASSERT_EQ(NextLaunch, Launches.size());
}

/// Everything \p Write prints to a FILE.
std::string captured(const std::function<void(std::FILE *)> &Write) {
  char *Buffer = nullptr;
  std::size_t Size = 0;
  std::FILE *Mem = open_memstream(&Buffer, &Size);
  if (!Mem)
    return "<open_memstream failed>";
  Write(Mem);
  std::fclose(Mem);
  std::string Out(Buffer, Size);
  std::free(Buffer);
  return Out;
}

/// Compares \p Actual with the golden tests/corpus/live/\p Name. On a
/// difference it writes \p Actual to \p Name + ".actual" in the working
/// directory, so a golden that changes on purpose can be replaced by it.
void expectGolden(const std::string &Actual, const std::string &Name) {
  const std::string Path = std::string(PASTA_CORPUS_DIR) + "/live/" + Name;
  std::ifstream In(Path, std::ios::binary);
  const std::string Golden((std::istreambuf_iterator<char>(In)),
                           std::istreambuf_iterator<char>());
  if (Actual == Golden)
    return;
  std::size_t At = 0;
  while (At < Actual.size() && At < Golden.size() &&
         Actual[At] == Golden[At])
    ++At;
  std::ofstream(Name + ".actual", std::ios::binary) << Actual;
  ADD_FAILURE() << Path << " differs from this run at byte " << At
                << " (golden " << Golden.size() << " bytes, run "
                << Actual.size() << "); the run's bytes are in " << Name
                << ".actual";
}

TEST(ReportGolden, AdmitColdToolsOverSeededStream) {
  // Tools before the processor, as in admit_cold.
  std::vector<std::unique_ptr<Tool>> Tools;
  Tools.push_back(std::make_unique<tools::KernelFrequencyTool>());
  Tools.push_back(std::make_unique<tools::OpKernelMapTool>());
  Tools.push_back(std::make_unique<tools::MemUsageTimelineTool>());
  Tools.push_back(std::make_unique<tools::BarrierStallTool>());
  EventProcessor P;
  for (const std::unique_ptr<Tool> &T : Tools) {
    ASSERT_TRUE(P.addTool(T.get()));
    T->onStart();
  }
  feedGoldenStream(P);
  for (const std::unique_ptr<Tool> &T : Tools)
    T->onFinish();

  // The stream ties what the reports' orderings must break.
  std::set<std::uint64_t> Counts;
  const auto &Frequencies =
      static_cast<tools::KernelFrequencyTool &>(*Tools[0]).frequencies();
  for (const auto &[Name, Count] : Frequencies)
    Counts.insert(Count);
  EXPECT_LT(Counts.size(), Frequencies.size());
  std::set<std::uint64_t> Stalls;
  const auto &ByLayer =
      static_cast<tools::BarrierStallTool &>(*Tools[3]).stallByLayer();
  for (const auto &[Layer, Stall] : ByLayer)
    Stalls.insert(Stall);
  EXPECT_LT(Stalls.size(), ByLayer.size());

  auto ReportAll = [&](ReportSink &Sink) {
    for (const std::unique_ptr<Tool> &T : Tools)
      T->report(Sink);
    Sink.close();
  };
  const std::string Json = captured([&](std::FILE *Out) {
    JsonReportSink Sink(Out);
    ReportAll(Sink);
  });
  JsonReportSink Buffered;
  ReportAll(Buffered);
  EXPECT_EQ(Buffered.str(), Json);
  expectGolden(Json, "seeded_stream.admit_cold_tools.json");
  expectGolden(captured([&](std::FILE *Out) {
                 TextReportSink Sink(Out);
                 ReportAll(Sink);
               }),
               "seeded_stream.admit_cold_tools.txt");
  expectGolden(captured([&](std::FILE *Out) {
                 CsvReportSink Sink(Out);
                 ReportAll(Sink);
               }),
               "seeded_stream.admit_cold_tools.csv");
}

} // namespace
