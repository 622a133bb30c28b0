//===- tests/lint_test.cpp - pasta-lint lexer and rule tests --------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Unit tests for the contract-enforcement static checker: lexer token
// shapes, suppression mining, each rule's positive and negative cases,
// and the wire-format manifest round trip. The repo-wide run is the
// separate `pasta_lint` CTest test (the real binary over src/ + tests/).
//
//===----------------------------------------------------------------------===//

// Building without the linter (PASTA_BUILD_LINT=OFF) drops
// pasta_lint_core from the link; the suite then compiles this file to
// nothing instead.
#ifndef PASTA_NO_LINT_TESTS

#include "lint/Lint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

using namespace pasta::lint;

namespace {

/// Diagnostics of one rule id only (lint snippets often trip hygiene
/// rules on purpose-built fragments).
std::vector<Diagnostic> byRule(const std::vector<Diagnostic> &Diags,
                               const std::string &RuleId) {
  std::vector<Diagnostic> Out;
  for (const Diagnostic &D : Diags)
    if (D.RuleId == RuleId)
      Out.push_back(D);
  return Out;
}

std::vector<Diagnostic> lintRule(const std::string &Path,
                                 const std::string &Content,
                                 const std::string &RuleId) {
  return byRule(lintString(Path, Content), RuleId);
}

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(LintLexer, TokenShapes) {
  SourceFile F = lex("a.cpp", "int X = 42;\n\"a string\"\n#define FOO 1\n");
  ASSERT_GE(F.Tokens.size(), 6u);
  EXPECT_EQ(F.Tokens[0].Kind, TokenKind::Identifier);
  EXPECT_EQ(F.Tokens[0].Text, "int");
  EXPECT_EQ(F.Tokens[2].Kind, TokenKind::Punctuation);
  EXPECT_EQ(F.Tokens[2].Text, "=");
  EXPECT_EQ(F.Tokens[3].Kind, TokenKind::Number);
  EXPECT_EQ(F.Tokens[3].Text, "42");
  bool SawString = false, SawDirective = false;
  for (const Token &T : F.Tokens) {
    SawString |= T.Kind == TokenKind::String;
    SawDirective |= T.Kind == TokenKind::Preprocessor;
  }
  EXPECT_TRUE(SawString) << "string literal collapsed to one token";
  EXPECT_TRUE(SawDirective) << "one token per preprocessor line";
}

TEST(LintLexer, CommentsLeaveNoTokens) {
  SourceFile F = lex("a.cpp", "// line comment\n/* block\ncomment */int X;\n");
  ASSERT_GE(F.Tokens.size(), 2u);
  EXPECT_EQ(F.Tokens[0].Text, "int");
  EXPECT_EQ(F.Tokens[0].Line, 3u) << "lines still counted inside comments";
}

TEST(LintLexer, StringContentsAreOpaque) {
  // A banned call spelled inside a literal must not trip any rule.
  auto Diags = lintRule("a.cpp", "const char *S = \"rand() time(0)\";\n",
                        "no-nondeterminism");
  EXPECT_TRUE(Diags.empty());
}

TEST(LintLexer, SuppressionMining) {
  SourceFile F = lex(
      "a.cpp",
      "// pasta-lint: allow(no-nondeterminism, header-hygiene) reason\n"
      "int X;\n");
  EXPECT_TRUE(F.suppresses("no-nondeterminism"));
  EXPECT_TRUE(F.suppresses("header-hygiene"));
  EXPECT_FALSE(F.suppresses("tool-payload-handles"));
}

TEST(LintLexer, SuppressionAllCoversEveryRule) {
  SourceFile F = lex("a.cpp", "// pasta-lint: allow(all)\nint X;\n");
  for (const Rule &R : rules())
    EXPECT_TRUE(F.suppresses(R.Id)) << R.Id;
}

TEST(LintEngine, SuppressedRuleReportsNothing) {
  std::string Bad = "// pasta-lint: allow(no-nondeterminism) test\n"
                    "int X = rand();\n";
  EXPECT_TRUE(lintRule("a.cpp", Bad, "no-nondeterminism").empty());
  // Same content without the suppression is flagged.
  EXPECT_EQ(lintRule("a.cpp", "int X = rand();\n", "no-nondeterminism")
                .size(),
            1u);
}

//===----------------------------------------------------------------------===//
// tool-payload-handles
//===----------------------------------------------------------------------===//

TEST(LintRules, NonToolClassIgnored) {
  std::string Src = "class Widget : public Base {\n"
                    "  const sim::KernelDesc *Last = nullptr;\n"
                    "};\n"
                    "class Fwd;\n"
                    "enum class Tool { A };\n";
  EXPECT_TRUE(lintRule("t.cpp", Src, "tool-payload-handles").empty());
}

TEST(LintRules, RawKernelPointerMemberFlagged) {
  std::string Src = "class T : public Tool {\n"
                    "  Subscription subscription() override;\n"
                    "  const sim::KernelDesc *Last = nullptr;\n"
                    "};\n";
  auto Diags = lintRule("t.cpp", Src, "tool-payload-handles");
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].Line, 3u);
}

TEST(LintRules, OwnedHandleMemberClean) {
  std::string Src =
      "class T : public Tool {\n"
      "  Subscription subscription() override;\n"
      "  std::shared_ptr<const sim::KernelDesc> Last;\n"
      "  const sim::KernelDesc *lastKernel() const { return Last.get(); }\n"
      "};\n";
  EXPECT_TRUE(lintRule("t.cpp", Src, "tool-payload-handles").empty());
}

TEST(LintRules, RawPointerOutsideToolClassIgnored) {
  std::string Src = "class Cache {\n"
                    "  const sim::KernelDesc *Last = nullptr;\n"
                    "};\n";
  EXPECT_TRUE(lintRule("t.cpp", Src, "tool-payload-handles").empty());
}

//===----------------------------------------------------------------------===//
// no-nondeterminism
//===----------------------------------------------------------------------===//

TEST(LintRules, BannedCallsFlagged) {
  EXPECT_EQ(
      lintRule("a.cpp", "int X = rand();\n", "no-nondeterminism").size(),
      1u);
  EXPECT_EQ(lintRule("a.cpp", "double T = drand48();\n",
                     "no-nondeterminism")
                .size(),
            1u);
  EXPECT_EQ(lintRule("a.cpp", "std::random_device Rd;\n",
                     "no-nondeterminism")
                .size(),
            1u);
  EXPECT_EQ(lintRule("a.cpp", "auto Now = std::time(nullptr);\n",
                     "no-nondeterminism")
                .size(),
            1u);
}

TEST(LintRules, MemberClocksAndDeclaratorsClean) {
  // The project's own deterministic clocks are member calls or
  // declarations named like the libc functions; none may be flagged.
  std::string Src = "SimTime Now = Clock.time();\n"
                    "SimTime Later = Sys->clock().now();\n"
                    "SimClock &clock() { return C; }\n"
                    "sim::SimClock &clock();\n";
  EXPECT_TRUE(lintRule("a.cpp", Src, "no-nondeterminism").empty());
}

//===----------------------------------------------------------------------===//
// hot-path-memory-order
//===----------------------------------------------------------------------===//

TEST(LintRules, DefaultedAtomicOnHotPathFlagged) {
  std::string Src = "#pragma once\n"
                    "void f(std::atomic<int> &A) { (void)A.load(); }\n";
  auto Diags = lintRule("EventQueue.h", Src, "hot-path-memory-order");
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].Line, 2u);
}

TEST(LintRules, ExplicitOrderClean) {
  std::string Src =
      "#pragma once\n"
      "void f(std::atomic<int> &A) {\n"
      "  (void)A.load(std::memory_order_acquire);\n"
      "  A.fetch_add(1, std::memory_order_relaxed);\n"
      "}\n";
  EXPECT_TRUE(
      lintRule("EventQueue.h", Src, "hot-path-memory-order").empty());
}

TEST(LintRules, ColdFilesNotChecked) {
  std::string Src = "#pragma once\n"
                    "void f(std::atomic<int> &A) { (void)A.load(); }\n";
  EXPECT_TRUE(lintRule("Other.h", Src, "hot-path-memory-order").empty());
}

//===----------------------------------------------------------------------===//
// header-hygiene
//===----------------------------------------------------------------------===//

TEST(LintRules, UnguardedHeaderFlagged) {
  auto Diags = lintRule("a.h", "int X;\n", "header-hygiene");
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_NE(Diags[0].Message.find("guard"), std::string::npos);
}

TEST(LintRules, GuardedHeadersClean) {
  EXPECT_TRUE(
      lintRule("a.h", "#pragma once\nint X;\n", "header-hygiene").empty());
  EXPECT_TRUE(lintRule("a.h",
                       "#ifndef A_H\n#define A_H\nint X;\n#endif\n",
                       "header-hygiene")
                  .empty());
}

TEST(LintRules, UsingNamespaceInHeaderFlagged) {
  auto Diags = lintRule(
      "a.h", "#pragma once\nusing namespace pasta;\n", "header-hygiene");
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].Line, 2u);
}

TEST(LintRules, UsingNamespaceInCppAllowed) {
  EXPECT_TRUE(
      lintRule("a.cpp", "using namespace pasta;\n", "header-hygiene")
          .empty());
}

//===----------------------------------------------------------------------===//
// routing-epoch
//===----------------------------------------------------------------------===//

TEST(LintRules, DirectEpochPointerReadFlagged) {
  // A relaxed load sneaking past the accessor is exactly the bug the
  // rule exists for: the table's construction writes would be unfenced.
  auto Diags = lintRule(
      "EventProcessor.cpp",
      "void f(EventProcessor &P) {\n"
      "  const RoutingTable *T =\n"
      "      P.Epoch.EpochTablePtr.load(std::memory_order_relaxed);\n"
      "  (void)T;\n"
      "}\n",
      "routing-epoch");
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].Line, 3u);
  EXPECT_NE(Diags[0].Message.find("current()"), std::string::npos);
}

TEST(LintRules, EpochPointerInsideRoutingEpochClean) {
  // The class body owns the atomic; current()/publish() touch it there.
  auto Diags = lintRule(
      "EventProcessor.h",
      "class RoutingEpoch {\n"
      "public:\n"
      "  const RoutingTable *current() const {\n"
      "    return EpochTablePtr.load(std::memory_order_acquire);\n"
      "  }\n"
      "  void publish(const RoutingTable *T) {\n"
      "    EpochTablePtr.store(T, std::memory_order_release);\n"
      "  }\n"
      "private:\n"
      "  std::atomic<const RoutingTable *> EpochTablePtr{nullptr};\n"
      "};\n",
      "routing-epoch");
  EXPECT_TRUE(Diags.empty());
}

TEST(LintRules, EpochPointerAfterClassBodyFlagged) {
  // Same file, but the touch happens after the class closes.
  auto Diags = lintRule(
      "EventProcessor.h",
      "class RoutingEpoch {\n"
      "  std::atomic<const RoutingTable *> EpochTablePtr{nullptr};\n"
      "};\n"
      "auto *Sneak = Epoch.EpochTablePtr.load();\n",
      "routing-epoch");
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].Line, 4u);
}

TEST(LintRules, AccessorCallsClean) {
  EXPECT_TRUE(lintRule("EventProcessor.cpp",
                       "const RoutingTable &T = *Epoch.current();\n"
                       "Epoch.publish(Table.get());\n",
                       "routing-epoch")
                  .empty());
}

//===----------------------------------------------------------------------===//
// wire-format
//===----------------------------------------------------------------------===//

std::string traceHeader(const char *Version, const char *HeaderSize) {
  std::string Src;
  Src += "#pragma once\n";
  Src += "constexpr std::uint8_t Version = ";
  Src += Version;
  Src += ";\n";
  Src += "constexpr std::uint8_t HeaderFlags = 0;\n";
  Src += "constexpr std::size_t HeaderSize = ";
  Src += HeaderSize;
  Src += ";\n";
  Src += "constexpr std::size_t RecordPrefixSize = 5;\n";
  Src += "constexpr char Magic[8] = {'P','A','S','T','A','T','R','C'};\n";
  Src += "enum class RecordTag : std::uint8_t { StringDef = 1, Event, "
         "End };\n";
  return Src;
}

/// A manifest path of the running test's own: CTest runs each test in
/// its own process, in parallel, so a shared file lets one test's
/// manifest appear in another's "missing manifest" case.
std::string perTestPath(const char *Stem) {
  return std::string(Stem) + "." +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         ".tmp";
}

class WireFormatTest : public ::testing::Test {
protected:
  void SetUp() override {
    Ctx.ManifestPath = perTestPath("lint_test_manifest");
  }
  void TearDown() override { std::remove(Ctx.ManifestPath.c_str()); }
  LintContext Ctx;
};

TEST_F(WireFormatTest, ManifestExtraction) {
  SourceFile F = lex("TraceFormat.h", traceHeader("1", "16"));
  std::string Manifest = traceFormatManifest(F);
  EXPECT_NE(Manifest.find("version 1\n"), std::string::npos);
  EXPECT_NE(Manifest.find("header_size 16\n"), std::string::npos);
  EXPECT_NE(Manifest.find("magic PASTATRC\n"), std::string::npos);
  EXPECT_NE(Manifest.find("tag StringDef 1\n"), std::string::npos);
  EXPECT_NE(Manifest.find("tag Event 2\n"), std::string::npos)
      << "implicit enumerator increment";
  EXPECT_NE(Manifest.find("tag End 3\n"), std::string::npos);
  EXPECT_NE(Manifest.find("token_fingerprint 0x"), std::string::npos);
}

TEST_F(WireFormatTest, UpdateThenLintRoundTrips) {
  std::string Src = traceHeader("1", "16");
  LintContext Update = Ctx;
  Update.UpdateManifest = true;
  EXPECT_TRUE(lintString("TraceFormat.h", Src, Update).empty());
  EXPECT_TRUE(byRule(lintString("TraceFormat.h", Src, Ctx), "wire-format")
                  .empty());
}

TEST_F(WireFormatTest, SilentLayoutChangeDemandsVersionBump) {
  LintContext Update = Ctx;
  Update.UpdateManifest = true;
  lintString("TraceFormat.h", traceHeader("1", "16"), Update);
  // Same version, different layout: captured traces would be misread.
  auto Diags = byRule(
      lintString("TraceFormat.h", traceHeader("1", "24"), Ctx),
      "wire-format");
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_NE(Diags[0].Message.find("version bump"), std::string::npos);
}

TEST_F(WireFormatTest, VersionBumpDemandsManifestRegeneration) {
  LintContext Update = Ctx;
  Update.UpdateManifest = true;
  lintString("TraceFormat.h", traceHeader("1", "16"), Update);
  auto Diags = byRule(
      lintString("TraceFormat.h", traceHeader("2", "24"), Ctx),
      "wire-format");
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_NE(Diags[0].Message.find("regenerate"), std::string::npos);
}

TEST_F(WireFormatTest, MissingManifestReported) {
  auto Diags = byRule(
      lintString("TraceFormat.h", traceHeader("1", "16"), Ctx),
      "wire-format");
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_NE(Diags[0].Message.find("missing"), std::string::npos);
}

TEST_F(WireFormatTest, OtherFilesNeverChecked) {
  EXPECT_TRUE(
      byRule(lintString("NotTrace.h", traceHeader("1", "16"), Ctx),
             "wire-format")
          .empty());
}

//===----------------------------------------------------------------------===//
// stream-envelope
//===----------------------------------------------------------------------===//

std::string streamHeader(const char *Version, const char *FrameHeaderSize) {
  std::string Src;
  Src += "#pragma once\n";
  Src += "constexpr char StreamMagic[8] = "
         "{'P','A','S','T','A','S','T','M'};\n";
  Src += "constexpr std::uint32_t StreamProtocolVersion = ";
  Src += Version;
  Src += ";\n";
  Src += "constexpr std::uint32_t StreamHelloFlags = 0;\n";
  Src += "constexpr std::size_t StreamHelloFixedSize = "
         "8 + 4 + 4 + 8 + 8 + 8 + 4;\n";
  Src += "constexpr std::size_t StreamFrameHeaderSize = ";
  Src += FrameHeaderSize;
  Src += ";\n";
  Src += "constexpr std::uint32_t StreamMsgAck = 2;\n";
  Src += "constexpr char ControlMagic[8] = "
         "{'P','A','S','T','A','C','T','L'};\n";
  return Src;
}

class StreamEnvelopeRuleTest : public ::testing::Test {
protected:
  void SetUp() override {
    Ctx.StreamManifestPath = perTestPath("lint_test_stream_manifest");
  }
  void TearDown() override {
    std::remove(Ctx.StreamManifestPath.c_str());
  }
  LintContext Ctx;
};

TEST_F(StreamEnvelopeRuleTest, ManifestExtraction) {
  SourceFile F = lex("StreamEnvelope.h", streamHeader("2", "12"));
  std::string Manifest = streamEnvelopeManifest(F);
  EXPECT_NE(Manifest.find("version 2\n"), std::string::npos);
  EXPECT_NE(Manifest.find("hello_fixed_size 44\n"), std::string::npos)
      << "the additive size expression must be evaluated";
  EXPECT_NE(Manifest.find("frame_header_size 12\n"), std::string::npos);
  EXPECT_NE(Manifest.find("msg_ack 2\n"), std::string::npos);
  EXPECT_NE(Manifest.find("magic PASTASTM\n"), std::string::npos);
  EXPECT_NE(Manifest.find("control_magic PASTACTL\n"), std::string::npos);
  EXPECT_NE(Manifest.find("token_fingerprint 0x"), std::string::npos);
}

TEST_F(StreamEnvelopeRuleTest, UpdateThenLintRoundTrips) {
  std::string Src = streamHeader("2", "12");
  LintContext Update = Ctx;
  Update.UpdateManifest = true;
  EXPECT_TRUE(lintString("StreamEnvelope.h", Src, Update).empty());
  EXPECT_TRUE(
      byRule(lintString("StreamEnvelope.h", Src, Ctx), "stream-envelope")
          .empty());
}

TEST_F(StreamEnvelopeRuleTest, SilentFramingChangeDemandsVersionBump) {
  LintContext Update = Ctx;
  Update.UpdateManifest = true;
  lintString("StreamEnvelope.h", streamHeader("2", "12"), Update);
  // Same version, different frame layout: deployed peers would misread
  // the session framing.
  auto Diags = byRule(
      lintString("StreamEnvelope.h", streamHeader("2", "16"), Ctx),
      "stream-envelope");
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_NE(Diags[0].Message.find("version bump"), std::string::npos);
}

TEST_F(StreamEnvelopeRuleTest, VersionBumpDemandsManifestRegeneration) {
  LintContext Update = Ctx;
  Update.UpdateManifest = true;
  lintString("StreamEnvelope.h", streamHeader("2", "12"), Update);
  auto Diags = byRule(
      lintString("StreamEnvelope.h", streamHeader("3", "16"), Ctx),
      "stream-envelope");
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_NE(Diags[0].Message.find("regenerate"), std::string::npos);
}

TEST_F(StreamEnvelopeRuleTest, MissingManifestReported) {
  auto Diags = byRule(
      lintString("StreamEnvelope.h", streamHeader("2", "12"), Ctx),
      "stream-envelope");
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_NE(Diags[0].Message.find("missing"), std::string::npos);
}

TEST_F(StreamEnvelopeRuleTest, OtherFilesNeverChecked) {
  EXPECT_TRUE(
      byRule(lintString("NotEnvelope.h", streamHeader("2", "12"), Ctx),
             "stream-envelope")
          .empty());
}

//===----------------------------------------------------------------------===//
// Engine surface
//===----------------------------------------------------------------------===//

TEST(LintEngine, RuleTableIsStable) {
  std::vector<std::string> Ids;
  for (const Rule &R : rules()) {
    Ids.push_back(R.Id);
    EXPECT_FALSE(R.Description.empty()) << R.Id;
    EXPECT_TRUE(R.Check) << R.Id;
  }
  std::vector<std::string> Expected = {
      "tool-payload-handles", "no-nondeterminism", "hot-path-memory-order",
      "routing-epoch",        "header-hygiene",    "wire-format",
      "stream-envelope"};
  EXPECT_EQ(Ids, Expected);
}

TEST(LintEngine, DiagnosticFormat) {
  Diagnostic D{"src/a.cpp", 12, "no-nondeterminism", "msg"};
  EXPECT_EQ(D.str(), "src/a.cpp:12: error: msg [no-nondeterminism]");
}

TEST(LintEngine, DiagnosticsSortedByLine) {
  // tool-payload-handles runs before no-nondeterminism, so its line-6
  // finding comes out of the rule table ahead of the line-4 one.
  std::string Src = "class B : public Tool {\n"
                    "  const sim::KernelDesc *K = nullptr;\n"
                    "};\n"
                    "int X = rand();\n"
                    "class A : public Tool {\n"
                    "  const sim::KernelDesc *K = nullptr;\n"
                    "};\n";
  auto Diags = lintString("t.cpp", Src);
  ASSERT_GE(Diags.size(), 3u);
  for (std::size_t I = 1; I < Diags.size(); ++I)
    EXPECT_LE(Diags[I - 1].Line, Diags[I].Line);
}

} // namespace

#endif // PASTA_NO_LINT_TESTS
