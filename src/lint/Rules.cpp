//===- lint/Rules.cpp - pasta-lint rule table -----------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The project-specific contracts pasta-lint enforces (one entry in
// rules() per family; docs/VALIDATION.md documents each id). Rules are
// token-stream matchers — exact for the house style this repo uses,
// with per-file `// pasta-lint: allow(<id>)` suppressions as the
// escape hatch for deliberate exceptions.
//
//===----------------------------------------------------------------------===//

#include "lint/Lint.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

namespace pasta {
namespace lint {

namespace {

//===----------------------------------------------------------------------===//
// Token-walk helpers
//===----------------------------------------------------------------------===//

/// Index of the next token matching \p Pred at or after \p From; npos
/// when absent.
template <typename Pred>
std::size_t findToken(const std::vector<Token> &Toks, std::size_t From,
                      Pred P) {
  for (std::size_t I = From; I < Toks.size(); ++I)
    if (P(Toks[I]))
      return I;
  return std::string::npos;
}

/// Token index just past the brace-matched block opening at \p OpenBrace
/// (which must be '{'); Toks.size() when unbalanced.
std::size_t matchBrace(const std::vector<Token> &Toks,
                       std::size_t OpenBrace) {
  int Depth = 0;
  for (std::size_t I = OpenBrace; I < Toks.size(); ++I) {
    if (Toks[I].is("{"))
      ++Depth;
    else if (Toks[I].is("}") && --Depth == 0)
      return I + 1;
  }
  return Toks.size();
}

/// One `class X : ... Tool ... {` body found in a file.
struct ToolClass {
  std::string Name;
  unsigned Line = 0;
  std::size_t BodyBegin = 0; ///< index of the '{'
  std::size_t BodyEnd = 0;   ///< index just past the matching '}'
};

/// Finds every class/struct whose base-clause names Tool directly.
/// Token-based: a forward declaration (no '{' before ';') is skipped,
/// and the base clause is the token range between ':' and '{'.
std::vector<ToolClass> findToolClasses(const SourceFile &File) {
  const std::vector<Token> &Toks = File.Tokens;
  std::vector<ToolClass> Out;
  for (std::size_t I = 0; I + 1 < Toks.size(); ++I) {
    if (!(Toks[I].isIdent("class") || Toks[I].isIdent("struct")))
      continue;
    // `enum class` is not a class.
    if (I > 0 && Toks[I - 1].isIdent("enum"))
      continue;
    std::size_t NameAt = I + 1;
    if (NameAt >= Toks.size() ||
        Toks[NameAt].Kind != TokenKind::Identifier)
      continue;
    // Find the head's end: '{' begins the body, ';' means forward
    // declaration, and any other early terminator means this wasn't a
    // class head after all (e.g. `class X *P;` uses).
    std::size_t Colon = std::string::npos;
    std::size_t Open = std::string::npos;
    for (std::size_t J = NameAt + 1; J < Toks.size(); ++J) {
      if (Toks[J].is(";") || Toks[J].is(")") || Toks[J].is(">"))
        break;
      if (Toks[J].is(":") && Colon == std::string::npos)
        Colon = J;
      if (Toks[J].is("{")) {
        Open = J;
        break;
      }
    }
    if (Open == std::string::npos || Colon == std::string::npos ||
        Colon > Open)
      continue;
    bool DerivesTool = false;
    for (std::size_t J = Colon + 1; J < Open; ++J)
      if (Toks[J].isIdent("Tool"))
        DerivesTool = true;
    if (!DerivesTool)
      continue;
    ToolClass TC;
    TC.Name = Toks[NameAt].Text;
    TC.Line = Toks[I].Line;
    TC.BodyBegin = Open;
    TC.BodyEnd = matchBrace(Toks, Open);
    Out.push_back(std::move(TC));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// tool-payload-handles: no raw KernelDesc*/TensorInfo* members in tools
//===----------------------------------------------------------------------===//

void checkToolPayloadHandles(const SourceFile &File, const LintContext &,
                             std::vector<Diagnostic> &Out) {
  const std::vector<Token> &Toks = File.Tokens;
  for (const ToolClass &TC : findToolClasses(File)) {
    int Brace = 0; // depth relative to the class body
    int Paren = 0;
    for (std::size_t I = TC.BodyBegin; I < TC.BodyEnd; ++I) {
      const Token &T = Toks[I];
      if (T.is("{"))
        ++Brace;
      else if (T.is("}"))
        --Brace;
      else if (T.is("("))
        ++Paren;
      else if (T.is(")"))
        --Paren;
      // Member-declaration scope only: directly inside the class body,
      // outside any parameter list or member-function body.
      if (Brace != 1 || Paren != 0)
        continue;
      if (!(T.isIdent("KernelDesc") || T.isIdent("TensorInfo")))
        continue;
      // Scan the declarator: a '*' before any of ';(>,' means a raw
      // pointer; a following '(' means a function returning one (the
      // contract bans *storing*, not returning).
      bool SawStar = false;
      bool IsMember = false;
      for (std::size_t J = I + 1; J < TC.BodyEnd; ++J) {
        const Token &D = Toks[J];
        if (D.is(">") || D.is("(")) // shared_ptr<...> / function decl
          break;
        if (D.is("*")) {
          SawStar = true;
          continue;
        }
        if (D.is(";") || D.is("=") || D.is(",") || D.is("{")) {
          IsMember = SawStar;
          break;
        }
      }
      if (IsMember)
        Out.push_back(Diagnostic{
            File.Path, T.Line, "tool-payload-handles",
            "Tool subclass '" + TC.Name + "' stores a raw " + T.Text +
                "* member; event payload pointees are only borrowed "
                "for the duration of a hook — keep a PayloadString/"
                "PayloadStack or the event's owned shared_ptr handle "
                "instead"});
    }
  }
}

//===----------------------------------------------------------------------===//
// no-nondeterminism: replay depends on deterministic sources
//===----------------------------------------------------------------------===//

bool isBannedCall(const std::string &Name) {
  static const std::set<std::string> Banned = {
      "rand",   "srand",        "rand_r", "drand48",
      "random", "gettimeofday", "time",   "clock"};
  return Banned.count(Name) != 0;
}

void checkNondeterminism(const SourceFile &File, const LintContext &,
                         std::vector<Diagnostic> &Out) {
  const std::vector<Token> &Toks = File.Tokens;
  for (std::size_t I = 0; I < Toks.size(); ++I) {
    const Token &T = Toks[I];
    if (T.Kind != TokenKind::Identifier)
      continue;
    if (T.Text == "random_device") {
      Out.push_back(Diagnostic{
          File.Path, T.Line, "no-nondeterminism",
          "std::random_device is banned: deterministic replay and the "
          "reproducible benches require seeded PRNGs — use "
          "support/Rng.h (SplitMix64)"});
      continue;
    }
    if (!isBannedCall(T.Text))
      continue;
    if (I + 1 >= Toks.size() || !Toks[I + 1].is("("))
      continue;
    // Member calls (Clock.time(), X->clock()) are this project's own
    // deterministic clocks; only free or std-qualified calls are the
    // wall-clock/libc nondeterminism the rule bans.
    if (I > 0 && (Toks[I - 1].is(".") || Toks[I - 1].is(">")))
      continue;
    // Declarators, not calls: `SimClock &clock()` / `Time time(...)`.
    // A preceding type name, &, or * means this declares a function of
    // that name (keywords that legally precede a call expression stay
    // flagged).
    if (I > 0) {
      const Token &P = Toks[I - 1];
      if (P.is("&") || P.is("*") || P.is("~"))
        continue;
      if (P.Kind == TokenKind::Identifier && !P.isIdent("return") &&
          !P.isIdent("throw") && !P.isIdent("else") && !P.isIdent("do"))
        continue;
    }
    if (I >= 2 && Toks[I - 1].is(":") && Toks[I - 2].is(":")) {
      // Qualified: banned only when the qualifier is std.
      if (!(I >= 3 && Toks[I - 3].isIdent("std")))
        continue;
    }
    Out.push_back(Diagnostic{
        File.Path, T.Line, "no-nondeterminism",
        "call to '" + T.Text +
            "' is banned outside the allowlist: tool reports must be "
            "identical under capture/replay — take timestamps from "
            "events and randomness from support/Rng.h"});
  }
}

//===----------------------------------------------------------------------===//
// hot-path-memory-order: no defaulted seq_cst in the admission core
//===----------------------------------------------------------------------===//

bool isHotPathFile(const SourceFile &File) {
  static const std::set<std::string> Bases = {
      "EventArena.h", "EventArena.cpp", "EventProcessor.h",
      "EventProcessor.cpp"};
  return Bases.count(File.baseName()) != 0;
}

bool isAtomicOp(const std::string &Name) {
  static const std::set<std::string> Ops = {
      "load",     "store",    "exchange",
      "fetch_add", "fetch_sub", "fetch_or",
      "fetch_and", "fetch_xor", "compare_exchange_weak",
      "compare_exchange_strong"};
  return Ops.count(Name) != 0;
}

void checkHotPathMemoryOrder(const SourceFile &File, const LintContext &,
                             std::vector<Diagnostic> &Out) {
  if (!isHotPathFile(File))
    return;
  const std::vector<Token> &Toks = File.Tokens;
  for (std::size_t I = 1; I + 1 < Toks.size(); ++I) {
    const Token &T = Toks[I];
    if (T.Kind != TokenKind::Identifier || !isAtomicOp(T.Text))
      continue;
    // Only member calls: `.load(` / `->load(`.
    if (!(Toks[I - 1].is(".") || Toks[I - 1].is(">")))
      continue;
    if (!Toks[I + 1].is("("))
      continue;
    // Scan the argument list for an explicit memory order.
    int Depth = 0;
    bool HasOrder = false;
    for (std::size_t J = I + 1; J < Toks.size(); ++J) {
      if (Toks[J].is("("))
        ++Depth;
      else if (Toks[J].is(")") && --Depth == 0)
        break;
      if (Toks[J].Kind == TokenKind::Identifier &&
          Toks[J].Text.compare(0, 12, "memory_order") == 0)
        HasOrder = true;
    }
    if (!HasOrder)
      Out.push_back(Diagnostic{
          File.Path, T.Line, "hot-path-memory-order",
          "'" + T.Text +
              "' without an explicit std::memory_order defaults to "
              "seq_cst on the admission hot path; state the intended "
              "order (and the reasoning it encodes) explicitly"});
  }
}

//===----------------------------------------------------------------------===//
// header-hygiene: guards present, no using-namespace in headers
//===----------------------------------------------------------------------===//

void checkHeaderHygiene(const SourceFile &File, const LintContext &,
                        std::vector<Diagnostic> &Out) {
  if (!File.isHeader())
    return;
  const std::vector<Token> &Toks = File.Tokens;

  bool Guarded = false;
  int DirectivesSeen = 0;
  for (const Token &T : Toks) {
    if (T.Kind != TokenKind::Preprocessor)
      continue;
    ++DirectivesSeen;
    if (T.Text.find("pragma") != std::string::npos &&
        T.Text.find("once") != std::string::npos)
      Guarded = true;
    if (T.Text.find("ifndef") != std::string::npos &&
        DirectivesSeen <= 2)
      Guarded = true;
    if (DirectivesSeen >= 2)
      break;
  }
  if (!Guarded)
    Out.push_back(Diagnostic{
        File.Path, 1, "header-hygiene",
        "header has neither '#pragma once' nor a leading include "
        "guard"});

  for (std::size_t I = 0; I + 1 < Toks.size(); ++I)
    if (Toks[I].isIdent("using") && Toks[I + 1].isIdent("namespace"))
      Out.push_back(Diagnostic{
          File.Path, Toks[I].Line, "header-hygiene",
          "'using namespace' in a header leaks into every includer; "
          "qualify names instead"});
}

//===----------------------------------------------------------------------===//
// wire-format: TraceFormat.h must match the checked-in manifest
//===----------------------------------------------------------------------===//

/// The `Name = <number>` constant value, as written; empty when absent.
std::string constantValue(const std::vector<Token> &Toks,
                          const char *Name) {
  for (std::size_t I = 0; I + 2 < Toks.size(); ++I)
    if (Toks[I].isIdent(Name) && Toks[I + 1].is("=") &&
        Toks[I + 2].Kind == TokenKind::Number)
      return Toks[I + 2].Text;
  return std::string();
}

/// FNV-1a over the comment-stripped token stream: any substantive edit
/// to the header changes it, which is exactly the tripwire the rule
/// wants (comment/doc edits do not).
std::uint64_t tokenFingerprint(const std::vector<Token> &Toks) {
  std::uint64_t H = 1469598103934665603ull;
  auto mix = [&](const std::string &S) {
    for (char C : S) {
      H ^= static_cast<unsigned char>(C);
      H *= 1099511628211ull;
    }
    H ^= 0xff;
    H *= 1099511628211ull;
  };
  for (const Token &T : Toks)
    mix(T.Text);
  return H;
}

/// The `Name = <n> (+ <n>)*` constant, evaluated; empty when absent or
/// not a plain additive literal expression. Covers derived sizes like
/// `StreamHelloFixedSize = 8 + 4 + ...` that constantValue cannot read.
std::string constantSum(const std::vector<Token> &Toks,
                        const char *Name) {
  for (std::size_t I = 0; I + 2 < Toks.size(); ++I) {
    if (!Toks[I].isIdent(Name) || !Toks[I + 1].is("="))
      continue;
    if (Toks[I + 2].Kind != TokenKind::Number)
      return std::string();
    long Sum = std::strtol(Toks[I + 2].Text.c_str(), nullptr, 0);
    std::size_t J = I + 3;
    while (J + 1 < Toks.size() && Toks[J].is("+") &&
           Toks[J + 1].Kind == TokenKind::Number) {
      Sum += std::strtol(Toks[J + 1].Text.c_str(), nullptr, 0);
      J += 2;
    }
    if (J < Toks.size() && !Toks[J].is(";"))
      return std::string(); // a non-additive expression; fingerprint covers it
    return std::to_string(Sum);
  }
  return std::string();
}

/// The char literals of `<ArrayName>[8] = {'P',...}`, concatenated;
/// empty when absent. The lexer collapses char literals, so this reads
/// the raw content like traceFormatManifest does for Magic[8].
std::string magicByteList(const std::string &Content,
                          const char *ArrayName) {
  std::string Bytes;
  std::size_t At = Content.find(std::string(ArrayName) + "[8]");
  if (At == std::string::npos)
    return Bytes;
  std::size_t Open = Content.find('{', At);
  std::size_t Close = Content.find('}', At);
  if (Open == std::string::npos || Close == std::string::npos)
    return Bytes;
  for (std::size_t I = Open; I < Close; ++I)
    if (Content[I] == '\'' && I + 2 < Close) {
      Bytes.push_back(Content[I + 1]);
      I += 2; // past the closing quote
    }
  return Bytes;
}

} // namespace

std::string traceFormatManifest(const SourceFile &File) {
  const std::vector<Token> &Toks = File.Tokens;
  std::string Version = constantValue(Toks, "Version");
  std::string Flags = constantValue(Toks, "HeaderFlags");
  std::string HeaderSize = constantValue(Toks, "HeaderSize");
  std::string PrefixSize = constantValue(Toks, "RecordPrefixSize");
  if (Version.empty() || Flags.empty() || HeaderSize.empty() ||
      PrefixSize.empty())
    return std::string();

  // The magic bytes live in char literals, which the lexer collapses;
  // read them straight from the content.
  std::string MagicBytes;
  std::size_t MagicAt = File.Content.find("Magic[8]");
  if (MagicAt != std::string::npos) {
    std::size_t Open = File.Content.find('{', MagicAt);
    std::size_t Close = File.Content.find('}', MagicAt);
    if (Open != std::string::npos && Close != std::string::npos)
      for (std::size_t I = Open; I < Close; ++I)
        if (File.Content[I] == '\'' && I + 2 < Close) {
          MagicBytes.push_back(File.Content[I + 1]);
          I += 2; // past the closing quote
        }
  }

  // RecordTag enumerators, with C++ implicit-increment semantics.
  std::ostringstream Tags;
  std::size_t EnumAt = findToken(Toks, 0, [](const Token &T) {
    return T.isIdent("RecordTag");
  });
  if (EnumAt != std::string::npos) {
    std::size_t Open = findToken(Toks, EnumAt, [](const Token &T) {
      return T.is("{");
    });
    if (Open != std::string::npos) {
      std::size_t End = matchBrace(Toks, Open);
      long Next = 0;
      for (std::size_t I = Open + 1; I + 1 < End; ++I) {
        if (Toks[I].Kind != TokenKind::Identifier)
          continue;
        long Value = Next;
        if (Toks[I + 1].is("=") && I + 2 < End &&
            Toks[I + 2].Kind == TokenKind::Number)
          Value = std::strtol(Toks[I + 2].Text.c_str(), nullptr, 0);
        Tags << "tag " << Toks[I].Text << " " << Value << "\n";
        Next = Value + 1;
        // Skip to the comma ending this enumerator.
        while (I + 1 < End && !Toks[I + 1].is(","))
          ++I;
      }
    }
  }

  std::ostringstream Out;
  Out << "# pasta trace wire-format manifest - regenerate with: "
         "pasta-lint --update-manifest\n"
      << "version " << Version << "\n"
      << "flags " << Flags << "\n"
      << "header_size " << HeaderSize << "\n"
      << "record_prefix_size " << PrefixSize << "\n"
      << "magic " << MagicBytes << "\n"
      << Tags.str();
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(tokenFingerprint(Toks)));
  Out << "token_fingerprint " << Buf << "\n";
  return Out.str();
}

std::string streamEnvelopeManifest(const SourceFile &File) {
  const std::vector<Token> &Toks = File.Tokens;
  std::string Version = constantValue(Toks, "StreamProtocolVersion");
  std::string HelloFlags = constantValue(Toks, "StreamHelloFlags");
  std::string HelloFixed = constantSum(Toks, "StreamHelloFixedSize");
  std::string FrameHeader = constantValue(Toks, "StreamFrameHeaderSize");
  if (Version.empty() || HelloFlags.empty() || HelloFixed.empty() ||
      FrameHeader.empty())
    return std::string();

  std::ostringstream Out;
  Out << "# pasta stream-envelope wire-format manifest - regenerate "
         "with: pasta-lint --update-manifest\n"
      << "version " << Version << "\n"
      << "hello_flags " << HelloFlags << "\n"
      << "hello_fixed_size " << HelloFixed << "\n"
      << "frame_header_size " << FrameHeader << "\n";

  // Every other normative constant that is a plain literal (or additive
  // expression). Absent names are simply omitted — the fingerprint
  // still trips on their removal.
  static const struct {
    const char *Label;
    const char *Name;
  } Entries[] = {
      {"max_tenant_bytes", "StreamMaxTenantBytes"},
      {"server_msg_size", "StreamServerMsgSize"},
      {"msg_resume", "StreamMsgResume"},
      {"msg_ack", "StreamMsgAck"},
      {"msg_reject", "StreamMsgReject"},
      {"reject_resume_unavailable", "StreamRejectResumeUnavailable"},
      {"reject_stream_busy", "StreamRejectStreamBusy"},
      {"reject_connection_quota", "StreamRejectConnectionQuota"},
      {"reject_poisoned", "StreamRejectPoisoned"},
      {"ack_interval", "StreamAckInterval"},
      {"meta_max_key", "StreamMetaMaxKey"},
      {"control_version", "ControlProtocolVersion"},
      {"control_max_command_bytes", "ControlMaxCommandBytes"},
      {"control_status_ok", "ControlStatusOk"},
      {"control_status_error", "ControlStatusError"},
  };
  for (const auto &E : Entries) {
    std::string Value = constantSum(Toks, E.Name);
    if (!Value.empty())
      Out << E.Label << " " << Value << "\n";
  }

  Out << "magic " << magicByteList(File.Content, "StreamMagic") << "\n"
      << "control_magic "
      << magicByteList(File.Content, "ControlMagic") << "\n";

  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(tokenFingerprint(Toks)));
  Out << "token_fingerprint " << Buf << "\n";
  return Out.str();
}

namespace {

/// The "version <n>" line of a manifest text; empty when absent.
std::string manifestVersion(const std::string &Manifest) {
  std::istringstream In(Manifest);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.compare(0, 8, "version ") == 0)
      return Line.substr(8);
  return std::string();
}

void checkWireFormat(const SourceFile &File, const LintContext &Ctx,
                     std::vector<Diagnostic> &Out) {
  if (File.baseName() != "TraceFormat.h")
    return;
  std::string Current = traceFormatManifest(File);
  if (Current.empty()) {
    Out.push_back(Diagnostic{
        File.Path, 1, "wire-format",
        "TraceFormat.h no longer defines the normative constants "
        "(Version/HeaderFlags/HeaderSize/RecordPrefixSize) the "
        "wire-format manifest asserts"});
    return;
  }

  std::string ManifestPath = Ctx.ManifestPath.empty()
                                 ? "src/lint/trace_format.manifest"
                                 : Ctx.ManifestPath;
  if (!Ctx.Root.empty() && ManifestPath.front() != '/')
    ManifestPath = Ctx.Root + "/" + ManifestPath;

  if (Ctx.UpdateManifest) {
    std::ofstream OutFile(ManifestPath, std::ios::trunc);
    OutFile << Current;
    return;
  }

  std::ifstream In(ManifestPath);
  if (!In) {
    Out.push_back(Diagnostic{
        File.Path, 1, "wire-format",
        "wire-format manifest '" + ManifestPath +
            "' is missing; generate it with pasta-lint "
            "--update-manifest and check it in"});
    return;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Checked = Buf.str();
  if (Checked == Current)
    return;

  if (manifestVersion(Checked) == manifestVersion(Current))
    Out.push_back(Diagnostic{
        File.Path, 1, "wire-format",
        "TraceFormat.h changed without a version bump: traces already "
        "captured would be misread — bump trace::Version, then "
        "regenerate the manifest with pasta-lint --update-manifest"});
  else
    Out.push_back(Diagnostic{
        File.Path, 1, "wire-format",
        "trace::Version was bumped but the manifest is stale; "
        "regenerate it with pasta-lint --update-manifest and check "
        "the new layout in alongside the bump"});
}

void checkStreamEnvelope(const SourceFile &File, const LintContext &Ctx,
                         std::vector<Diagnostic> &Out) {
  if (File.baseName() != "StreamEnvelope.h")
    return;
  std::string Current = streamEnvelopeManifest(File);
  if (Current.empty()) {
    Out.push_back(Diagnostic{
        File.Path, 1, "stream-envelope",
        "StreamEnvelope.h no longer defines the normative constants "
        "(StreamProtocolVersion/StreamHelloFlags/StreamHelloFixedSize/"
        "StreamFrameHeaderSize) the stream-envelope manifest asserts"});
    return;
  }

  std::string ManifestPath = Ctx.StreamManifestPath.empty()
                                 ? "src/lint/stream_envelope.manifest"
                                 : Ctx.StreamManifestPath;
  if (!Ctx.Root.empty() && ManifestPath.front() != '/')
    ManifestPath = Ctx.Root + "/" + ManifestPath;

  if (Ctx.UpdateManifest) {
    std::ofstream OutFile(ManifestPath, std::ios::trunc);
    OutFile << Current;
    return;
  }

  std::ifstream In(ManifestPath);
  if (!In) {
    Out.push_back(Diagnostic{
        File.Path, 1, "stream-envelope",
        "stream-envelope manifest '" + ManifestPath +
            "' is missing; generate it with pasta-lint "
            "--update-manifest and check it in"});
    return;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Checked = Buf.str();
  if (Checked == Current)
    return;

  if (manifestVersion(Checked) == manifestVersion(Current))
    Out.push_back(Diagnostic{
        File.Path, 1, "stream-envelope",
        "StreamEnvelope.h changed without a version bump: peers "
        "already deployed would reject or misread the session framing "
        "— bump serve::StreamProtocolVersion, then regenerate the "
        "manifest with pasta-lint --update-manifest"});
  else
    Out.push_back(Diagnostic{
        File.Path, 1, "stream-envelope",
        "serve::StreamProtocolVersion was bumped but the manifest is "
        "stale; regenerate it with pasta-lint --update-manifest and "
        "check the new layout in alongside the bump"});
}

} // namespace

const std::vector<Rule> &rules() {
  static const std::vector<Rule> Table = {
      {"tool-payload-handles",
       "no raw KernelDesc*/TensorInfo* members in Tool subclasses; "
       "keep PayloadString/PayloadStack or owned shared_ptr handles",
       checkToolPayloadHandles},
      {"no-nondeterminism",
       "rand/random_device/time()-style nondeterminism is banned; "
       "replay and report determinism depend on seeded PRNGs and "
       "event timestamps",
       checkNondeterminism},
      {"hot-path-memory-order",
       "atomics in EventArena/EventProcessor must name an "
       "explicit std::memory_order (no defaulted seq_cst)",
       checkHotPathMemoryOrder},
      {"header-hygiene",
       "headers carry '#pragma once' or an include guard and never "
       "'using namespace'",
       checkHeaderHygiene},
      {"wire-format",
       "TraceFormat.h must match the checked-in wire-format manifest; "
       "layout changes require a version bump",
       checkWireFormat},
      {"stream-envelope",
       "StreamEnvelope.h must match the checked-in stream-envelope "
       "manifest; framing changes require a protocol version bump",
       checkStreamEnvelope},
  };
  return Table;
}

std::string Diagnostic::str() const {
  return Path + ":" + std::to_string(Line) + ": error: " + Message +
         " [" + RuleId + "]";
}

std::vector<Diagnostic> lintFile(const SourceFile &File,
                                 const LintContext &Ctx) {
  std::vector<Diagnostic> Out;
  for (const Rule &R : rules()) {
    if (File.suppresses(R.Id))
      continue;
    R.Check(File, Ctx, Out);
  }
  std::stable_sort(Out.begin(), Out.end(),
                   [](const Diagnostic &A, const Diagnostic &B) {
                     return A.Line < B.Line;
                   });
  return Out;
}

std::vector<Diagnostic> lintString(const std::string &Path,
                                   const std::string &Content,
                                   const LintContext &Ctx) {
  return lintFile(lex(Path, Content), Ctx);
}

} // namespace lint
} // namespace pasta
