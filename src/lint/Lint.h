//===- lint/Lint.h - pasta-lint core ----------------------------*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contract-enforcement static checker behind `pasta-lint`
/// (docs/VALIDATION.md is the narrative spec). A deliberately small,
/// dependency-free C++ lexer plus a table of project-specific rules the
/// CI gates on: payload-handle hygiene, determinism bans, explicit
/// memory orders on the admission hot path, header hygiene, and the
/// trace wire-format manifest.
///
/// The checker is token-based, not a real parser: each rule pattern-
/// matches the token stream (comments and string literals already
/// stripped by the lexer), which is exact enough for the house style
/// this repo enforces everywhere and keeps the whole binary self-
/// contained — no clang tooling, no external deps, fast enough to run
/// as a CTest test on every build.
///
/// Suppressions are per file: a comment anywhere in a file of the form
///
///   // pasta-lint: allow(rule-id, other-rule-id)
///
/// disables the named rules for that file (the lexer records the
/// comment, the engine applies it before reporting). Every suppression
/// should say why on the same line.
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_LINT_LINT_H
#define PASTA_LINT_LINT_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace pasta {
namespace lint {

//===----------------------------------------------------------------------===//
// Tokens
//===----------------------------------------------------------------------===//

/// What a lexed token is. String/char literals survive as single tokens
/// (rules never need their contents); comments are diverted into
/// SourceFile::Suppressions/Comments instead of the token stream.
enum class TokenKind : std::uint8_t {
  Identifier,   ///< identifiers and keywords ("class", "subscription", ...)
  Number,       ///< integer / floating literals (value kept as text)
  String,       ///< "...", '...', R"(...)" — contents opaque
  Punctuation,  ///< one token per punctuation character ("::" is two)
  Preprocessor, ///< one token per directive line, text = whole line
};

/// One lexed token; Text is a view into the file's content for
/// identifiers and numbers, a canonical spelling otherwise.
struct Token {
  TokenKind Kind = TokenKind::Punctuation;
  std::string Text;
  unsigned Line = 0;

  bool is(const char *S) const { return Text == S; }
  bool isIdent(const char *S) const {
    return Kind == TokenKind::Identifier && Text == S;
  }
};

/// One `// pasta-lint: allow(...)` comment, expanded to the rule ids it
/// names.
struct Suppression {
  std::vector<std::string> RuleIds;
  unsigned Line = 0;
};

/// A lexed source file as the rules see it.
struct SourceFile {
  /// Path as reported in diagnostics (repo-relative when the driver
  /// walks a root).
  std::string Path;
  /// Raw content (the wire-format rule re-reads constant values).
  std::string Content;
  std::vector<Token> Tokens;
  std::vector<Suppression> Suppressions;

  bool isHeader() const {
    return Path.size() > 2 && Path.compare(Path.size() - 2, 2, ".h") == 0;
  }
  /// Path's last component ("EventArena.h").
  std::string baseName() const;
  /// True when a suppression names \p RuleId (file-wide).
  bool suppresses(const std::string &RuleId) const;
};

/// Lexes \p Content into tokens + suppression comments. Never fails:
/// malformed trailing constructs lex as best-effort tokens (the linter
/// runs on code the compiler already accepted).
SourceFile lex(std::string Path, std::string Content);

//===----------------------------------------------------------------------===//
// Diagnostics and rules
//===----------------------------------------------------------------------===//

/// One finding: file:line plus the violated rule.
struct Diagnostic {
  std::string Path;
  unsigned Line = 0;
  std::string RuleId;
  std::string Message;

  /// "path:line: error: message [rule-id]" — the gcc-style shape
  /// editors and CI annotate from.
  std::string str() const;
};

/// Everything a rule may look at beyond the file itself.
struct LintContext {
  /// Repo root the relative diagnostics are anchored at.
  std::string Root;
  /// The wire-format manifest path (root-relative default:
  /// src/lint/trace_format.manifest).
  std::string ManifestPath;
  /// The stream-envelope manifest path (root-relative default:
  /// src/lint/stream_envelope.manifest).
  std::string StreamManifestPath;
  /// When set, the manifest rules rewrite their manifests instead of
  /// diffing against them (pasta-lint --update-manifest).
  bool UpdateManifest = false;
};

/// One registered rule: id, what it enforces, and the check itself.
struct Rule {
  std::string Id;
  std::string Description;
  std::function<void(const SourceFile &, const LintContext &,
                     std::vector<Diagnostic> &)>
      Check;
};

/// The rule table (stable id order). Built once; tests index it by id.
const std::vector<Rule> &rules();

/// Runs every non-suppressed rule over \p File. Diagnostics from rules
/// the file suppresses are dropped here, not in the rules.
std::vector<Diagnostic> lintFile(const SourceFile &File,
                                 const LintContext &Ctx);

/// Convenience for tests: lex + lint an in-memory buffer.
std::vector<Diagnostic> lintString(const std::string &Path,
                                   const std::string &Content,
                                   const LintContext &Ctx = LintContext());

//===----------------------------------------------------------------------===//
// Wire-format manifest
//===----------------------------------------------------------------------===//

/// Serializes the normative constants of a lexed TraceFormat.h (magic,
/// version, flags, sizes, record tags) into the canonical manifest text
/// the wire-format rule diffs against. Empty string when the file does
/// not look like the trace-format header (missing constants).
std::string traceFormatManifest(const SourceFile &File);

/// Serializes the normative constants of a lexed StreamEnvelope.h
/// (magics, protocol versions, frame/message sizes, message and reject
/// codes) into the canonical manifest text the stream-envelope rule
/// diffs against. Empty string when the file does not look like the
/// stream-envelope header (missing constants).
std::string streamEnvelopeManifest(const SourceFile &File);

//===----------------------------------------------------------------------===//
// Driver entry point
//===----------------------------------------------------------------------===//

/// Lints every .h/.cpp under \p Paths (files or directories, resolved
/// against \p Ctx.Root when relative), appending diagnostics. Returns
/// false when a path cannot be read (reported to stderr).
bool lintPaths(const std::vector<std::string> &Paths, const LintContext &Ctx,
               std::vector<Diagnostic> &Out);

} // namespace lint
} // namespace pasta

#endif // PASTA_LINT_LINT_H
