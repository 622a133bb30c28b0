//===- tests/TestSession.h - Session helper for tests -----------*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef PASTA_TESTS_TESTSESSION_H
#define PASTA_TESTS_TESTSESSION_H

#include "pasta/Session.h"

#include <cstdio>
#include <cstdlib>
#include <memory>

namespace pasta {
namespace test {

/// Builds the session \p Builder describes. Tests only configure valid
/// sessions, so a build error prints the SessionBuilder diagnostic and
/// aborts the test process.
inline std::unique_ptr<Session> buildSession(SessionBuilder &Builder) {
  SessionError Err;
  std::unique_ptr<Session> S = Builder.build(Err);
  if (!S) {
    std::fprintf(stderr, "session build failed: %s\n",
                 Err.message().c_str());
    std::abort();
  }
  return S;
}

} // namespace test
} // namespace pasta

#endif // PASTA_TESTS_TESTSESSION_H
