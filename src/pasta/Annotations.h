//===- pasta/Annotations.h - Listing-1-style region API ---------*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The user-facing annotation API of the paper's Listing 1. In the real
/// system `import pasta; pasta.start(); ...; pasta.stop()` is exported
/// through pybind11; here the same minimal, non-intrusive surface is a
/// pair of calls on the Session plus an RAII guard:
///
/// \code
///   {
///     pasta::ScopedRegion Region(*S);   // pasta.start()
///     model.transformer_layer();        // targeted region
///   }                                   // pasta.stop()
/// \endcode
///
/// Once any region is opened, analysis outside regions is suppressed
/// (kernel-scoped events and device records are dropped by the range
/// filter), enabling layer-wise or forward/backward-scoped analysis with
/// no logging infrastructure or execution-context changes.
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_PASTA_ANNOTATIONS_H
#define PASTA_PASTA_ANNOTATIONS_H

#include "pasta/Session.h"

namespace pasta {

/// RAII pasta.start()/pasta.stop() pair; nestable.
class ScopedRegion {
public:
  explicit ScopedRegion(Session &S) : S(S) { S.start(); }
  ~ScopedRegion() { S.stop(); }

  ScopedRegion(const ScopedRegion &) = delete;
  ScopedRegion &operator=(const ScopedRegion &) = delete;

private:
  Session &S;
};

} // namespace pasta

#endif // PASTA_PASTA_ANNOTATIONS_H
