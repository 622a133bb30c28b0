//===- pasta/CallStack.h - Cross-layer call stacks --------------*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-level inefficiency location utilities (paper §III-F2, Fig. 4):
/// PASTA combines the Python-side stack (CPython PyFrame in the real
/// system; provided by the DL framework callbacks here) with C/C++ frames
/// (libbacktrace in the real system; synthesized per kernel family here)
/// into a single cross-layer stack — the view neither Nsight Systems
/// (C++ only) nor the PyTorch Profiler (Python only) can give.
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_PASTA_CALLSTACK_H
#define PASTA_PASTA_CALLSTACK_H

#include "pasta/EventArena.h"

#include <mutex>
#include <string>
#include <vector>

namespace pasta {

/// One frame of a cross-layer stack.
struct StackFrame {
  enum class Lang { Python, Cpp } Language = Lang::Cpp;
  std::string Text; ///< "file:line symbol" rendering.
};

/// Full cross-layer stack, innermost (device-adjacent C++) first.
struct CrossLayerStack {
  std::vector<StackFrame> Frames;

  /// Multi-line rendering matching the paper's Fig. 4 layout (C/C++
  /// frames first, Python frames below).
  std::string str() const;
};

/// Builds cross-layer stacks. The event processor feeds it the current
/// Python stack on every OperatorStart; capture() synthesizes the C++
/// frames leading to a given kernel (the libbacktrace role).
///
/// Thread-safe: the processor updates the context at admission under its
/// dispatch mutex, while a tool may capture outside it (from onFinish,
/// say), so the Python context is guarded internally.
///
/// The context is held as a shared immutable PayloadStack handle, so
/// updating it is a reference-count bump, not a frame-vector copy.
class CallStackBuilder {
public:
  void setPythonStack(PayloadStack Frames) {
    std::lock_guard<std::mutex> Lock(Mutex);
    PythonFrames = std::move(Frames);
  }
  PayloadStack pythonStack() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return PythonFrames;
  }

  /// Synthesizes the full cross-layer stack for \p KernelName using the
  /// current Python context.
  CrossLayerStack capture(const std::string &KernelName) const;

private:
  mutable std::mutex Mutex;
  PayloadStack PythonFrames;
};

} // namespace pasta

#endif // PASTA_PASTA_CALLSTACK_H
