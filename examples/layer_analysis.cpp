//===- examples/layer_analysis.cpp - Listing-1 range analysis ---*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Range-specific analysis (paper §III-F1, Listing 1): annotate only one
// targeted region — here the transformer encoder layers of one BERT
// iteration — with pasta.start()/pasta.stop() and analyze just that
// region with the operator-to-kernel mapping tool. The executor hook is
// installed through Session::run's customize callback.
//
//===----------------------------------------------------------------------===//

#include "dl/Executor.h"
#include "pasta/Annotations.h"
#include "pasta/Session.h"
#include "tools/OpKernelMapTool.h"

#include <cstdio>

using namespace pasta;

int main() {
  SessionError Err;
  std::unique_ptr<Session> S = SessionBuilder()
                                   .tool("op_kernel_map")
                                   .gpu("A100")
                                   .model("bert")
                                   .iterations(1)
                                   .build(Err);
  if (!S) {
    std::fprintf(stderr, "error: %s\n", Err.message().c_str());
    return 1;
  }

  // Open+close once so analysis is region-gated from the first kernel.
  { ScopedRegion Prime(*S); }

  // The paper's Listing 1, in C++: bracket only the targeted region. The
  // step listener plays the role of the hand-inserted annotations around
  // self.transformer_layer().
  S->run([&](dl::Executor &Executor) {
    Executor.setStepListener([&](const dl::Step &Step) {
      bool IsEncoder = Step.Name.rfind("encoder.", 0) == 0;
      if (Step.Kind == dl::StepKind::LayerBegin && IsEncoder)
        S->start(); // pasta.start()
      if (Step.Kind == dl::StepKind::LayerEnd && IsEncoder)
        S->stop(); // pasta.stop()
    });
  });

  std::printf("operator -> kernel mapping, encoder layers only:\n\n");
  S->tool("op_kernel_map")->writeReport(stdout);
  std::printf("\nembeddings and classifier-head operators are absent: "
              "analysis was gated to the annotated encoder region.\n");
  return 0;
}
