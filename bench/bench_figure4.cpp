//===- bench/bench_figure4.cpp - cross-layer call stack -------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Reproduces paper Fig. 4: the cross-layer (Python + C/C++) call stack of
// the kernel with the highest memory reference count during BERT
// inference, selected by the MAX_MEM_REFERENCED_KERNEL knob. The paper's
// example resolves to at::cuda::blas::gemm_and_bias under the BERT
// feed-forward Python frames.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "support/Env.h"
#include "tools/WorkingSetTool.h"

using namespace pasta;
using namespace pasta::tools;

int main() {
  bench::banner(
      "Cross-layer call stack of the most memory-referenced kernel (BERT)",
      "paper Figure 4");
  setEnvOverride("MAX_MEM_REFERENCED_KERNEL", "1");

  SessionBuilder Builder;
  Builder.tool("working_set").backend("cs-gpu").gpu("A100").model("bert");
  std::unique_ptr<Session> S = bench::buildSession(Builder);
  S->run();
  auto *Ws = S->toolAs<WorkingSetTool>("working_set");

  std::printf("\nkernel with the highest memory reference count: %s\n\n%s",
              Ws->maxReferencedKernel().c_str(),
              Ws->maxReferencedStack().str().c_str());
  std::printf("\npaper Fig. 4 resolves the same selection to "
              "at::cuda::blas::gemm_and_bias through the PyTorch linear "
              "module and the BERT feed-forward Python frames.\n");
  return 0;
}
