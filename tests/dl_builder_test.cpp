//===- tests/dl_builder_test.cpp - schedule builder / model zoo tests -----===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "dl/Builder.h"
#include "dl/Models.h"

#include <gtest/gtest.h>

#include <map>
#include <ostream>
#include <set>

using namespace pasta;
using namespace pasta::dl;

namespace {

/// Structural validation every lowered Program must satisfy.
void validateProgram(const Program &Prog) {
  std::vector<int> Live(Prog.Tensors.size(), 0);
  int OpenOps = 0, OpenIters = 0;
  for (std::size_t I = 0; I < Prog.Steps.size(); ++I) {
    const Step &S = Prog.Steps[I];
    switch (S.Kind) {
    case StepKind::Alloc:
      ASSERT_LT(S.Tensor, Prog.Tensors.size());
      EXPECT_EQ(Live[S.Tensor], 0) << "double alloc at step " << I << ": "
                                   << Prog.Tensors[S.Tensor].Name;
      ++Live[S.Tensor];
      break;
    case StepKind::Free:
      EXPECT_EQ(Live[S.Tensor], 1) << "free of dead tensor at step " << I;
      --Live[S.Tensor];
      break;
    case StepKind::Kernel:
      EXPECT_FALSE(S.Kernel.Name.empty());
      EXPECT_FALSE(S.Kernel.Uses.empty());
      for (const KernelUse &Use : S.Kernel.Uses) {
        ASSERT_LT(Use.Tensor, Prog.Tensors.size());
        EXPECT_EQ(Live[Use.Tensor], 1)
            << "kernel " << S.Kernel.Name << " uses dead tensor "
            << Prog.Tensors[Use.Tensor].Name << " at step " << I;
        EXPECT_GT(Use.Reuse, 0.0);
      }
      break;
    case StepKind::OpBegin:
      ++OpenOps;
      break;
    case StepKind::OpEnd:
      --OpenOps;
      EXPECT_GE(OpenOps, 0);
      break;
    case StepKind::IterBegin:
      ++OpenIters;
      break;
    case StepKind::IterEnd:
      --OpenIters;
      break;
    default:
      break;
    }
  }
  EXPECT_EQ(OpenOps, 0) << "unbalanced op markers";
  EXPECT_EQ(OpenIters, 0) << "unbalanced iteration markers";
  for (std::size_t T = 0; T < Prog.Tensors.size(); ++T)
    EXPECT_EQ(Live[T], 0) << "leaked tensor " << Prog.Tensors[T].Name;
}

} // namespace

TEST(BuilderTest, LinearProducesGemm) {
  ScheduleBuilder B("m", {});
  SymTensor W = B.weight("w", TensorShape({64, 32}));
  SymTensor Bias = B.weight("b", TensorShape({64}));
  B.beginIteration();
  SymTensor X = B.input("x", TensorShape({8, 32}));
  B.linear("fc", X, W, Bias, 64);
  B.endIteration();
  Program Prog = B.finish();
  bool SawGemm = false;
  for (const Step &S : Prog.Steps)
    if (S.Kind == StepKind::Kernel &&
        S.Kernel.Name.find("sgemm") != std::string::npos)
      SawGemm = true;
  EXPECT_TRUE(SawGemm);
  validateProgram(Prog);
}

TEST(BuilderTest, MiopenLinearEmitsSeparateBiasKernel) {
  auto CountKernels = [](KernelFlavor Flavor) {
    ScheduleBuilder::Options Opts;
    Opts.Flavor = Flavor;
    ScheduleBuilder B("m", Opts);
    SymTensor W = B.weight("w", TensorShape({64, 32}));
    SymTensor Bias = B.weight("b", TensorShape({64}));
    B.beginIteration();
    SymTensor X = B.input("x", TensorShape({8, 32}));
    B.linear("fc", X, W, Bias, 64);
    B.endIteration();
    return B.finish().numKernels();
  };
  EXPECT_GT(CountKernels(KernelFlavor::Miopen),
            CountKernels(KernelFlavor::Cudnn));
}

TEST(BuilderTest, Conv3x3Stride1UsesWinogradOnCudnn) {
  ScheduleBuilder B("m", {});
  SymTensor W = B.weight("w", TensorShape({16, 8, 3, 3}));
  B.beginIteration();
  SymTensor X = B.input("x", TensorShape({2, 8, 16, 16}));
  B.conv2d("conv", X, W, NoTensor, 16, 3, 1, 1, false);
  B.endIteration();
  Program Prog = B.finish();
  bool SawWinograd = false, SawIm2col = false;
  for (const Step &S : Prog.Steps) {
    if (S.Kind != StepKind::Kernel)
      continue;
    SawWinograd |= S.Kernel.Name.find("winograd") != std::string::npos;
    SawIm2col |= S.Kernel.Name.find("im2col") != std::string::npos;
  }
  EXPECT_TRUE(SawWinograd);
  EXPECT_FALSE(SawIm2col);
}

TEST(BuilderTest, LargeKernelConvUsesIm2col) {
  ScheduleBuilder B("m", {});
  SymTensor W = B.weight("w", TensorShape({16, 8, 5, 5}));
  B.beginIteration();
  SymTensor X = B.input("x", TensorShape({2, 8, 16, 16}));
  B.conv2d("conv", X, W, NoTensor, 16, 5, 1, 2, false);
  B.endIteration();
  Program Prog = B.finish();
  bool SawIm2col = false;
  for (const Step &S : Prog.Steps)
    if (S.Kind == StepKind::Kernel &&
        S.Kernel.Name.find("im2col") != std::string::npos)
      SawIm2col = true;
  EXPECT_TRUE(SawIm2col);
}

TEST(BuilderTest, ConvOutputShape) {
  ScheduleBuilder B("m", {});
  SymTensor W = B.weight("w", TensorShape({64, 3, 11, 11}));
  B.beginIteration();
  SymTensor X = B.input("x", TensorShape({4, 3, 224, 224}));
  SymTensor Y = B.conv2d("conv", X, W, NoTensor, 64, 11, 4, 2, false);
  // AlexNet conv1: (224 + 2*2 - 11)/4 + 1 = 55.
  EXPECT_EQ(B.decl(Y).Shape.dims(),
            (std::vector<std::int64_t>{4, 64, 55, 55}));
  B.endIteration();
}

TEST(BuilderTest, WorkspaceFreedAfterConsumingGemm) {
  ScheduleBuilder B("m", {});
  SymTensor W = B.weight("w", TensorShape({16, 8, 5, 5}));
  B.beginIteration();
  SymTensor X = B.input("x", TensorShape({2, 8, 16, 16}));
  SymTensor Y = B.conv2d("conv", X, W, NoTensor, 16, 5, 1, 2, false);
  B.relu("r", Y);
  B.endIteration();
  Program Prog = B.finish();
  // The im2col workspace must be freed before the iteration end (right
  // after the GEMM consumed it).
  std::size_t FreeIdx = 0, IterEndIdx = 0;
  for (std::size_t I = 0; I < Prog.Steps.size(); ++I) {
    const Step &S = Prog.Steps[I];
    if (S.Kind == StepKind::Free &&
        Prog.Tensors[S.Tensor].Role == TensorRole::Workspace)
      FreeIdx = I;
    if (S.Kind == StepKind::IterEnd)
      IterEndIdx = I;
  }
  ASSERT_GT(FreeIdx, 0u);
  EXPECT_LT(FreeIdx, IterEndIdx);
}

TEST(BuilderTest, DropoutSkippedInInference) {
  ScheduleBuilder::Options Infer;
  ScheduleBuilder B("m", Infer);
  B.beginIteration();
  SymTensor X = B.input("x", TensorShape({8, 32}));
  SymTensor Y = B.dropout("drop", X, 0.5);
  EXPECT_EQ(Y, X) << "dropout must be identity in eval mode";
  B.endIteration();
}

TEST(BuilderTest, TrainingEmitsBackwardAndOptimizer) {
  ScheduleBuilder::Options Opts;
  Opts.Training = true;
  ScheduleBuilder B("m", Opts);
  SymTensor W = B.weight("w", TensorShape({10, 32}));
  B.beginIteration();
  SymTensor X = B.input("x", TensorShape({8, 32}));
  SymTensor Logits = B.linear("fc", X, W, NoTensor, 10);
  SymTensor Targets = B.input("t", TensorShape({8}), DataType::I64);
  B.crossEntropyLoss("loss", Logits, Targets);
  B.endIteration();
  Program Prog = B.finish();
  validateProgram(Prog);
  bool SawBackwardPhase = false, SawOptimizer = false;
  for (const Step &S : Prog.Steps) {
    if (S.Kind == StepKind::PhaseBegin &&
        S.Phase == ExecPhase::Backward)
      SawBackwardPhase = true;
    if (S.Kind == StepKind::Kernel &&
        S.Kernel.Name.find("multi_tensor_apply") != std::string::npos)
      SawOptimizer = true;
  }
  EXPECT_TRUE(SawBackwardPhase);
  EXPECT_TRUE(SawOptimizer);
}

TEST(BuilderTest, ResidualFanOutAccumulatesGradients) {
  ScheduleBuilder::Options Opts;
  Opts.Training = true;
  ScheduleBuilder B("m", Opts);
  SymTensor W = B.weight("w", TensorShape({32, 32}));
  B.beginIteration();
  SymTensor X = B.input("x", TensorShape({8, 32}));
  SymTensor H = B.relu("pre", X); // grad fan-out point
  SymTensor Y = B.linear("fc", H, W, NoTensor, 32);
  SymTensor Sum = B.add("res", Y, H); // H used twice
  SymTensor Targets = B.input("t", TensorShape({8}), DataType::I64);
  B.crossEntropyLoss("loss", Sum, Targets);
  B.endIteration();
  Program Prog = B.finish();
  validateProgram(Prog);
  // Gradient accumulation shows up as an extra in-place add kernel in the
  // backward phase.
  int BackwardAdds = 0;
  bool InBackward = false;
  for (const Step &S : Prog.Steps) {
    if (S.Kind == StepKind::PhaseBegin)
      InBackward = S.Phase == ExecPhase::Backward;
    if (InBackward && S.Kind == StepKind::Kernel &&
        S.Kernel.Name.find("CUDAFunctor_add") != std::string::npos)
      ++BackwardAdds;
  }
  EXPECT_GE(BackwardAdds, 1);
}

TEST(BuilderTest, ReshapeIsAllocationFree) {
  ScheduleBuilder B("m", {});
  B.beginIteration();
  SymTensor X = B.input("x", TensorShape({8, 32}));
  SymTensor V = B.reshape(X, TensorShape({4, 64}));
  EXPECT_NE(V, X);
  EXPECT_EQ(B.decl(V).Shape.numel(), B.decl(X).Shape.numel());
  B.endIteration();
  Program Prog = B.finish();
  // The view tensor must never be allocated.
  for (const Step &S : Prog.Steps)
    if (S.Kind == StepKind::Alloc) {
      EXPECT_NE(S.Tensor, V);
    }
}

//===----------------------------------------------------------------------===//
// Model zoo sweeps
//===----------------------------------------------------------------------===//

struct ZooCase {
  const char *Name;
  bool Training;
};

/// gtest would otherwise print the raw bytes of Name's address, which
/// CTest copies into the test name; with address-space randomization that
/// name changed every time the tests were discovered.
void PrintTo(const ZooCase &C, std::ostream *OS) {
  *OS << C.Name << (C.Training ? " training" : " inference");
}

class ModelZooSweep : public ::testing::TestWithParam<ZooCase> {};

TEST_P(ModelZooSweep, ProgramsAreStructurallyValid) {
  ScheduleBuilder::Options Opts;
  Opts.Training = GetParam().Training;
  Opts.Iterations = 1;
  Program Prog = dl::buildModelProgram(GetParam().Name, Opts);
  validateProgram(Prog);
  EXPECT_GT(Prog.numKernels(), 10u);
}

TEST_P(ModelZooSweep, MiopenFlavorLaunchesMoreKernels) {
  ScheduleBuilder::Options Opts;
  Opts.Training = GetParam().Training;
  Opts.Iterations = 1;
  Opts.Flavor = KernelFlavor::Cudnn;
  std::uint64_t Cudnn =
      dl::buildModelProgram(GetParam().Name, Opts).numKernels();
  Opts.Flavor = KernelFlavor::Miopen;
  std::uint64_t Miopen =
      dl::buildModelProgram(GetParam().Name, Opts).numKernels();
  EXPECT_GT(Miopen, Cudnn);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ModelZooSweep,
    ::testing::Values(ZooCase{"alexnet", false}, ZooCase{"alexnet", true},
                      ZooCase{"resnet18", false}, ZooCase{"resnet18", true},
                      ZooCase{"resnet34", false}, ZooCase{"resnet34", true},
                      ZooCase{"gpt2", false}, ZooCase{"gpt2", true},
                      ZooCase{"bert", false}, ZooCase{"bert", true},
                      ZooCase{"whisper", false}, ZooCase{"whisper", true}),
    [](const ::testing::TestParamInfo<ZooCase> &Info) {
      return std::string(Info.param.Name) +
             (Info.param.Training ? "_train" : "_infer");
    });

TEST(ModelZooTest, ConfigLookup) {
  EXPECT_EQ(modelConfigByName("bert").BatchSize, 16);
  EXPECT_EQ(modelConfigByName("GPT-2").Name, "gpt2");
  EXPECT_EQ(modelZoo().size(), 6u);
}

TEST(ModelZooTest, TrainingHasMoreKernelsPerIteration) {
  for (const ModelConfig &Config : modelZoo()) {
    ScheduleBuilder::Options Opts;
    Opts.Iterations = 1;
    Opts.Training = false;
    std::uint64_t Infer =
        dl::buildModelProgram(Config, Opts).numKernels();
    Opts.Training = true;
    std::uint64_t Train =
        dl::buildModelProgram(Config, Opts).numKernels();
    EXPECT_GT(Train, 2 * Infer) << Config.Name;
  }
}

TEST(ModelZooTest, IterationsScaleKernelCountLinearly) {
  ScheduleBuilder::Options Opts;
  Opts.Iterations = 1;
  std::uint64_t One = dl::buildModelProgram("resnet18", Opts).numKernels();
  Opts.Iterations = 3;
  std::uint64_t Three =
      dl::buildModelProgram("resnet18", Opts).numKernels();
  EXPECT_EQ(Three, 3 * One);
}
