//===- pasta/Events.cpp ---------------------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pasta/Events.h"

#include "support/ErrorHandling.h"

using namespace pasta;

const char *pasta::eventKindName(EventKind Kind) {
  switch (Kind) {
  case EventKind::DriverFunction:
    return "DriverFunction";
  case EventKind::RuntimeFunction:
    return "RuntimeFunction";
  case EventKind::Synchronization:
    return "Synchronization";
  case EventKind::KernelLaunch:
    return "KernelLaunch";
  case EventKind::KernelComplete:
    return "KernelComplete";
  case EventKind::MemoryCopy:
    return "MemoryCopy";
  case EventKind::MemorySet:
    return "MemorySet";
  case EventKind::MemoryAlloc:
    return "MemoryAlloc";
  case EventKind::MemoryFree:
    return "MemoryFree";
  case EventKind::StreamCreate:
    return "StreamCreate";
  case EventKind::StreamDestroy:
    return "StreamDestroy";
  case EventKind::BatchMemoryOp:
    return "BatchMemoryOp";
  case EventKind::ThreadBlockEntry:
    return "ThreadBlockEntry";
  case EventKind::ThreadBlockExit:
    return "ThreadBlockExit";
  case EventKind::BarrierInstruction:
    return "BarrierInstruction";
  case EventKind::DeviceMalloc:
    return "DeviceMalloc";
  case EventKind::DeviceFree:
    return "DeviceFree";
  case EventKind::OperatorStart:
    return "OperatorStart";
  case EventKind::OperatorEnd:
    return "OperatorEnd";
  case EventKind::TensorAlloc:
    return "TensorAlloc";
  case EventKind::TensorReclaim:
    return "TensorReclaim";
  case EventKind::LayerBoundary:
    return "LayerBoundary";
  case EventKind::FwdBwdBoundary:
    return "FwdBwdBoundary";
  case EventKind::CustomRegion:
    return "CustomRegion";
  }
  PASTA_UNREACHABLE("unknown EventKind");
}

EventLevel pasta::eventLevel(EventKind Kind) {
  switch (Kind) {
  case EventKind::DriverFunction:
  case EventKind::RuntimeFunction:
  case EventKind::Synchronization:
  case EventKind::KernelLaunch:
  case EventKind::KernelComplete:
  case EventKind::MemoryCopy:
  case EventKind::MemorySet:
  case EventKind::MemoryAlloc:
  case EventKind::MemoryFree:
  case EventKind::StreamCreate:
  case EventKind::StreamDestroy:
  case EventKind::BatchMemoryOp:
    return EventLevel::HostApi;
  case EventKind::ThreadBlockEntry:
  case EventKind::ThreadBlockExit:
  case EventKind::BarrierInstruction:
  case EventKind::DeviceMalloc:
  case EventKind::DeviceFree:
    return EventLevel::DeviceOp;
  case EventKind::OperatorStart:
  case EventKind::OperatorEnd:
  case EventKind::TensorAlloc:
  case EventKind::TensorReclaim:
  case EventKind::LayerBoundary:
  case EventKind::FwdBwdBoundary:
  case EventKind::CustomRegion:
    return EventLevel::DlFramework;
  }
  PASTA_UNREACHABLE("unknown EventKind");
}
