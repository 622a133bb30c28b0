//===- pasta/Events.h - Unified event taxonomy ------------------*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PASTA's normalized event model — the paper's Table II. Three levels:
///
///  * coarse-grained host-called API events (driver/runtime functions,
///    kernel launches, memory copies/sets, synchronization, resource and
///    batch-memory operations),
///  * fine-grained device-side operations (thread-block entry/exit,
///    global/shared memory accesses, barriers, device malloc/free, ...),
///    which arrive as high-volume record batches rather than individual
///    Events, and
///  * high-level DL framework events (operator start/end, tensor
///    allocation/reclamation, layer and forward/backward boundaries,
///    custom annotated regions).
///
/// Whatever the vendor source (Sanitizer, NVBit, ROCprofiler) or the
/// framework, events are normalized into this one shape: positive sizes,
/// nanosecond timestamps, uniform naming.
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_PASTA_EVENTS_H
#define PASTA_PASTA_EVENTS_H

#include "dl/Callbacks.h"
#include "pasta/EventArena.h"
#include "sim/GpuSpec.h"
#include "sim/Kernel.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pasta {

/// Table II, first column.
enum class EventLevel : std::uint8_t {
  HostApi,     ///< Coarse-grained host-called API events.
  DeviceOp,    ///< Fine-grained device-side operations.
  DlFramework, ///< High-level DL framework events.
};

/// Table II, second column (the subset that arrives as discrete Events;
/// per-instruction device operations flow through record batches).
enum class EventKind : std::uint8_t {
  // Host API events.
  DriverFunction,
  RuntimeFunction,
  Synchronization,
  KernelLaunch,
  KernelComplete,
  MemoryCopy,
  MemorySet,
  MemoryAlloc,   ///< resource operation: allocation
  MemoryFree,    ///< resource operation: release
  StreamCreate,  ///< resource operation: stream
  StreamDestroy,
  BatchMemoryOp, ///< cudaMemPrefetchAsync / cudaMemAdvise style
  // Device-side operations surfaced as discrete events.
  ThreadBlockEntry,
  ThreadBlockExit,
  BarrierInstruction,
  DeviceMalloc,
  DeviceFree,
  // DL framework events.
  OperatorStart,
  OperatorEnd,
  TensorAlloc,
  TensorReclaim,
  LayerBoundary,
  FwdBwdBoundary,
  CustomRegion,
};

/// Number of EventKind enumerators (dispatch tables and subscription
/// masks are sized by this; must track the enum above).
inline constexpr std::size_t NumEventKinds =
    static_cast<std::size_t>(EventKind::CustomRegion) + 1;
static_assert(NumEventKinds < 64,
              "EventKindMask packs kinds into a 64-bit word and "
              "EventKindMask::all() shifts by NumEventKinds");

/// Human-readable kind name ("KernelLaunch", ...).
const char *eventKindName(EventKind Kind);

/// The taxonomy level a kind belongs to.
EventLevel eventLevel(EventKind Kind);

/// Loss tolerance of a kind under queue overflow. Resource events build
/// the allocation/tensor view every other analysis keys off; dropping or
/// sampling one desynchronizes tool state for the rest of the run, so
/// the pipeline always admits them (they wait for space like Block).
/// Barrier events additionally flush the pipeline.
enum class AdmissionClass : std::uint8_t {
  Standard, ///< subject to the configured overflow policy
  Resource, ///< never dropped or sampled out (alloc/free/tensor/stream)
  Barrier,  ///< never lost and a hard flush barrier (Synchronization)
};

/// The admission class a kind belongs to.
AdmissionClass eventAdmissionClass(EventKind Kind);

/// Copy directions normalized across vendors.
enum class CopyDirection : std::uint8_t {
  HostToDevice,
  DeviceToHost,
  DeviceToDevice,
};

/// One normalized runtime event.
struct Event {
  EventKind Kind = EventKind::RuntimeFunction;
  sim::VendorKind Vendor = sim::VendorKind::NVIDIA;
  int DeviceIndex = 0;
  std::uint32_t Stream = 0;
  /// Nanoseconds (AMD microsecond ticks are converted by the handler).
  SimTime Timestamp = 0;

  /// Memory events: always positive sizes (the handler folds AMD's
  /// negative-delta frees into MemoryFree/TensorReclaim).
  sim::DeviceAddr Address = 0;
  std::uint64_t Bytes = 0;
  bool Managed = false;
  CopyDirection Direction = CopyDirection::HostToDevice;

  /// Kernel events.
  const sim::KernelDesc *Kernel = nullptr;
  std::uint64_t GridId = 0;

  /// DL framework events. The string payloads are shared immutable
  /// handles (see EventArena.h): copying an Event bumps reference counts
  /// instead of duplicating bytes, which is what makes multi-lane
  /// fan-out zero-copy.
  const dl::TensorInfo *Tensor = nullptr;
  std::uint64_t PoolAllocated = 0;
  std::uint64_t PoolReserved = 0;
  PayloadString OpName;
  PayloadString LayerName;
  dl::ExecPhase Phase = dl::ExecPhase::Forward;
  PayloadStack PythonStack;

  /// Pins \p K as this event's kernel descriptor: the borrowed pointer
  /// is redirected to the shared copy. Used by EventArena::intern.
  void adoptKernel(std::shared_ptr<const sim::KernelDesc> K) {
    OwnedKernel = std::move(K);
    Kernel = OwnedKernel.get();
  }
  /// Tensor-descriptor equivalent of adoptKernel.
  void adoptTensor(std::shared_ptr<const dl::TensorInfo> T) {
    OwnedTensor = std::move(T);
    Tensor = OwnedTensor.get();
  }
  /// Non-null when the kernel pointee is owned (pinned or interned);
  /// lanes sharing one admitted event share this very handle.
  const std::shared_ptr<const sim::KernelDesc> &ownedKernel() const {
    return OwnedKernel;
  }
  /// Tensor-descriptor equivalent of ownedKernel.
  const std::shared_ptr<const dl::TensorInfo> &ownedTensor() const {
    return OwnedTensor;
  }

private:
  std::shared_ptr<const sim::KernelDesc> OwnedKernel;
  std::shared_ptr<const dl::TensorInfo> OwnedTensor;
};

} // namespace pasta

#endif // PASTA_PASTA_EVENTS_H
