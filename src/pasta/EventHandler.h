//===- pasta/EventHandler.h - Vendor/framework attachment -------*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The PASTA event handler (paper §III-B): subscribes to the low-level
/// vendor profiling interfaces (Compute Sanitizer callbacks, NVBit events,
/// ROCprofiler records) and the high-level DL framework callbacks, and
/// normalizes every source into the unified Event model before handing it
/// to the event processor. All vendor quirks die here: AMD's negative
/// deallocation deltas become positive MemoryFree sizes, microsecond
/// ticks become nanoseconds, "dispatches" become kernel launches.
///
/// With the asynchronous pipeline enabled, the threads running these
/// callbacks are the producer side of the processor's bounded event
/// queue: EventProcessor::process() returns after admission, and the
/// dispatch thread pays the tool-analysis cost instead of the caller.
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_PASTA_EVENTHANDLER_H
#define PASTA_PASTA_EVENTHANDLER_H

#include "cuda/CudaRuntime.h"
#include "dl/Callbacks.h"
#include "hip/HipRuntime.h"
#include "pasta/EventProcessor.h"

#include <cstdint>
#include <vector>

namespace pasta {

/// Which profiling library provides fine-grained device tracing — the
/// backend choice of paper §III-D (Sanitizer vs NVBit) and Fig. 8/9.
enum class TraceBackend {
  /// No device-side instrumentation; host callbacks only.
  None,
  /// Sanitizer patching + PASTA's GPU-resident analysis (CS-GPU).
  SanitizerGpu,
  /// Sanitizer patching + conventional host-side analysis (CS-CPU).
  SanitizerCpu,
  /// NVBit full-SASS instrumentation + host-side analysis (NVBIT-CPU).
  NvbitCpu,
};

const char *traceBackendName(TraceBackend Backend);

/// Fine-grained tracing configuration.
struct TraceOptions {
  TraceBackend Backend = TraceBackend::None;
  std::uint64_t DeviceBufferRecords = 1u << 20;
  /// Analogue of the paper artifact's ACCEL_PROF_ENV_SAMPLE_RATE.
  double SampleRate = 1.0;
  std::uint64_t RecordGranularityBytes = 4096;
};

/// Subscribes to vendor + framework hooks and normalizes into Events.
///
/// Lifetime: attached runtimes must outlive this handler, or detach()
/// must be called while they are still alive (Session::finish() does).
class EventHandler {
public:
  explicit EventHandler(EventProcessor &Processor);
  ~EventHandler();

  EventHandler(const EventHandler &) = delete;
  EventHandler &operator=(const EventHandler &) = delete;

  /// Attaches to an NVIDIA runtime: Sanitizer host callbacks on all
  /// domains, plus device tracing per \p Opts on \p DeviceIndex.
  void attachCuda(cuda::CudaRuntime &Runtime, int DeviceIndex,
                  const TraceOptions &Opts = TraceOptions());

  /// Attaches to an AMD runtime via ROCprofiler. NVBit backends are
  /// rejected (NVIDIA-only, as in reality).
  void attachHip(hip::HipRuntime &Runtime, int AgentIndex,
                 const TraceOptions &Opts = TraceOptions());

  /// Attaches to a DL framework session (reportMemoryUsage +
  /// RecordFunction callbacks).
  void attachDl(dl::CallbackRegistry &Callbacks);

  /// Detaches device tracing from every attached runtime.
  void detach();

private:
  void handleSanitizer(const cuda::SanitizerCallbackData &Data);
  void handleRocprofiler(int RuntimeSlot,
                         const hip::RocprofilerRecord &Record);

  EventProcessor &Processor;
  struct CudaAttachment {
    cuda::CudaRuntime *Runtime = nullptr;
    int DeviceIndex = 0;
    cuda::SanitizerSubscriber Subscriber = 0;
    TraceBackend Backend = TraceBackend::None;
  };
  struct HipAttachment {
    hip::HipRuntime *Runtime = nullptr;
    int AgentIndex = 0;
    TraceBackend Backend = TraceBackend::None;
  };
  std::vector<CudaAttachment> CudaAttachments;
  std::vector<HipAttachment> HipAttachments;
};

} // namespace pasta

#endif // PASTA_PASTA_EVENTHANDLER_H
