//===- pasta/Validate.h - Runtime contract validation -----------*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PASTA_VALIDATE — the runtime half of the contract-enforcement layer
/// (pasta-lint is the static half; docs/VALIDATION.md is the narrative
/// spec). The dispatch pipeline declares contracts the type system
/// cannot enforce: a Serial tool's hooks never overlap, events reach a
/// tool only inside its declared EventKindMask, a tool's subscription
/// does not drift after attach, arena payload handles are never used
/// after release. TSan cannot see most of these — two processors
/// delivering to one shared tool under their own locks is not a data
/// race inside either processor, but it is a broken contract — so a
/// Validator checks them dynamically.
///
/// Cost model: validation is a per-processor opt-in (ProcessorOptions::
/// Validate / SessionBuilder::validate() / accelprof --validate /
/// -DPASTA_VALIDATE=ON build default). When off, the pipeline carries
/// one null-pointer test per admission and per dispatch and nothing
/// else — the Validator object does not exist. When on, every delivery
/// takes a short mutex-protected ledger/state path; this is a debugging
/// build mode, not a production default.
///
/// Violations route through a handler: the default prints the
/// diagnostic and aborts (a broken contract means tool state is already
/// corrupt); tests install a collecting handler instead.
///
//===----------------------------------------------------------------------===//

#ifndef PASTA_PASTA_VALIDATE_H
#define PASTA_PASTA_VALIDATE_H

#include "pasta/Events.h"
#include "pasta/Tool.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace pasta {

/// One detected contract violation.
struct ValidationViolation {
  enum class Kind : std::uint8_t {
    /// Two hook invocations of a Serial tool overlapped in time
    /// (reentrancy, or unserialized concurrent deliveries).
    SerialOverlap,
    /// An event outside the tool's declared EventKindMask reached it —
    /// a routing-table compilation bug.
    SubscriptionMask,
    /// subscription() no longer returns what was compiled at attach:
    /// the routing tables and the tool disagree about the contract.
    SubscriptionDrift,
    /// A tool was delivered an event without ever being registered —
    /// the routing tables reference a tool the validator never saw.
    UnregisteredTool,
    /// releasePayload() on a handle already released (refcount would
    /// go below zero).
    PayloadDoubleRelease,
    /// releasePayload() on a pointer the ledger never saw (underflow
    /// of an untracked count, or a stray pointer).
    PayloadUnknownRelease,
    /// A delivered event still references a payload whose ledger entry
    /// was released (the handle outlived its registration).
    PayloadUseAfterRelease,
    /// A ledger entry's canary word was overwritten — memory corruption
    /// in or around the payload bookkeeping.
    PayloadCanaryStomp,
  };

  Kind What = Kind::SerialOverlap;
  std::string Message;
};

/// Stable name for a violation kind ("serial-overlap", ...).
const char *validationViolationName(ValidationViolation::Kind K);

/// Validator activity counters (tests assert the checks actually ran).
struct ValidatorStats {
  std::uint64_t DeliveriesChecked = 0;
  std::uint64_t PayloadsTracked = 0;
  std::uint64_t Violations = 0;
};

/// The runtime contract checker. One Validator per EventProcessor,
/// created only when validation is enabled; every hook below is invoked
/// behind a null check, so a validation-off pipeline never pays more
/// than that test. All methods are thread-safe (a tool shared by two
/// processors is delivered from both, the decoders register payloads
/// from any thread).
class Validator {
public:
  using Handler = std::function<void(const ValidationViolation &)>;

  Validator();
  ~Validator();

  /// Installs \p H as the violation handler (replacing print-and-abort).
  /// The handler may be invoked concurrently from any pipeline thread.
  void setHandler(Handler H);

  /// Emits one violation through the handler.
  void report(ValidationViolation::Kind What, std::string Message);

  //===--------------------------------------------------------------------===
  // Tool contracts
  //===--------------------------------------------------------------------===

  /// (Re)registers \p T with the subscription the routing table was
  /// compiled from. Also re-queries T.subscription() and reports
  /// SubscriptionDrift when the answer no longer matches \p Compiled —
  /// the caller holds its dispatch mutex, like the compile itself.
  void registerTool(Tool &T, const Subscription &Compiled);

  /// Brackets a routing-table rebuild. beginReconfiguration() marks
  /// every registered tool stale; the registerTool() calls that follow
  /// re-adopt survivors in place; endReconfiguration() retires tools the
  /// new table no longer routes to.
  void beginReconfiguration();
  void endReconfiguration();

  /// Delivery-time checks, wrapped around the hook invocation:
  /// subscription-mask watchdog, Serial overlap, payload liveness of the
  /// event's arena handles.
  void beforeDelivery(Tool &T, const Event &E);
  void afterDelivery(Tool &T);

  //===--------------------------------------------------------------------===
  // Payload ledger (arena refcount canaries)
  //===--------------------------------------------------------------------===

  /// Tracks a payload the arena just made resident. \p What is a static
  /// string ("string", "stack", "kernel") used in diagnostics. Each
  /// entry carries a canary derived from the pointer; a stomped canary
  /// is reported as corruption.
  void registerPayload(const void *Payload, const char *What);
  /// Releases a tracked payload: the entry is poisoned, further
  /// releases report PayloadDoubleRelease, and deliveries of events
  /// still holding the handle report PayloadUseAfterRelease. Releasing
  /// an untracked pointer reports PayloadUnknownRelease. This is the
  /// hook the planned arena eviction path retires payloads through;
  /// today nothing in the pipeline releases (payloads are resident for
  /// the arena's lifetime), so any release traffic comes from code
  /// under test.
  void releasePayload(const void *Payload);
  /// True when \p Payload is tracked and not released (test helper).
  bool payloadLive(const void *Payload);

  ValidatorStats stats() const;

private:
  /// Per-tool contract state. Stable address (held by unique_ptr) so
  /// delivery checks can operate on the atomics outside the map lock.
  struct ToolState {
    Tool *T = nullptr;
    std::string Name;
    EventKindMask Kinds;
    ExecutionModel Model = ExecutionModel::Serial;
    /// Hook invocations currently in flight (Serial contract: must
    /// never exceed 1).
    std::atomic<int> Active{0};
    /// Hash of the thread id currently inside a hook (diagnostics).
    std::atomic<std::uint64_t> ActiveThread{0};
    /// Set by beginReconfiguration(), cleared when registerTool()
    /// re-adopts the tool; still-stale entries are retired by
    /// endReconfiguration().
    bool Stale = false;
  };

  struct PayloadEntry {
    std::uint64_t Canary = 0;
    const char *What = "payload";
    bool Released = false;
  };

  static std::uint64_t canaryFor(const void *Payload);
  static std::uint64_t poisonFor(const void *Payload);

  /// Checks the canary of \p It's entry; reports and returns false on a
  /// stomp. Caller holds LedgerMutex.
  bool checkCanary(const void *Payload, const PayloadEntry &Entry);

  /// Reports PayloadUseAfterRelease for every arena handle of \p E
  /// whose ledger entry was released.
  void checkEventPayloads(const Event &E, const ToolState &State);
  void checkPayloadHandle(const void *Payload, const char *What,
                          const ToolState &State);

  ToolState *stateOf(Tool &T);

  mutable std::mutex StateMutex;
  std::unordered_map<const Tool *, std::unique_ptr<ToolState>> Tools;

  mutable std::mutex LedgerMutex;
  std::unordered_map<const void *, PayloadEntry> Ledger;

  std::mutex HandlerMutex;
  Handler OnViolation;

  std::atomic<std::uint64_t> DeliveriesChecked{0};
  std::atomic<std::uint64_t> PayloadsTracked{0};
  std::atomic<std::uint64_t> Violations{0};
};

} // namespace pasta

#endif // PASTA_PASTA_VALIDATE_H
