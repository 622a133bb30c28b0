//===- pasta/Validate.cpp - Runtime contract validation -------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pasta/Validate.h"

#include <cstdio>
#include <cstdlib>
#include <thread>

namespace pasta {

namespace {

/// Canary seed: entries derive their expected word from this and the
/// payload address, so a bulk memset or off-by-one neighbour write
/// cannot accidentally produce a valid canary.
constexpr std::uint64_t CanarySeed = 0x5041535441564c44ULL; // "PASTAVLD"
constexpr std::uint64_t PoisonSeed = 0xdeadbeefdeadbeefULL;

std::uint64_t threadFingerprint() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

} // namespace

const char *validationViolationName(ValidationViolation::Kind K) {
  switch (K) {
  case ValidationViolation::Kind::SerialOverlap:
    return "serial-overlap";
  case ValidationViolation::Kind::SubscriptionMask:
    return "subscription-mask";
  case ValidationViolation::Kind::SubscriptionDrift:
    return "subscription-drift";
  case ValidationViolation::Kind::UnregisteredTool:
    return "unregistered-tool";
  case ValidationViolation::Kind::PayloadDoubleRelease:
    return "payload-double-release";
  case ValidationViolation::Kind::PayloadUnknownRelease:
    return "payload-unknown-release";
  case ValidationViolation::Kind::PayloadUseAfterRelease:
    return "payload-use-after-release";
  case ValidationViolation::Kind::PayloadCanaryStomp:
    return "payload-canary-stomp";
  }
  return "unknown";
}

Validator::Validator() = default;
Validator::~Validator() = default;

void Validator::setHandler(Handler H) {
  std::lock_guard<std::mutex> Lock(HandlerMutex);
  OnViolation = std::move(H);
}

void Validator::report(ValidationViolation::Kind What, std::string Message) {
  Violations.fetch_add(1, std::memory_order_relaxed);
  ValidationViolation V;
  V.What = What;
  V.Message = std::move(Message);

  Handler H;
  {
    std::lock_guard<std::mutex> Lock(HandlerMutex);
    H = OnViolation;
  }
  if (H) {
    H(V);
    return;
  }
  // Default: a violated contract means tool or arena state is already
  // corrupt — print and abort rather than let the run limp on.
  std::fprintf(stderr, "pasta: PASTA_VALIDATE violation [%s]: %s\n",
               validationViolationName(V.What), V.Message.c_str());
  std::abort();
}

//===----------------------------------------------------------------------===//
// Tool contracts
//===----------------------------------------------------------------------===//

void Validator::registerTool(Tool &T, const Subscription &Compiled) {
  {
    std::lock_guard<std::mutex> Lock(StateMutex);
    std::unique_ptr<ToolState> &Slot = Tools[&T];
    if (!Slot)
      Slot = std::make_unique<ToolState>();
    Slot->T = &T;
    Slot->Name = T.name();
    Slot->Kinds = Compiled.Kinds;
    Slot->Model = Compiled.Model;
    Slot->Stale = false;
  }

  // Drift watchdog: the routing table was compiled from one answer; if
  // subscription() gives a different one now, deliveries will follow a
  // contract the tool no longer declares. Caller holds the dispatch
  // mutex, so re-querying user code here is as safe as the compile was.
  Subscription Now = T.subscription();
  if (Now.Kinds != Compiled.Kinds)
    report(ValidationViolation::Kind::SubscriptionDrift,
           "tool '" + T.name() + "' subscription() kinds drifted: compiled " +
               Compiled.Kinds.str() + ", now reports " + Now.Kinds.str());
  else if (Now.Model != Compiled.Model)
    report(ValidationViolation::Kind::SubscriptionDrift,
           "tool '" + T.name() +
               "' subscription() execution model drifted: compiled " +
               std::string(executionModelName(Compiled.Model)) +
               ", now reports " + executionModelName(Now.Model));
}

void Validator::beginReconfiguration() {
  std::lock_guard<std::mutex> Lock(StateMutex);
  for (auto &Entry : Tools)
    Entry.second->Stale = true;
}

void Validator::endReconfiguration() {
  std::lock_guard<std::mutex> Lock(StateMutex);
  for (auto It = Tools.begin(); It != Tools.end();) {
    if (It->second->Stale)
      It = Tools.erase(It);
    else
      ++It;
  }
}

Validator::ToolState *Validator::stateOf(Tool &T) {
  std::lock_guard<std::mutex> Lock(StateMutex);
  auto It = Tools.find(&T);
  return It == Tools.end() ? nullptr : It->second.get();
}

void Validator::beforeDelivery(Tool &T, const Event &E) {
  DeliveriesChecked.fetch_add(1, std::memory_order_relaxed);

  ToolState *State = stateOf(T);
  if (!State) {
    report(ValidationViolation::Kind::UnregisteredTool,
           "tool '" + T.name() +
               "' received an event but was never registered with the "
               "validator (routing tables out of sync)");
    return;
  }

  // Subscription-mask watchdog: the compiled routes must never hand a
  // tool an event kind it did not subscribe to.
  if (!State->Kinds.has(E.Kind))
    report(ValidationViolation::Kind::SubscriptionMask,
           "tool '" + State->Name + "' delivered " +
               eventKindName(E.Kind) + " outside its subscribed kinds " +
               State->Kinds.str());

  if (State->Model == ExecutionModel::Serial) {
    // Overlap: hook invocations of a Serial tool must never be
    // concurrent. fetch_add makes the check itself race-free.
    int Prev = State->Active.fetch_add(1, std::memory_order_acq_rel);
    std::uint64_t Self = threadFingerprint();
    if (Prev != 0) {
      std::uint64_t Other =
          State->ActiveThread.load(std::memory_order_acquire);
      report(ValidationViolation::Kind::SerialOverlap,
             "Serial tool '" + State->Name +
                 "' hook invoked while another invocation was in flight "
                 "(thread 0x" +
                 std::to_string(Self) + " overlapped thread 0x" +
                 std::to_string(Other) + ")");
    }
    State->ActiveThread.store(Self, std::memory_order_release);
  } else {
    State->Active.fetch_add(1, std::memory_order_acq_rel);
  }

  checkEventPayloads(E, *State);
}

void Validator::afterDelivery(Tool &T) {
  if (ToolState *State = stateOf(T))
    State->Active.fetch_sub(1, std::memory_order_acq_rel);
}

//===----------------------------------------------------------------------===//
// Payload ledger
//===----------------------------------------------------------------------===//

std::uint64_t Validator::canaryFor(const void *Payload) {
  return CanarySeed ^ reinterpret_cast<std::uintptr_t>(Payload);
}

std::uint64_t Validator::poisonFor(const void *Payload) {
  return PoisonSeed ^ reinterpret_cast<std::uintptr_t>(Payload);
}

bool Validator::checkCanary(const void *Payload, const PayloadEntry &Entry) {
  std::uint64_t Expected =
      Entry.Released ? poisonFor(Payload) : canaryFor(Payload);
  if (Entry.Canary == Expected)
    return true;
  report(ValidationViolation::Kind::PayloadCanaryStomp,
         std::string("ledger canary for ") + Entry.What +
             " payload was overwritten (memory corruption near the "
             "payload bookkeeping)");
  return false;
}

void Validator::registerPayload(const void *Payload, const char *What) {
  if (!Payload)
    return;
  std::lock_guard<std::mutex> Lock(LedgerMutex);
  PayloadEntry &Entry = Ledger[Payload];
  if (Entry.Canary != 0 && Entry.Released) {
    // The arena re-interned content at an address that was released:
    // legitimate recycling — the entry is reborn live.
    Entry.Released = false;
  }
  Entry.Canary = canaryFor(Payload);
  Entry.What = What;
  PayloadsTracked.fetch_add(1, std::memory_order_relaxed);
}

void Validator::releasePayload(const void *Payload) {
  if (!Payload)
    return;
  std::lock_guard<std::mutex> Lock(LedgerMutex);
  auto It = Ledger.find(Payload);
  if (It == Ledger.end()) {
    report(ValidationViolation::Kind::PayloadUnknownRelease,
           "release of a payload the ledger never tracked (refcount "
           "underflow or stray pointer)");
    return;
  }
  if (!checkCanary(Payload, It->second))
    return;
  if (It->second.Released) {
    report(ValidationViolation::Kind::PayloadDoubleRelease,
           std::string("double release of ") + It->second.What +
               " payload (refcount would drop below zero)");
    return;
  }
  It->second.Released = true;
  It->second.Canary = poisonFor(Payload);
}

bool Validator::payloadLive(const void *Payload) {
  std::lock_guard<std::mutex> Lock(LedgerMutex);
  auto It = Ledger.find(Payload);
  return It != Ledger.end() && !It->second.Released;
}

void Validator::checkPayloadHandle(const void *Payload, const char *What,
                                   const ToolState &State) {
  if (!Payload)
    return;
  std::lock_guard<std::mutex> Lock(LedgerMutex);
  auto It = Ledger.find(Payload);
  if (It == Ledger.end())
    return; // not arena-tracked (pre-admission or fallback pin)
  if (!checkCanary(Payload, It->second))
    return;
  if (It->second.Released)
    report(ValidationViolation::Kind::PayloadUseAfterRelease,
           "event delivered to tool '" + State.Name +
               "' still references a released " + What + " payload");
}

void Validator::checkEventPayloads(const Event &E, const ToolState &State) {
  checkPayloadHandle(E.OpName.handle().get(), "string", State);
  checkPayloadHandle(E.LayerName.handle().get(), "string", State);
  checkPayloadHandle(E.PythonStack.handle().get(), "stack", State);
  checkPayloadHandle(E.ownedKernel().get(), "kernel", State);
}

ValidatorStats Validator::stats() const {
  ValidatorStats S;
  S.DeliveriesChecked = DeliveriesChecked.load(std::memory_order_relaxed);
  S.PayloadsTracked = PayloadsTracked.load(std::memory_order_relaxed);
  S.Violations = Violations.load(std::memory_order_relaxed);
  return S;
}

} // namespace pasta
