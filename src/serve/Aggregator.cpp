//===- serve/Aggregator.cpp -----------------------------------------------===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Aggregator.h"

#include "pasta/EventProcessor.h"
#include "support/Logging.h"
#include "support/ReportSink.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace pasta;
using namespace pasta::serve;

Aggregator::Aggregator(ServeOptions InitialOpts)
    : Opts(std::move(InitialOpts)), Registry(Opts) {}

Aggregator::~Aggregator() {
  requestStop();
  wait();
  for (int &Fd : StopPipe) {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
  }
}

bool Aggregator::start(SessionError &Err) {
  if (::pipe(StopPipe) != 0) {
    Err.assign("cannot create stop pipe: " +
               std::string(std::strerror(errno)));
    return false;
  }
  for (int Fd : StopPipe)
    ::fcntl(Fd, F_SETFD, FD_CLOEXEC);

  if (!Opts.ReportDir.empty()) {
    if (::mkdir(Opts.ReportDir.c_str(), 0777) != 0 && errno != EEXIST) {
      Err.assign("cannot create report directory '" + Opts.ReportDir +
                 "': " + std::strerror(errno));
      return false;
    }
  }

  if (Opts.QuotaPolicy != "throttle" && Opts.QuotaPolicy != "shed") {
    Err.assign("invalid --quota-policy '" + Opts.QuotaPolicy +
               "': expected 'throttle' or 'shed'");
    return false;
  }

  // Fail fast on a bad tool set: building a throwaway tenant session
  // here surfaces an unknown tool name at startup instead of at the
  // first client's Hello.
  {
    SessionBuilder Probe;
    Probe.backend("none").gpu(Opts.Gpu);
    if (Opts.Lanes > 0)
      Probe.asyncEvents(true).dispatchThreads(Opts.Lanes);
    for (const std::string &ToolName : Opts.ToolNames)
      Probe.tool(ToolName);
    if (!Probe.build(Err))
      return false;
  }

  if (!Accept.open(Opts.SocketPath, Err))
    return false;

  Acceptor = std::thread([this] { acceptLoop(); });
  if (Opts.ReportEverySeconds > 0.0)
    Timer = std::thread([this] { timerLoop(); });
  return true;
}

void Aggregator::requestStop() {
  if (StopPipe[1] < 0)
    return;
  // Async-signal-safe by design: one write(2), nothing else. Every
  // blocking poll in the daemon watches StopPipe[0].
  char Byte = 's';
  ssize_t Ignored = ::write(StopPipe[1], &Byte, 1);
  (void)Ignored;
}

void Aggregator::acceptLoop() {
  for (;;) {
    int Client = Accept.acceptOrStop(StopPipe[0]);
    if (Client < 0)
      return;
    auto Binder = [this](const trace::StreamHello &Hello,
                         SessionError &Err) -> Tenant * {
      return Registry.getOrCreate(Hello.Tenant, Err);
    };
    ConnectionTuning Tuning;
    if (Opts.IdleTimeoutSeconds > 0.0)
      Tuning.IdleTimeoutMs =
          static_cast<int>(Opts.IdleTimeoutSeconds * 1000.0);
    auto Conn = std::make_unique<Connection>(
        Client, NextConnId++, StopPipe[0], Binder,
        [this](Connection &C) { onConnectionDone(C); },
        [this](const std::string &Command, bool &Ok) {
          return executeControl(Command, Ok);
        },
        Tuning);
    Connection *Started = Conn.get();
    {
      std::lock_guard<std::mutex> Lock(Mu);
      ++Stats.ConnectionsAccepted;
      Connections.push_back(std::move(Conn));
    }
    Started->start();
    reapFinished();
  }
}

void Aggregator::reapFinished() {
  std::vector<std::unique_ptr<Connection>> Finished;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    for (std::size_t I = 0; I < Connections.size();) {
      if (Connections[I]->done()) {
        Finished.push_back(std::move(Connections[I]));
        Connections.erase(Connections.begin() +
                          static_cast<std::ptrdiff_t>(I));
      } else {
        ++I;
      }
    }
  }
  // join + destroy outside the lock.
  for (std::unique_ptr<Connection> &C : Finished)
    C->join();
}

void Aggregator::onConnectionDone(Connection &Conn) {
  StreamOutcome Outcome = Conn.outcome();
  {
    std::lock_guard<std::mutex> Lock(Mu);
    switch (Outcome) {
    case StreamOutcome::Clean:
      ++Stats.CleanStreams;
      break;
    case StreamOutcome::Corrupt:
      ++Stats.CorruptStreams;
      break;
    case StreamOutcome::Suspended:
      ++Stats.SuspendedStreams;
      break;
    case StreamOutcome::Rejected:
      ++Stats.RejectedStreams;
      break;
    default:
      ++Stats.AbortedStreams;
      break;
    }
  }
  // Disconnect rollup: the tenant's merged view right after this client
  // finished — including suspended partials, whose salvaged events are
  // already merged. Shutdown aborts skip it (the final rollup is
  // imminent), and rejected Hellos contributed nothing.
  if (Outcome != StreamOutcome::Aborted &&
      Outcome != StreamOutcome::Rejected && Conn.tenant())
    writeRollup(*Conn.tenant(), /*Final=*/false);
}

void Aggregator::timerLoop() {
  std::unique_lock<std::mutex> Lock(Mu);
  while (!Stopping) {
    TimerCv.wait_for(Lock,
                     std::chrono::duration<double>(Opts.ReportEverySeconds));
    if (Stopping)
      return;
    Lock.unlock();
    for (Tenant *T : Registry.tenants())
      writeRollup(*T, /*Final=*/false);
    Lock.lock();
  }
}

void Aggregator::writeRollup(Tenant &T, bool Final) {
  std::lock_guard<std::mutex> WriteLock(RollupMu);
  if (!Opts.ReportDir.empty()) {
    std::string Ext = Opts.Format == "json"  ? ".json"
                      : Opts.Format == "csv" ? ".csv"
                                             : ".txt";
    std::string Path = Opts.ReportDir + "/" + T.name() + Ext;
    std::FILE *Out = std::fopen(Path.c_str(), "wb");
    if (!Out) {
      logWarning("serve: cannot write rollup '" + Path +
                 "': " + std::strerror(errno));
      return;
    }
    if (Opts.Format == "json") {
      JsonReportSink Sink(Out);
      Registry.writeTenantReport(T, Sink, Final);
    } else if (Opts.Format == "csv") {
      CsvReportSink Sink(Out);
      Registry.writeTenantReport(T, Sink, Final);
    } else {
      TextReportSink Sink(Out);
      Registry.writeTenantReport(T, Sink, Final);
    }
    std::fclose(Out);
  } else {
    std::fprintf(stdout, "=== tenant %s ===\n", T.name().c_str());
    TextReportSink Sink(stdout);
    Registry.writeTenantReport(T, Sink, Final);
    std::fflush(stdout);
  }
  std::lock_guard<std::mutex> Lock(Mu);
  ++Stats.RollupsWritten;
}

void Aggregator::wait() {
  if (Waited)
    return;
  if (Acceptor.joinable())
    Acceptor.join();
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stopping = true;
  }
  TimerCv.notify_all();
  if (Timer.joinable())
    Timer.join();

  // Connections watch the same stop pipe; drain and join them all.
  std::vector<std::unique_ptr<Connection>> Remaining;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Remaining.swap(Connections);
  }
  for (std::unique_ptr<Connection> &C : Remaining)
    C->join();
  Remaining.clear();

  // Final rollups: finish every tenant session (tool onFinish) and
  // write the authoritative per-tenant reports.
  for (Tenant *T : Registry.tenants())
    writeRollup(*T, /*Final=*/true);

  Accept.close();
  Waited = true;
}

AggregatorStats Aggregator::stats() {
  std::lock_guard<std::mutex> Lock(Mu);
  return Stats;
}

std::string Aggregator::executeControl(const std::string &Command,
                                       bool &Ok) {
  Ok = false;
  std::vector<std::string> Words;
  std::string Word;
  for (char C : Command) {
    if (C == ' ' || C == '\t' || C == '\n') {
      if (!Word.empty())
        Words.push_back(std::move(Word));
      Word.clear();
    } else {
      Word.push_back(C);
    }
  }
  if (!Word.empty())
    Words.push_back(std::move(Word));
  if (Words.empty())
    return "empty control command";

  const std::string &Verb = Words[0];
  if (Verb == "list-tenants") {
    std::string Out;
    for (Tenant *T : Registry.tenants()) {
      std::lock_guard<std::mutex> Lock(T->mutex());
      Out += T->name() + " connections=" +
             std::to_string(T->stats().Connections) + " events=" +
             std::to_string(T->stats().EventsAdmitted) + " tools=" +
             std::to_string(T->session().tools().size()) + "\n";
    }
    Ok = true;
    return Out.empty() ? "no tenants\n" : Out;
  }

  if (Verb == "attach-tool" || Verb == "detach-tool") {
    if (Words.size() != 3)
      return "usage: " + Verb + " <tenant> <tool>";
    Tenant *T = Registry.find(Words[1]);
    if (!T)
      return "unknown tenant '" + Words[1] +
             "' (tenants are created by their first client stream)";
    // The tenant lock serializes the reconfiguration against the
    // tenant's stream admissions: the epoch swap happens between
    // decoded chunks, never mid-chunk.
    std::lock_guard<std::mutex> Lock(T->mutex());
    if (Verb == "attach-tool") {
      if (T->session().tool(Words[2]))
        return "tool '" + Words[2] + "' is already attached to tenant '" +
               Words[1] + "'";
      if (!T->session().addToolByName(Words[2]))
        return "cannot attach tool '" + Words[2] + "' (unknown tool?)";
      Ok = true;
      return "attached '" + Words[2] + "' to tenant '" + Words[1] + "'";
    }
    if (!T->session().detachTool(Words[2]))
      return "tool '" + Words[2] + "' is not attached to tenant '" +
             Words[1] + "'";
    Ok = true;
    return "detached '" + Words[2] + "' from tenant '" + Words[1] + "'";
  }

  return "unknown control verb '" + Verb +
         "' (try attach-tool, detach-tool, list-tenants)";
}
