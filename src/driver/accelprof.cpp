//===- driver/accelprof.cpp - PASTA's command-line client -------*- C++ -*-===//
//
// Part of the PASTA reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The paper artifact's entry point, built on the Session API:
//
//   accelprof [-v] -t <tool> [-b <backend>] [-g <gpu>] [--train]
//             [--iters N] [--managed] [--oversub F]
//             [--prefetch none|object|tensor] [--format text|json|csv]
//             [--async] [--queue-depth N] [--overflow block|drop|sample[:N]]
//             [--dispatch-threads N] [--capture FILE]
//             [--connect SOCKET [--tenant NAME]] <model>
//   accelprof -t <tool> -b replay --trace FILE [--replay-speed S]
//   accelprof --serve SOCKET [-t <tool>]... [--report-dir DIR]
//             [--report-every SECONDS]
//   accelprof --control SOCKET <verb> [args...]
//
// e.g.  accelprof -t working_set -b cs-gpu bert
//       accelprof -t kernel_frequency --train resnet18
//       accelprof -t hotness -b cs-gpu --managed --oversub 3 gpt2
//       accelprof -t working_set -b cs-gpu --format json bert
//       accelprof -t kernel_frequency -b cs-gpu --async --queue-depth 1024 bert
//       accelprof -t mem_usage_timeline --async --dispatch-threads 4 bert
//       accelprof -t kernel_frequency --capture run.trace bert
//       accelprof -t working_set -b replay --trace run.trace
//       accelprof --serve /tmp/pasta.sock --report-dir reports &
//       accelprof --connect /tmp/pasta.sock --tenant team-a bert
//       accelprof --control /tmp/pasta.sock attach-tool team-a working_set
//
// <model> is a Table IV zoo entry (alexnet, resnet18, resnet34, gpt2,
// bert, whisper). Tools: see `accelprof --list-tools`; backends:
// `accelprof --list-backends`.
//
//===----------------------------------------------------------------------===//

#include "pasta/Session.h"
#include "serve/Aggregator.h"
#include "serve/Control.h"
#include "support/Env.h"
#include "support/Format.h"
#include "support/ReportSink.h"
#include "support/Units.h"
#include "tools/RegisterTools.h"

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace pasta;
using namespace pasta::tools;

namespace {

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [-v] -t <tool>\n"
      "          [-b|--backend cs-gpu|cs-cpu|nvbit-cpu|none|replay]\n"
      "          [-g A100|RTX3060|MI300X] [--train] [--iters N]\n"
      "          [--managed] [--oversub F] [--prefetch none|object|tensor]\n"
      "          [--granularity BYTES] [--sample-rate R]\n"
      "          [--format text|json|csv]\n"
      "          [--async] [--queue-depth N]\n"
      "          [--overflow block|drop|sample[:N]]\n"
      "          [--dispatch-threads N] [--validate]\n"
      "          [--capture FILE] [--connect SOCKET [--tenant NAME]]\n"
      "          [--connect-timeout S] [--connect-retries N]\n"
      "          [--reconnect [--reconnect-max N] [--spill-max-bytes B]]\n"
      "          <model>\n"
      "       %s -t <tool> -b replay --trace FILE [--replay-speed S]\n"
      "       %s --serve SOCKET [-t <tool>]... [--format text|json|csv]\n"
      "          [--report-dir DIR] [--report-every SECONDS] [--validate]\n"
      "          [--lanes N] [--pipeline-report] [--idle-timeout S]\n"
      "          [--quota-max-connections N] [--quota-events-per-sec R]\n"
      "          [--quota-bytes-per-sec R] [--quota-policy throttle|shed]\n"
      "       %s --control SOCKET <verb> [args...]\n"
      "          (verbs: attach-tool <tenant> <tool>,\n"
      "           detach-tool <tenant> <tool>, list-tenants)\n"
      "       %s --list-tools | --list-backends\n"
      "\n"
      "Every knob (flags, PASTA_* environment variables, SessionBuilder\n"
      "equivalents) is documented with tuning guidance in docs/TUNING.md.\n",
      Argv0, Argv0, Argv0, Argv0, Argv0);
  return 2;
}

/// The daemon the SIGTERM/SIGINT handlers stop. requestStop() is
/// async-signal-safe (one write to the aggregator's self-pipe).
serve::Aggregator *ActiveAggregator = nullptr;

void handleStopSignal(int) {
  if (ActiveAggregator)
    ActiveAggregator->requestStop();
}

int runServe(const serve::ServeOptions &Opts, bool Verbose) {
  serve::Aggregator Agg(Opts);
  SessionError Err;
  if (!Agg.start(Err)) {
    std::fprintf(stderr, "error: %s\n", Err.message().c_str());
    return 2;
  }
  ActiveAggregator = &Agg;
  struct sigaction Action;
  std::memset(&Action, 0, sizeof(Action));
  Action.sa_handler = handleStopSignal;
  ::sigaction(SIGTERM, &Action, nullptr);
  ::sigaction(SIGINT, &Action, nullptr);
  if (Verbose)
    std::fprintf(stderr, "accelprof: serving on '%s' (SIGTERM to stop)\n",
                 Agg.socketPath().c_str());
  Agg.wait();
  ActiveAggregator = nullptr;
  serve::AggregatorStats Stats = Agg.stats();
  if (Verbose)
    std::fprintf(stderr,
                 "accelprof: served %llu connections (%llu clean, %llu "
                 "corrupt, %llu aborted), %llu rollups\n",
                 static_cast<unsigned long long>(Stats.ConnectionsAccepted),
                 static_cast<unsigned long long>(Stats.CleanStreams),
                 static_cast<unsigned long long>(Stats.CorruptStreams),
                 static_cast<unsigned long long>(Stats.AbortedStreams),
                 static_cast<unsigned long long>(Stats.RollupsWritten));
  return 0;
}

int listTools() {
  registerBuiltinTools();
  std::printf("available tools:\n");
  for (const std::string &Name :
       ToolRegistry::instance().registeredNames()) {
    std::unique_ptr<Tool> T = ToolRegistry::instance().create(Name);
    if (!T) {
      std::printf("  %s\n", Name.c_str());
      continue;
    }
    Subscription Sub = T->subscription();
    std::string Fine;
    if (Sub.AccessRecords || T->deviceAnalysis())
      Fine += " +access-records";
    if (Sub.InstrMix)
      Fine += " +instr-mix";
    if (Sub.KernelTrace)
      Fine += " +kernel-trace";
    if (Sub.UvmCounters)
      Fine += " +uvm-counters";
    if (Sub.CapturesStacks)
      Fine += " +stacks";
    std::printf("  %-20s contract=%-15s requires=%s\n", Name.c_str(),
                executionModelName(Sub.Model),
                T->requirements().str().c_str());
    std::printf("  %-20s events=%s%s\n", "",
                Sub.Kinds.str().c_str(), Fine.c_str());
  }
  return 0;
}

int listBackends() {
  std::printf("available backends:\n");
  const BackendRegistry &Registry = BackendRegistry::instance();
  for (const std::string &Name : Registry.registeredNames()) {
    std::string Description = Registry.description(Name);
    if (Description.empty())
      std::printf("  %s\n", Name.c_str());
    else
      std::printf("  %-10s %s\n", Name.c_str(), Description.c_str());
  }
  return 0;
}

enum class ReportFormat { Text, Json, Csv };

std::unique_ptr<ReportSink> makeSink(ReportFormat Format, std::FILE *Out) {
  switch (Format) {
  case ReportFormat::Json:
    return std::make_unique<JsonReportSink>(Out);
  case ReportFormat::Csv:
    return std::make_unique<CsvReportSink>(Out);
  case ReportFormat::Text:
    break;
  }
  return std::make_unique<TextReportSink>(Out);
}

} // namespace

int main(int Argc, char **Argv) {
  SessionBuilder Builder;
  std::vector<std::string> ToolNames;
  std::string Model;
  std::string BackendName = "none";
  std::string ServeSocket;
  std::string ControlSocket;
  std::vector<std::string> ControlWords;
  std::string ReportDir;
  std::string GpuName = "A100";
  std::string FormatName = "text";
  double ReportEvery = 0.0;
  std::size_t ServeLanes = 0;
  std::uint64_t QuotaMaxConnections = 0;
  double QuotaEventsPerSec = 0.0;
  double QuotaBytesPerSec = 0.0;
  std::string QuotaPolicy = "throttle";
  double IdleTimeout = 0.0;
  bool PipelineReport = false;
  bool Validate = false;
  bool Verbose = false;
  bool Async = false;
  double Oversub = 0.0;
  ReportFormat Format = ReportFormat::Text;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto NextValue = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Flag);
        std::exit(2);
      }
      return Argv[++I];
    };
    if (Arg == "--list-tools")
      return listTools();
    if (Arg == "--list-backends")
      return listBackends();
    if (Arg == "-v") {
      Verbose = true;
    } else if (Arg == "-t") {
      ToolNames.push_back(NextValue("-t"));
    } else if (Arg == "-b" || Arg == "--backend") {
      // Backend names are validated by the registry at build() time.
      BackendName = NextValue("-b");
      Builder.backend(BackendName);
    } else if (Arg == "--capture") {
      Builder.capture(NextValue("--capture"));
    } else if (Arg == "--trace") {
      Builder.trace(NextValue("--trace"));
    } else if (Arg == "--replay-speed") {
      double Speed = std::atof(NextValue("--replay-speed"));
      if (Speed < 0.0) {
        std::fprintf(stderr,
                     "error: --replay-speed must be >= 0 (0 = full speed)\n");
        return 2;
      }
      Builder.replaySpeed(Speed);
    } else if (Arg == "--serve") {
      ServeSocket = NextValue("--serve");
    } else if (Arg == "--control") {
      ControlSocket = NextValue("--control");
    } else if (Arg == "--connect") {
      Builder.connect(NextValue("--connect"));
    } else if (Arg == "--tenant") {
      Builder.tenant(NextValue("--tenant"));
    } else if (Arg == "--connect-timeout") {
      double Seconds = std::atof(NextValue("--connect-timeout"));
      if (Seconds <= 0.0) {
        std::fprintf(stderr, "error: --connect-timeout needs a positive "
                             "number of seconds\n");
        return 2;
      }
      Builder.connectTimeout(Seconds);
    } else if (Arg == "--connect-retries") {
      long long Retries = std::atoll(NextValue("--connect-retries"));
      if (Retries < 0 || Retries > 1000) {
        std::fprintf(stderr,
                     "error: --connect-retries must be in [0, 1000]\n");
        return 2;
      }
      Builder.connectRetries(static_cast<int>(Retries));
    } else if (Arg == "--reconnect") {
      Builder.reconnect();
    } else if (Arg == "--reconnect-max") {
      long long Attempts = std::atoll(NextValue("--reconnect-max"));
      if (Attempts <= 0 || Attempts > 1000) {
        std::fprintf(stderr,
                     "error: --reconnect-max must be in [1, 1000]\n");
        return 2;
      }
      Builder.reconnectMax(static_cast<int>(Attempts));
      Builder.reconnect();
    } else if (Arg == "--spill-max-bytes") {
      long long Bytes = std::atoll(NextValue("--spill-max-bytes"));
      if (Bytes <= 0) {
        std::fprintf(stderr, "error: --spill-max-bytes must be positive\n");
        return 2;
      }
      Builder.spillMaxBytes(Bytes);
      Builder.reconnect();
    } else if (Arg == "--lanes") {
      // Serve mode: tenant sessions dispatch on N lanes. Client mode:
      // same as --dispatch-threads, a fixed lane count on the async
      // pipeline.
      long long N = std::atoll(NextValue("--lanes"));
      if (N <= 0 || N > 64) {
        std::fprintf(stderr, "error: --lanes must be in [1, 64]\n");
        return 2;
      }
      ServeLanes = static_cast<std::size_t>(N);
      Builder.dispatchThreads(static_cast<std::size_t>(N));
      Builder.asyncEvents();
      Async = true;
    } else if (Arg == "--quota-max-connections") {
      long long N = std::atoll(NextValue("--quota-max-connections"));
      if (N <= 0) {
        std::fprintf(stderr,
                     "error: --quota-max-connections must be positive\n");
        return 2;
      }
      QuotaMaxConnections = static_cast<std::uint64_t>(N);
    } else if (Arg == "--quota-events-per-sec") {
      QuotaEventsPerSec = std::atof(NextValue("--quota-events-per-sec"));
      if (QuotaEventsPerSec <= 0.0) {
        std::fprintf(stderr,
                     "error: --quota-events-per-sec must be positive\n");
        return 2;
      }
    } else if (Arg == "--quota-bytes-per-sec") {
      QuotaBytesPerSec = std::atof(NextValue("--quota-bytes-per-sec"));
      if (QuotaBytesPerSec <= 0.0) {
        std::fprintf(stderr,
                     "error: --quota-bytes-per-sec must be positive\n");
        return 2;
      }
    } else if (Arg == "--quota-policy") {
      QuotaPolicy = NextValue("--quota-policy");
      if (QuotaPolicy != "throttle" && QuotaPolicy != "shed") {
        std::fprintf(stderr, "error: --quota-policy must be 'throttle' "
                             "or 'shed'\n");
        return 2;
      }
    } else if (Arg == "--idle-timeout") {
      IdleTimeout = std::atof(NextValue("--idle-timeout"));
      if (IdleTimeout <= 0.0) {
        std::fprintf(stderr, "error: --idle-timeout needs a positive "
                             "number of seconds\n");
        return 2;
      }
    } else if (Arg == "--pipeline-report") {
      PipelineReport = true;
    } else if (Arg == "--report-dir") {
      ReportDir = NextValue("--report-dir");
    } else if (Arg == "--report-every") {
      ReportEvery = std::atof(NextValue("--report-every"));
      if (ReportEvery <= 0.0) {
        std::fprintf(stderr, "error: --report-every needs a positive "
                             "number of seconds\n");
        return 2;
      }
    } else if (Arg == "-g") {
      GpuName = NextValue("-g");
      Builder.gpu(GpuName);
    } else if (Arg == "--train") {
      Builder.training();
    } else if (Arg == "--iters") {
      Builder.iterations(std::atoi(NextValue("--iters")));
    } else if (Arg == "--managed") {
      Builder.managed();
    } else if (Arg == "--oversub") {
      Oversub = std::atof(NextValue("--oversub"));
      Builder.managed();
    } else if (Arg == "--prefetch") {
      std::string Level = NextValue("--prefetch");
      if (Level == "none")
        Builder.prefetch(PrefetchLevel::None);
      else if (Level == "object")
        Builder.prefetch(PrefetchLevel::Object);
      else if (Level == "tensor")
        Builder.prefetch(PrefetchLevel::Tensor);
      else {
        std::fprintf(stderr, "error: unknown prefetch level '%s'\n",
                     Level.c_str());
        return 2;
      }
      Builder.managed();
    } else if (Arg == "--validate") {
      // Runtime contract validation (docs/VALIDATION.md): aborts on the
      // first broken pipeline contract instead of corrupting reports.
      Builder.validate();
      Validate = true;
    } else if (Arg == "--async") {
      Builder.asyncEvents();
      Async = true;
    } else if (Arg == "--queue-depth") {
      long long Depth = std::atoll(NextValue("--queue-depth"));
      if (Depth <= 0) {
        std::fprintf(stderr, "error: --queue-depth must be positive\n");
        return 2;
      }
      // Tuning the queue only makes sense asynchronously; imply --async
      // (the --oversub / --managed precedent).
      Builder.queueDepth(static_cast<std::size_t>(Depth));
      Builder.asyncEvents();
      Async = true;
    } else if (Arg == "--dispatch-threads") {
      long long Threads = std::atoll(NextValue("--dispatch-threads"));
      if (Threads <= 0 || Threads > 64) {
        std::fprintf(stderr,
                     "error: --dispatch-threads must be in [1, 64]\n");
        return 2;
      }
      // Lanes only exist asynchronously; imply --async like the other
      // queue knobs.
      Builder.dispatchThreads(static_cast<std::size_t>(Threads));
      Builder.asyncEvents();
      Async = true;
    } else if (Arg == "--overflow") {
      std::string Spec = NextValue("--overflow");
      // "sample:16" selects the Sample policy keeping 1/16.
      std::size_t Colon = Spec.find(':');
      if (Colon != std::string::npos) {
        long long EveryN = std::atoll(Spec.substr(Colon + 1).c_str());
        if (EveryN <= 0) {
          std::fprintf(stderr,
                       "error: --overflow sample:N needs a positive N\n");
          return 2;
        }
        Builder.sampleEveryN(static_cast<std::uint64_t>(EveryN));
        Spec = Spec.substr(0, Colon);
      }
      auto Policy = parseOverflowPolicy(Spec);
      if (!Policy) {
        std::fprintf(stderr, "error: unknown overflow policy '%s'\n",
                     Spec.c_str());
        return 2;
      }
      Builder.overflowPolicy(*Policy);
      Builder.asyncEvents();
      Async = true;
    } else if (Arg == "--granularity") {
      Builder.recordGranularity(
          static_cast<std::uint64_t>(std::atoll(NextValue("--granularity"))));
    } else if (Arg == "--sample-rate") {
      Builder.sampleRate(std::atof(NextValue("--sample-rate")));
    } else if (Arg == "--format") {
      std::string Name = NextValue("--format");
      if (Name == "text")
        Format = ReportFormat::Text;
      else if (Name == "json")
        Format = ReportFormat::Json;
      else if (Name == "csv")
        Format = ReportFormat::Csv;
      else {
        std::fprintf(stderr, "error: unknown report format '%s'\n",
                     Name.c_str());
        return 2;
      }
      FormatName = Name;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return usage(Argv[0]);
    } else if (!ControlSocket.empty()) {
      // In --control mode the positionals are the command words
      // ("attach-tool team-a working_set"), not a model.
      ControlWords.push_back(Arg);
    } else {
      Model = Arg;
    }
  }

  // Control-client mode: one request to a running daemon, print the
  // response, exit with the daemon's verdict.
  if (!ControlSocket.empty()) {
    if (ControlWords.empty()) {
      std::fprintf(stderr, "error: --control needs a command, e.g. "
                           "'--control SOCKET list-tenants'\n");
      return 2;
    }
    std::string Command;
    for (const std::string &Word : ControlWords) {
      if (!Command.empty())
        Command += ' ';
      Command += Word;
    }
    std::string Response;
    SessionError CtlErr;
    if (!serve::sendControlCommand(ControlSocket, Command, Response,
                                   CtlErr)) {
      std::fprintf(stderr, "error: %s\n", CtlErr.message().c_str());
      return 2;
    }
    if (!Response.empty()) {
      std::fputs(Response.c_str(), stdout);
      if (Response.back() != '\n')
        std::fputc('\n', stdout);
    }
    return 0;
  }

  // Daemon mode: no model, no workload — just the aggregation loop.
  if (!ServeSocket.empty()) {
    serve::ServeOptions ServeOpts;
    ServeOpts.SocketPath = ServeSocket;
    if (!ToolNames.empty())
      ServeOpts.ToolNames = ToolNames;
    ServeOpts.ReportDir = ReportDir;
    ServeOpts.Format = FormatName;
    ServeOpts.ReportEverySeconds = ReportEvery;
    ServeOpts.Gpu = GpuName;
    ServeOpts.Lanes = ServeLanes;
    ServeOpts.QuotaMaxConnections = QuotaMaxConnections;
    ServeOpts.QuotaEventsPerSec = QuotaEventsPerSec;
    ServeOpts.QuotaBytesPerSec = QuotaBytesPerSec;
    ServeOpts.QuotaPolicy = QuotaPolicy;
    ServeOpts.IdleTimeoutSeconds = IdleTimeout;
    ServeOpts.PipelineRollup = PipelineReport;
    if (Validate)
      ServeOpts.Validate = true;
    return runServe(ServeOpts, Verbose);
  }

  // Replay sessions take their events from the trace; the model
  // positional is meaningless there and may be omitted.
  if (Model.empty() && BackendName != "replay")
    return usage(Argv[0]);
  if (!Model.empty())
    Builder.model(Model);
  if (ToolNames.empty())
    ToolNames.push_back(getEnvString("PASTA_TOOL", "kernel_frequency"));
  for (const std::string &Name : ToolNames)
    Builder.tool(Name);

  // PASTA_CONNECT / PASTA_TENANT: attach the forwarder without touching
  // the command line (the LD_PRELOAD-style fleet onboarding path).
  if (Builder.options().ConnectPath.empty()) {
    std::string EnvConnect = getEnvString("PASTA_CONNECT", "");
    if (!EnvConnect.empty()) {
      Builder.connect(EnvConnect);
      std::string EnvTenant = getEnvString("PASTA_TENANT", "");
      if (!EnvTenant.empty())
        Builder.tenant(EnvTenant);
    }
  }

  // Oversubscription needs the footprint: probe with an uninstrumented
  // run of the *same* workload first (the paper's pre-allocation trick
  // needs the same number), dropping only managed mode and the cap.
  if (Oversub > 0.0) {
    SessionOptions ProbeOpts = Builder.options();
    // The probe only measures PeakReserved; no tools along for the ride.
    ProbeOpts.ToolNames.clear();
    SessionBuilder ProbeBuilder(ProbeOpts);
    SessionError ProbeErr;
    std::unique_ptr<Session> Probe = ProbeBuilder.backend("none")
                                         .managed(false)
                                         .prefetch(PrefetchLevel::None)
                                         .memoryLimit(0)
                                         .build(ProbeErr);
    if (!Probe) {
      std::fprintf(stderr, "error: %s\n", ProbeErr.message().c_str());
      return 2;
    }
    std::uint64_t Footprint = Probe->run().Stats.PeakReserved;
    std::uint64_t Limit =
        static_cast<std::uint64_t>(static_cast<double>(Footprint) / Oversub);
    Builder.memoryLimit(Limit);
    if (Verbose)
      std::fprintf(stderr,
                   "accelprof: footprint %s, limiting device to %s\n",
                   formatBytes(Footprint).c_str(),
                   formatBytes(Limit).c_str());
  }

  SessionError Err;
  std::unique_ptr<Session> S = Builder.build(Err);
  if (!S) {
    std::fprintf(stderr, "error: %s\n", Err.message().c_str());
    return 2;
  }

  SessionResult Result = S->run();
  if (Verbose)
    std::fprintf(
        stderr,
        "accelprof: %s %s on %s via %s (enabled: %s): %llu kernels, %s "
        "simulated, peak %s\n",
        Model.c_str(), S->options().Training ? "training" : "inference",
        S->options().Gpu.c_str(), S->backend().name().c_str(),
        S->negotiated().str().c_str(),
        static_cast<unsigned long long>(Result.Stats.KernelsLaunched),
        formatSimTime(Result.Stats.wallTime()).c_str(),
        formatBytes(Result.Stats.PeakReserved).c_str());

  std::unique_ptr<ReportSink> Sink = makeSink(Format, stdout);
  // The pipeline section leads the tool reports when the async dispatch
  // unit ran, so drop/sample counters are visible next to the results
  // they qualify.
  if (Async)
    S->writePipelineReport(*Sink);
  S->writeReports(*Sink);
  return 0;
}
