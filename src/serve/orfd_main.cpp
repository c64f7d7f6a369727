// orfd — the long-running prediction daemon (see DESIGN.md §11, §13).
//
// Wraps one orf::Service behind the epoll reactor: POST /v1/score and
// /v1/ingest, GET /metrics and /healthz. Connections are multiplexed over
// epoll workers, and concurrent /v1/score rows are micro-batched into shared
// score_batch calls. Every knob is an orf::Config flag (or its ORF_*
// environment twin), so orfd and fleet_monitor share one spelling per
// parameter; --features declares the SMART schema width (default 19, the
// paper's Table 2 set).
//
// Lifecycle: SIGTERM/SIGINT are blocked in every thread and collected with
// sigwait on the main thread. On the first signal the server drains —
// in-flight requests complete, nothing new is admitted — then a final
// checkpoint is written (when --checkpoint-dir is set) and the process
// exits 0. Restarting with --resume restores that snapshot bit-identically:
// the resumed daemon's state matches one that was never interrupted.
//
// Quick start:
//   orfd --port 8080 --checkpoint-dir /var/lib/orf &
//   curl -s localhost:8080/healthz
//   curl -s -X POST localhost:8080/v1/score
//        -d '{"rows":[[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]]}'
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <vector>

#include "orf/orf.hpp"
#include "serve/batcher.hpp"
#include "serve/dispatch.hpp"
#include "serve/handlers.hpp"
#include "serve/overload.hpp"
#include "serve/reactor.hpp"

namespace {

int run(int argc, char** argv) {
  // Collected by sigwait below; block before any thread exists so workers
  // inherit the mask and the signals always land on the main thread.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGTERM);
  sigaddset(&signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  const util::Flags flags(argc, argv);
  std::vector<util::FlagSpec> specs(orf::Config::flag_specs().begin(),
                                    orf::Config::flag_specs().end());
  specs.push_back({"features", "N", "SMART features per report"});
  specs.push_back({"backfill", "",
                   "cold-start train from the --tsdb-dir history before "
                   "serving (skipped on --resume)"});
  flags.enforce("orfd", specs);

  const orf::Config config = orf::Config::from_flags(flags);
  const auto features =
      static_cast<std::size_t>(flags.get_int("features", 19));

  orf::Service service(features, config);
  if (service.resumed()) {
    std::printf("orfd: resumed from %s at day %lld\n",
                config.robust.checkpoint_dir.c_str(),
                static_cast<long long>(service.next_day()));
  }

  // Cold-start backfill (DESIGN.md §16): train from the captured history
  // before the listener opens, so the first scored request already sees a
  // warm forest. A resumed daemon skips it — the checkpoint IS that state.
  if (flags.get_bool("backfill", false)) {
    if (config.tsdb.directory.empty()) {
      std::fprintf(stderr, "orfd: --backfill requires --tsdb-dir\n");
      return 2;
    }
    if (service.resumed()) {
      std::printf("orfd: --backfill skipped (resumed checkpoint wins)\n");
    } else if (!std::filesystem::exists(std::filesystem::path(
                   config.tsdb.directory) /
               tsdb::kCatalogFile)) {
      // An empty or brand-new store is not an error: the daemon simply
      // starts cold and begins capturing.
      std::printf("orfd: --backfill skipped (no committed history in %s)\n",
                  config.tsdb.directory.c_str());
    } else {
      const orf::Service::ReplayStats stats =
          service.backfill_from_history(orf::ReplaySpec{});
      std::printf(
          "orfd: backfilled days [%lld, %lld): %llu rows, %llu alarms\n",
          static_cast<long long>(stats.from_day),
          static_cast<long long>(stats.to_day),
          static_cast<unsigned long long>(stats.rows),
          static_cast<unsigned long long>(stats.alarms));
    }
  }

  serve::Api api(service);
  serve::Overload overload(config.serve, service.metrics_registry());
  serve::ScoreBatcher batcher(api, config.serve);
  batcher.set_overload(&overload);
  overload.set_queue_age_probe(
      [&batcher] { return batcher.oldest_wait_seconds(); });
  batcher.start();
  serve::ReactorServer server(config.serve,
                              serve::Dispatcher(api, batcher, &overload),
                              &service.metrics_registry());
  server.set_overload(&overload);
  // Outstanding batches flush while reactor workers still drain inboxes.
  server.set_drain_hook([&batcher] { batcher.stop(); });
  server.start();
  std::printf("orfd: %zu features, %zu shards, reactor server on %s:%d\n",
              service.feature_count(), service.engine().shard_count(),
              config.serve.bind_address.c_str(), server.port());
  std::fflush(stdout);

  int caught = 0;
  sigwait(&signals, &caught);
  std::printf("orfd: signal %d, draining...\n", caught);
  std::fflush(stdout);
  server.stop();
  const std::string checkpoint = service.checkpoint_now();
  if (!checkpoint.empty()) {
    std::printf("orfd: final checkpoint %s\n", checkpoint.c_str());
  }
  std::printf("orfd: day %lld, bye\n",
              static_cast<long long>(service.next_day()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const util::FlagError& error) {
    std::fprintf(stderr, "orfd: %s\n", error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "orfd: fatal: %s\n", error.what());
    return 1;
  }
}
