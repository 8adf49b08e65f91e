// Paired overhead driver: what does each operator feature built around
// the live monitor cost the work it runs beside?
//
// Usage: bench_overhead TOGGLE PAIRS
//
// TOGGLE names one row of the table at the bottom.  Each row builds its
// workload and a `run(on)` that performs one timed side, the same work
// with the feature off or on:
//   serve       Pipeline::Analyze batches over a Table-I-shaped spike
//               workload; on = a 1 Hz /metrics + /varz scraper.
//   dashboard   the same batches, each iteration also sampling the
//               time-series store (serve samples every tick whether or
//               not anyone watches, so sampling is baseline); on = a
//               1 Hz dashboard-tab poller.
//   checkpoint  a live replay of a session-reset-plus-churn capture;
//               on = an RNC1 snapshot every 16 ticks (the serve default).
//   provenance  the same replay; on = an evidence ledger attached.
//
// After one warm-up of each side, PAIRS (off, on) pairs run back to
// back in this one process, alternating which side goes first, each
// side timed with a process-CPU-clock delta.  Background load on a
// shared box shifts on a multi-second scale and inflates both halves of
// an adjacent pair alike, so the per-pair ratio cancels it; separate
// off and on processes were observed to land in load regimes 60% apart
// and bury a few-percent effect.  Process CPU covers every thread (the
// pool, the HTTP server, the checkpoint writer, and the loopback client
// as a conservative over-count), so it charges the feature's full
// compute cost while excluding fsync sleep and other tenants' CPU steal.
//
// stdout is one JSON object,
//   {"toggle": T, "iters_per_side": N, "pairs": [{"off_ns": X, "on_ns": Y}, ...]}
// and progress goes to stderr.  tools/run_bench.sh turns it into a row
// of BENCH_stemming.json (docs/OBSERVABILITY.md, "Overhead rows").
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/live.h"
#include "core/pipeline.h"
#include "obs/health.h"
#include "obs/http_server.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/timeseries.h"
#include "table1_common.h"
#include "util/time.h"
#include "workload/eventgen.h"

namespace ranomaly::bench {
namespace {

using util::kMinute;
using util::kSecond;

double ProcessCpuNs() {
  std::timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 +
         static_cast<double>(ts.tv_nsec);
}

// Workload of the analysis-batch toggles (serve, dashboard).
const collector::EventStream& SpikeWorkload() {
  static const collector::EventStream* stream = [] {
    const workload::SyntheticInternet internet = BerkeleyScale(23'000);
    return new collector::EventStream(SpikeEvents(internet, 57'000, 42));
  }();
  return *stream;
}

// Workload of the live-replay toggles (checkpoint, provenance).
const collector::EventStream& ChurnWorkload() {
  static const collector::EventStream* stream = [] {
    workload::InternetOptions options;
    options.monitored_peers = 5;
    options.prefix_count = 600;
    options.origin_as_count = 120;
    options.seed = 7;
    const workload::SyntheticInternet internet(options);
    workload::EventStreamGenerator gen(internet, 8);
    gen.SessionReset(0, 10 * kMinute, kMinute, 20 * kSecond);
    // A busy feed (~250 events/s average): the overhead fraction is
    // feature cost over replay cost per tick, and an unpaced replay of
    // a sparse feed deflates the denominator by orders of magnitude
    // relative to a paced production tick (10 s of wall).
    gen.Churn(0, 30 * kMinute, 40000);
    return new collector::EventStream(gen.Take());
  }();
  return *stream;
}

// One toggle's timed sides: `run(on)` covers `iters_per_side` units of
// its workload.
struct Sides {
  int iters_per_side = 1;
  std::function<void(bool on)> run;
};

// Runs `body` while a loopback client GETs `paths` in rotation from a
// server for `handler`, once per second (a Prometheus scrape_interval of
// 1 s is aggressive; the default is 15 s).
void WithPoller(obs::HttpServer::Handler handler,
                const std::vector<std::string>& paths,
                const std::function<void()>& body) {
  obs::HttpServer server(std::move(handler));
  std::string error;
  if (!server.Start(0, &error)) {
    std::fprintf(stderr, "server start failed: %s\n", error.c_str());
    std::exit(1);
  }
  std::atomic<bool> done{false};
  std::thread poller([&] {
    for (std::size_t i = 0; !done.load(std::memory_order_acquire); ++i) {
      obs::HttpGet(server.port(), paths[i % paths.size()]);
      std::this_thread::sleep_for(std::chrono::seconds(1));
    }
  });
  body();
  done.store(true, std::memory_order_release);
  poller.join();
  server.Stop();
}

const core::OpsInfo kBenchInfo{"bench", 2, 30.0, 10.0, 300.0};

// Sizes an analysis batch so each side runs ~2 s of analysis: long
// enough to cover a couple of 1 Hz requests, short enough that load
// regimes stay matched within a pair.
int CalibratedIters(const core::Pipeline& pipeline) {
  const double start = ProcessCpuNs();
  pipeline.Analyze(SpikeWorkload());
  return std::max(8, static_cast<int>(2e9 / (ProcessCpuNs() - start)));
}

std::shared_ptr<const core::Pipeline> TwoThreadPipeline() {
  core::PipelineOptions options;
  options.threads = 2;
  return std::make_shared<const core::Pipeline>(options);
}

Sides Serve() {
  const auto pipeline = TwoThreadPipeline();
  const int iters = CalibratedIters(*pipeline);
  const auto batch = [pipeline, iters] {
    for (int i = 0; i < iters; ++i) pipeline->Analyze(SpikeWorkload());
  };
  return {iters, [batch](bool on) {
            if (!on) return batch();
            obs::HealthRegistry health;
            core::IncidentLog incidents;
            WithPoller(core::MakeOpsHandler(&obs::MetricsRegistry::Global(),
                                            &health, &incidents, kBenchInfo),
                       {"/metrics", "/varz"}, batch);
          }};
}

Sides Dashboard() {
  const auto pipeline = TwoThreadPipeline();
  const int iters = CalibratedIters(*pipeline);
  const auto store = std::make_shared<obs::TimeSeriesStore>();
  // Advances one tier-0 bucket per iteration.
  const auto sim_now = std::make_shared<std::int64_t>(0);
  const auto batch = [pipeline, iters, store, sim_now] {
    for (int i = 0; i < iters; ++i) {
      pipeline->Analyze(SpikeWorkload());
      *sim_now += kSecond;
      store->Sample(obs::MetricsRegistry::Global(), *sim_now);
    }
  };
  return {iters, [batch, store](bool on) {
            if (!on) return batch();
            obs::HealthRegistry health;
            core::IncidentLog incidents;
            // One open dashboard tab: the page itself (reload), then its
            // two XHR feeds, at the page's 1 Hz refresh.
            WithPoller(core::MakeOpsHandler(&obs::MetricsRegistry::Global(),
                                            &health, &incidents, kBenchInfo,
                                            store.get(), /*dashboard=*/true),
                       {"/dashboard",
                        "/api/series?name=serve_events_ingested_total&res=1",
                        "/api/incidents/timeline"},
                       batch);
          }};
}

core::LiveOptions ReplayOptions() {
  core::LiveOptions options;
  options.tick = 10 * kSecond;
  options.window = 5 * kMinute;
  options.slo_target_sec = 30.0;
  return options;
}

void Replay(const core::LiveOptions& options,
            obs::ProvenanceLedger* ledger) {
  obs::HealthRegistry health;
  core::IncidentLog incidents;
  std::atomic<bool> keep_going{true};
  core::LiveRunner runner(options, &health, &incidents, nullptr, ledger);
  runner.Run(ChurnWorkload(), &keep_going, [](const core::LiveStats&) {});
}

Sides Checkpoint() {
  ChurnWorkload();  // generate the stream outside any timed region
  core::LiveOptions checkpointed = ReplayOptions();
  checkpointed.checkpoint_path = (std::filesystem::temp_directory_path() /
                                  "ranomaly_bench_ckpt.rnc1").string();
  checkpointed.checkpoint_every_ticks = 16;
  return {1, [checkpointed](bool on) {
            // Every replay starts from scratch: a snapshot left behind
            // would be restored and skip the work.
            const auto remove_snapshot = [&] {
              std::error_code ec;
              std::filesystem::remove(checkpointed.checkpoint_path, ec);
              std::filesystem::remove(checkpointed.checkpoint_path + ".tmp",
                                      ec);
            };
            remove_snapshot();
            Replay(on ? checkpointed : ReplayOptions(), nullptr);
            remove_snapshot();
          }};
}

Sides Provenance() {
  ChurnWorkload();  // generate the stream outside any timed region
  return {1, [](bool on) {
            obs::ProvenanceLedger ledger;
            Replay(ReplayOptions(), on ? &ledger : nullptr);
          }};
}

struct Toggle {
  std::string_view name;
  Sides (*make)();
};

constexpr Toggle kToggles[] = {
    {"serve", Serve},
    {"dashboard", Dashboard},
    {"checkpoint", Checkpoint},
    {"provenance", Provenance},
};

int RunPairs(const Toggle& toggle, int pairs) {
  const Sides sides = toggle.make();
  const auto timed = [&sides](bool on) {
    const double start = ProcessCpuNs();
    sides.run(on);
    return ProcessCpuNs() - start;
  };
  timed(false);  // one warm-up of each side before anything is recorded
  timed(true);
  std::printf("{\"toggle\": \"%.*s\", \"iters_per_side\": %d, \"pairs\": [",
              static_cast<int>(toggle.name.size()), toggle.name.data(),
              sides.iters_per_side);
  for (int i = 0; i < pairs; ++i) {
    double off_ns = 0.0;
    double on_ns = 0.0;
    // Alternate which side runs first so a monotonic load drift across
    // the pair window biases half the pairs each way.
    if (i % 2 == 0) {
      off_ns = timed(false);
      on_ns = timed(true);
    } else {
      on_ns = timed(true);
      off_ns = timed(false);
    }
    std::printf("%s{\"off_ns\": %.0f, \"on_ns\": %.0f}", i == 0 ? "" : ", ",
                off_ns, on_ns);
    std::fprintf(stderr, "pair %d/%d: off %.1f ms, on %.1f ms (ratio %.4f)\n",
                 i + 1, pairs, off_ns / 1e6, on_ns / 1e6, on_ns / off_ns);
  }
  std::printf("]}\n");
  return 0;
}

}  // namespace
}  // namespace ranomaly::bench

int main(int argc, char** argv) {
  using ranomaly::bench::kToggles;
  const int pairs = argc == 3 ? std::atoi(argv[2]) : 0;
  for (const auto& toggle : kToggles) {
    if (pairs > 0 && toggle.name == argv[1]) {
      return ranomaly::bench::RunPairs(toggle, pairs);
    }
  }
  std::fprintf(stderr, "usage: bench_overhead TOGGLE PAIRS\ntoggles:");
  for (const auto& toggle : kToggles) {
    std::fprintf(stderr, " %.*s", static_cast<int>(toggle.name.size()),
                 toggle.name.data());
  }
  std::fprintf(stderr, "\n");
  return 2;
}
