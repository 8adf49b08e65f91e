// The measured process of the repo benchmark.  Loads one RNE1 capture
// written by perfbench_gen, runs one workload on it for a fixed time,
// checks the outputs, and prints one JSON object as its last line.
//
//   perfbench_run --workload replay_internet --capture c.rne1 --seconds 10
//                 --trace 0 --expect-events N --expect-prefixes P
//                 [--work-dir DIR] [--self-check 1]
//
// Every number comes from outside the program: the benchmark times its
// calls into each layer's public functions (collector::LoadBinary,
// core::LiveRunner::Run and its on_tick hook, core::Pipeline::Analyze,
// obs::HttpServer over core::MakeOpsHandler, obs::TimeSeriesStore::
// Sample, tamp::) and, in the traced run, reads per-tick deltas of the
// histograms and counters the program already keeps in
// obs::MetricsRegistry::Global().  It adds nothing inside src/.
//
// A run repeats whole iterations (set-up, timed call, checks, TAMP
// picture) as long as they fit in --seconds, and reports medians.  Two
// fixed single-thread probes timed between iterations give the host's
// speed during the run, so a drifting host shows beside the figures.
// With --trace 1, iterations alternate untraced and traced: the traced
// ones record spans (kept in memory, written to DIR/trace.json at exit)
// and registry deltas, and the per-layer metrics come from them; the
// untraced ones give the baseline the tracing overhead is measured
// against.  See README.md for the workload and metric map.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "collector/binary_io.h"
#include "collector/checkpoint.h"
#include "core/live.h"
#include "core/pipeline.h"
#include "obs/health.h"
#include "obs/http_server.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/timeseries.h"
#include "tamp/animation.h"
#include "tamp/layout.h"
#include "tamp/prune.h"
#include "tamp/render.h"
#include "util/time.h"

namespace {

using namespace ranomaly;
using Clock = std::chrono::steady_clock;

// The earliest point this process can stamp: set-up time of the first
// iteration runs from here.
const Clock::time_point kProcessStart = Clock::now();

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// FNV-1a, printed as 16 hex digits: the incident-log witness compared
// across iterations, processes and thread counts.
std::string Digest(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : bytes) {
    h = (h ^ c) * 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// ---------------------------------------------------------------------
// Spans: name, start, end, the span that caused it, and the iteration
// they belong to.  Kept in memory; written once at exit.

struct Span {
  std::string name;
  std::string thread;
  double start_us = 0.0;
  double end_us = 0.0;
  int id = 0;
  int parent = 0;  // 0 = root
  int iteration = 0;
};

class SpanLog {
 public:
  bool enabled = false;
  int iteration = 0;

  // Records [from, to) under `parent`; returns the span id (0 if off).
  int Add(std::string name, Clock::time_point from, Clock::time_point to,
          int parent = 0, std::string thread = "main") {
    if (!enabled) return 0;
    Span s;
    s.name = std::move(name);
    s.thread = std::move(thread);
    s.start_us = Seconds(kProcessStart, from) * 1e6;
    s.end_us = Seconds(kProcessStart, to) * 1e6;
    s.id = static_cast<int>(spans_.size()) + 1;
    s.parent = parent;
    s.iteration = iteration;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  // Closes a span opened by Add(name, from, from).
  void End(int id, Clock::time_point to) {
    if (id > 0) spans_[static_cast<std::size_t>(id - 1)].end_us = Seconds(kProcessStart, to) * 1e6;
  }

  // Chrome trace-event JSON ("X" complete events, one track per thread).
  bool Write(const std::string& path) const {
    std::ofstream os(path, std::ios::trunc);
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "\"ts\":%.1f,\"dur\":%.1f,\"pid\":1,\"args\":{\"id\":%d,"
                    "\"parent\":%d,\"iteration\":%d}}",
                    s.start_us, s.end_us - s.start_us, s.id, s.parent,
                    s.iteration);
      os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
         << "\",\"ph\":\"X\",\"tid\":\"" << s.thread << "\"," << buf;
    }
    os << "\n]}\n";
    return static_cast<bool>(os.flush());
  }

 private:
  std::vector<Span> spans_;
};

SpanLog g_spans;

// ---------------------------------------------------------------------
// Registry reads: the program's own histograms and counters.

struct RegistryReading {
  double encode_s = 0, count_s = 0, extract_s = 0;
  double spike_pass_s = 0, grass_pass_s = 0;
  double pool_busy_s = 0, pool_job_s = 0, pool_chunks = 0;
  double checkpoint_writes = 0, http_requests = 0, http_rejected = 0;
  double events_encoded = 0, distinct_sequences = 0, arena_symbols = 0;

  double StemSeconds() const { return encode_s + count_s + extract_s; }
};

RegistryReading ReadRegistry() {
  RegistryReading r;
  const std::map<std::string, double*> hist = {
      {"stemming_encode_seconds", &r.encode_s},
      {"stemming_count_seconds", &r.count_s},
      {"stemming_extract_seconds", &r.extract_s},
      {"pipeline_spike_pass_seconds", &r.spike_pass_s},
      {"pipeline_grass_pass_seconds", &r.grass_pass_s},
      {"pool_busy_seconds", &r.pool_busy_s},
      {"pool_job_seconds", &r.pool_job_s},
  };
  const std::map<std::string, double*> counters = {
      {"pool_chunks_total", &r.pool_chunks},
      {"checkpoint_writes_total", &r.checkpoint_writes},
      {"http_requests_total", &r.http_requests},
      {"http_requests_rejected_total", &r.http_rejected},
      {"stemming_events_encoded_total", &r.events_encoded},
      {"stemming_distinct_sequences_total", &r.distinct_sequences},
      {"stemming_arena_symbols_total", &r.arena_symbols},
  };
  for (const obs::MetricSnapshot& m : obs::MetricsRegistry::Global().Snapshot()) {
    if (const auto h = hist.find(m.name); h != hist.end()) {
      *h->second = m.histogram.sum;
    } else if (const auto c = counters.find(m.name); c != counters.end()) {
      *c->second = static_cast<double>(m.counter);
    }
  }
  return r;
}

RegistryReading Delta(const RegistryReading& a, const RegistryReading& b) {
  RegistryReading d;
  d.encode_s = b.encode_s - a.encode_s;
  d.count_s = b.count_s - a.count_s;
  d.extract_s = b.extract_s - a.extract_s;
  d.spike_pass_s = b.spike_pass_s - a.spike_pass_s;
  d.grass_pass_s = b.grass_pass_s - a.grass_pass_s;
  d.pool_busy_s = b.pool_busy_s - a.pool_busy_s;
  d.pool_job_s = b.pool_job_s - a.pool_job_s;
  d.pool_chunks = b.pool_chunks - a.pool_chunks;
  d.checkpoint_writes = b.checkpoint_writes - a.checkpoint_writes;
  d.http_requests = b.http_requests - a.http_requests;
  d.http_rejected = b.http_rejected - a.http_rejected;
  d.events_encoded = b.events_encoded - a.events_encoded;
  d.distinct_sequences = b.distinct_sequences - a.distinct_sequences;
  d.arena_symbols = b.arena_symbols - a.arena_symbols;
  return d;
}

// ---------------------------------------------------------------------
// Output checks: each counted against its attempts.

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void Expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
  }
};

// ---------------------------------------------------------------------
// The open-loop HTTP client: request i is due at start + i / rate and is
// timed from when it was due, so a stall also charges the requests
// queued behind it.

struct HttpReply {
  int status = 0;
  std::string body;
};

HttpReply ParseReply(const std::optional<std::string>& raw) {
  HttpReply reply;
  if (!raw || raw->size() < 12 || raw->compare(0, 5, "HTTP/") != 0) {
    return reply;
  }
  reply.status = std::atoi(raw->c_str() + 9);
  if (const auto at = raw->find("\r\n\r\n"); at != std::string::npos) {
    reply.body = raw->substr(at + 4);
  }
  return reply;
}

std::uint64_t NextSince(const std::string& body) {
  const auto at = body.rfind("\"next_since\":");
  return at == std::string::npos
             ? 0
             : std::strtoull(body.c_str() + at + 13, nullptr, 10);
}

// The request rotation of serve_churn: one scraper plus a slow dashboard
// tab.
std::string Target(std::size_t i, std::uint64_t since) {
  switch (i % 5) {
    case 0:
      return "/metrics";
    case 1:
      return "/varz";
    case 2:
      return "/api/series?name=serve_events_ingested_total";
    case 3:
      return "/api/incidents/timeline";
    default:
      return "/incidents?since=" + std::to_string(since);
  }
}

class OpenLoopClient {
 public:
  OpenLoopClient(std::uint16_t port, double rate) : port_(port), rate_(rate) {}
  ~OpenLoopClient() { Stop(); }
  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  void Start() {
    start_ = Clock::now();
    thread_ = std::thread([this] { Loop(); });
  }
  void Stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }

  // Valid after Stop().
  std::vector<double> latency_ms, lag_ms;
  std::uint64_t attempted = 0, failed = 0, bytes = 0;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> spans;

 private:
  void Loop() {
    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / rate_));
    std::uint64_t since = 0;
    for (std::size_t i = 0;; ++i) {
      const Clock::time_point due = start_ + interval * static_cast<long>(i);
      std::this_thread::sleep_until(due);
      if (stop_.load(std::memory_order_relaxed)) break;
      const Clock::time_point sent = Clock::now();
      const std::string target = Target(i, since);
      const HttpReply reply = ParseReply(obs::HttpGet(port_, target, 2000));
      const Clock::time_point done = Clock::now();
      ++attempted;
      if (reply.status != 200 || reply.body.empty()) {
        ++failed;
        std::fprintf(stderr, "request %s: status %d, %zu body bytes\n",
                     target.c_str(), reply.status, reply.body.size());
      }
      if (target.rfind("/incidents?", 0) == 0) since = NextSince(reply.body);
      bytes += reply.body.size();
      lag_ms.push_back(Seconds(due, sent) * 1e3);
      latency_ms.push_back(Seconds(due, done) * 1e3);
      spans.emplace_back(sent, done);
    }
  }

  std::uint16_t port_;
  double rate_;
  Clock::time_point start_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---------------------------------------------------------------------
// Workloads.

struct Workload {
  std::string name;
  bool replay = true;        // LiveRunner::Run; otherwise Pipeline::Analyze
  std::size_t threads = 4;   // analysis threads
  bool serve = false;        // full serve sinks, HttpServer and its client
};

// The open-loop client's rate, requests per second.
constexpr double kRequestRate = 50;
// Analyze passes per set-up on batch_full.
constexpr int kAnalyzePasses = 4;
// Seconds of TAMP pictures per iteration (at least one picture) in runs
// of 30 s or more.
constexpr double kPictureSeconds = 1.5;
// The CPU probe's reading (SpinMs) on the reference host, a 4-vCPU Xeon
// VM.  End-to-end timings are scaled to it: on a shared host the speed
// of the whole machine drifts over minutes, and a run's timings follow
// the run's median probe reading (README.md, "Steadiness").
constexpr double kReferenceSpinMs = 45.0;

std::optional<Workload> FindWorkload(const std::string& name) {
  if (name == "replay_internet") return Workload{name, true, 2, false};
  if (name == "serve_churn") return Workload{name, true, 1, true};
  if (name == "batch_full") return Workload{name, false, 4, false};
  return std::nullopt;
}

struct Args {
  std::string workload, capture, work_dir = ".";
  double seconds = 10;
  bool trace = false;
  bool self_check = false;
  std::uint64_t expect_events = 0;
  std::uint64_t expect_prefixes = 0;
};

std::optional<Args> Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--capture") a.capture = v;
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--self-check") a.self_check = v == "1";
    else if (k == "--expect-events") a.expect_events = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--expect-prefixes") a.expect_prefixes = std::strtoull(v.c_str(), nullptr, 10);
    else return std::nullopt;
  }
  if (a.workload.empty() || a.capture.empty() || a.seconds <= 0) return std::nullopt;
  return a;
}

// Everything a run accumulates, untraced and traced.
struct Samples {
  // End-to-end, from untraced iterations.  On the replays each iteration
  // adds its vector of tick wall times (the same ticks every time: the
  // replay is deterministic) and the time from the last tick to the end
  // of Run.
  std::vector<std::vector<double>> tick_runs;
  std::vector<double> tail_ms;
  std::vector<double> events_per_s, analyze_ms, setup_s, picture_s;
  std::vector<double> scrape_p50_ms, scrape_p90_ms;  // per 100 requests
  double events = 0;
  // Untraced iterations after the first: the tracing-overhead baseline,
  // free of the first iteration's cold caches and heap growth.
  std::vector<double> warm_events_per_s;
  // Traced iterations.
  std::vector<double> traced_events_per_s;
  std::vector<double> load_s, load_mb_per_s;
  std::vector<double> tick_self_ms, checkpoint_tick_ms, lag_ms;
  double ticks = 0, tick_wall_s = 0, tick_stem_s = 0;
  double analyze_s = 0, spike_pass_s = 0, grass_pass_s = 0, pipeline_self_s = 0;
  double incidents = 0;  // in the last traced iteration's log
  double events_ingested = 0;
  RegistryReading reg;  // summed deltas over traced timed calls
  double checkpoint_writes = 0, checkpoint_failures = 0;
  double checkpoint_bytes_first = 0, checkpoint_bytes_last = 0;
  double http_requests = 0, http_rejected = 0, http_bytes = 0, client_requests = 0;
  std::vector<double> handler_ms, sample_ms;
  double series_count = 0, provenance_records = 0;
  double play_s = 0, prune_s = 0, layout_s = 0, render_s = 0;
  double nodes = 0, edges = 0, svg_bytes = 0;
  std::vector<double> traced_pictures;
  int traced_iterations = 0;
  int traced_calls = 0;  // replays or Analyze passes
  std::string digest;
  double peak_rss_mb = 0;
  std::vector<double> spin_ms, chase_ms;
};

// Max RSS of this process so far.
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// The host-speed probes, each the median of three back-to-back timings
// on one thread.  Nothing in them depends on the program, so they move
// only when the host does.  SpinMs is a chain of dependent xorshift
// steps: the CPU.  ChaseMs follows one random cycle through 32 MiB, past
// the per-core caches: the shared cache and memory, which the picture
// and Analyze lean on and which busy neighbours slow more than the CPU.
volatile std::uint64_t g_probe_sink;

std::uint64_t XorShift(std::uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

template <typename Body>
double ProbeMs(Body body) {
  std::vector<double> ms;
  for (int round = 0; round < 3; ++round) {
    const Clock::time_point t0 = Clock::now();
    g_probe_sink = body();
    ms.push_back(Seconds(t0, Clock::now()) * 1e3);
  }
  return Median(ms);
}

double SpinMs() {
  return ProbeMs([] {
    std::uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 20'000'000; ++i) x = XorShift(x);
    return x;
  });
}

double ChaseMs() {
  // Sattolo's shuffle: a single cycle through every slot, built once.
  static const std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> v(std::size_t{1} << 23);
    std::iota(v.begin(), v.end(), 0u);
    std::uint64_t x = 88172645463325252ULL;
    for (std::size_t i = v.size() - 1; i > 0; --i) {
      x = XorShift(x);
      std::swap(v[i], v[x % i]);
    }
    return v;
  }();
  return ProbeMs([] {
    std::uint32_t at = 0;
    for (int i = 0; i < 250'000; ++i) at = next[at];
    return std::uint64_t{at};
  });
}

// The 5% TAMP picture of the whole capture: Play -> Prune ->
// ComputeLayout -> RenderSvg.  Returns the total picture seconds.
double Picture(const collector::EventStream& stream, bool traced,
               std::uint64_t expect_prefixes, Samples& s, Checks& checks) {
  const Clock::time_point t0 = Clock::now();
  tamp::Animator animator({}, tamp::AnimationOptions{});
  animator.Play(stream.events());
  const Clock::time_point t1 = Clock::now();
  const tamp::PrunedGraph pruned = tamp::Prune(animator.graph(), {.threshold = 0.05});
  const Clock::time_point t2 = Clock::now();
  const tamp::Layout layout = tamp::ComputeLayout(pruned);
  const Clock::time_point t3 = Clock::now();
  const std::string svg = tamp::RenderSvg(pruned, layout, {});
  const Clock::time_point t4 = Clock::now();
  checks.Expect(pruned.total_prefixes == expect_prefixes,
                "picture total_prefixes " + std::to_string(pruned.total_prefixes) +
                    " != capture routed prefixes " + std::to_string(expect_prefixes));
  checks.Expect(!svg.empty() && !pruned.edges.empty(), "picture is empty");
  if (traced) {
    const int root = g_spans.Add("tamp.picture", t0, t4);
    g_spans.Add("tamp.Animator::Play", t0, t1, root);
    g_spans.Add("tamp.Prune", t1, t2, root);
    g_spans.Add("tamp.ComputeLayout", t2, t3, root);
    g_spans.Add("tamp.RenderSvg", t3, t4, root);
    s.play_s += Seconds(t0, t1);
    s.prune_s += Seconds(t1, t2);
    s.layout_s += Seconds(t2, t3);
    s.render_s += Seconds(t3, t4);
    s.nodes = static_cast<double>(pruned.nodes.size());
    s.edges = static_cast<double>(pruned.edges.size());
    s.svg_bytes = static_cast<double>(svg.size());
  }
  return Seconds(t0, t4);
}

obs::HttpRequest MakeRequest(const std::string& target) {
  obs::HttpRequest req;
  req.method = "GET";
  req.version = "HTTP/1.1";
  req.target = target;
  const auto q = target.find('?');
  req.path = target.substr(0, q);
  req.query = q == std::string::npos ? "" : target.substr(q + 1);
  return req;
}

// Layer probes run after a traced iteration's timed call: the request
// rotation on the handler with no socket, and TimeSeriesStore::Sample of
// the end-of-run registry into a fresh store.
void ProbeObs(const obs::HttpServer::Handler& handler, Samples& s) {
  for (std::size_t i = 0; i < 50; ++i) {
    const obs::HttpRequest req = MakeRequest(Target(i, 0));
    const Clock::time_point t0 = Clock::now();
    const obs::HttpResponse resp = handler(req);
    s.handler_ms.push_back(Seconds(t0, Clock::now()) * 1e3);
    if (resp.body.empty()) std::fprintf(stderr, "empty handler reply\n");
  }
  obs::TimeSeriesStore store;
  for (std::int64_t i = 0; i < 20; ++i) {
    const Clock::time_point t0 = Clock::now();
    store.Sample(obs::MetricsRegistry::Global(), i * util::kSecond);
    const Clock::time_point t1 = Clock::now();
    g_spans.Add("obs.TimeSeriesStore::Sample", t0, t1);
    s.sample_ms.push_back(Seconds(t0, t1) * 1e3);
  }
  s.series_count = static_cast<double>(store.series_count());
}

// What set-up builds.  The handler borrows the sinks, so the server is
// declared last and stops first.  Only serve_churn has a handler and a
// server.
struct Rig {
  std::optional<collector::EventStream> stream;
  std::string checkpoint;
  obs::HealthRegistry health;
  core::IncidentLog log;
  std::unique_ptr<obs::TimeSeriesStore> series;
  std::unique_ptr<obs::ProvenanceLedger> ledger;
  core::LiveOptions options;
  std::unique_ptr<core::LiveRunner> runner;
  std::unique_ptr<core::Pipeline> pipeline;
  obs::HttpServer::Handler handler;
  std::unique_ptr<obs::HttpServer> server;
};

// Set-up: load the capture, build the runner or pipeline with its pool,
// and on serve_churn start the server.  Returns nullptr (and fails a
// check) on error.
std::unique_ptr<Rig> SetUp(const Args& args, const Workload& w, bool traced,
                           Samples& s, Checks& checks) {
  auto rig = std::make_unique<Rig>();
  const Clock::time_point load0 = Clock::now();
  if (std::ifstream is(args.capture, std::ios::binary); is) {
    rig->stream = collector::LoadBinary(is);
  }
  const Clock::time_point load1 = Clock::now();
  checks.Expect(rig->stream.has_value(), "LoadBinary failed on " + args.capture);
  if (!rig->stream) return nullptr;
  g_spans.Add("collector.LoadBinary", load0, load1);
  if (traced) {
    const double mb = static_cast<double>(std::filesystem::file_size(args.capture)) / 1e6;
    s.load_s.push_back(Seconds(load0, load1));
    s.load_mb_per_s.push_back(Ratio(mb, Seconds(load0, load1)));
  }

  rig->checkpoint = args.work_dir + "/" + w.name + ".ckpt";
  std::filesystem::remove(rig->checkpoint);
  std::filesystem::remove(rig->checkpoint + ".tmp");
  if (w.serve) {
    rig->series = std::make_unique<obs::TimeSeriesStore>();
    rig->ledger = std::make_unique<obs::ProvenanceLedger>();
  }
  core::LiveOptions& options = rig->options;
  options.pipeline.threads = w.threads;
  options.tick = 10 * util::kSecond;
  options.window = 5 * util::kMinute;
  if (w.serve) {
    options.checkpoint_path = rig->checkpoint;
    options.checkpoint_every_ticks = 16;
  }
  if (w.replay) {
    rig->runner = std::make_unique<core::LiveRunner>(
        options, &rig->health, &rig->log, rig->series.get(), rig->ledger.get());
  } else {
    rig->pipeline = std::make_unique<core::Pipeline>(options.pipeline);
  }
  const Clock::time_point built = Clock::now();
  g_spans.Add(w.replay ? "core.LiveRunner::LiveRunner" : "core.Pipeline::Pipeline",
              load1, built);
  if (!w.serve) return rig;
  core::OpsInfo info;
  info.stream_path = args.capture;
  info.threads = w.threads;
  info.slo_target_sec = options.slo_target_sec;
  info.tick_sec = util::ToSeconds(options.tick);
  info.window_sec = util::ToSeconds(options.window);
  info.checkpoint_path = options.checkpoint_path;
  info.t0 = rig->stream->empty() ? 0 : rig->stream->front().time;
  info.tick = options.tick;
  rig->handler = core::MakeOpsHandler(&obs::MetricsRegistry::Global(), &rig->health,
                                      &rig->log, info, rig->series.get(),
                                      /*dashboard=*/true, rig->ledger.get());
  const Clock::time_point handler_built = Clock::now();
  rig->server = std::make_unique<obs::HttpServer>(rig->handler);
  std::string error;
  const bool started = rig->server->Start(0, &error);
  g_spans.Add("obs.HttpServer::Start", handler_built, Clock::now());
  checks.Expect(started, "HttpServer::Start: " + error);
  return started ? std::move(rig) : nullptr;
}

// Quantiles of each run of 100 consecutive requests (a trailing run of
// at least 50 counts too), so a stall of the shared host weighs on a few
// runs instead of shifting one pooled quantile.
void ScrapeQuantiles(const std::vector<double>& latency_ms, Samples& s) {
  for (std::size_t at = 0; at + 50 <= latency_ms.size(); at += 100) {
    const std::vector<double> run(
        latency_ms.begin() + static_cast<std::ptrdiff_t>(at),
        latency_ms.begin() + static_cast<std::ptrdiff_t>(std::min(at + 100, latency_ms.size())));
    s.scrape_p50_ms.push_back(Quantile(run, 0.5));
    s.scrape_p90_ms.push_back(Quantile(run, 0.9));
  }
}

// One iteration: set-up, the timed call, the picture and the output
// checks, with the open-loop client running during serve_churn's replay;
// then, traced, the layer probes.
void Iterate(const Args& args, const Workload& w, int iteration, bool traced,
             Samples& s, Checks& checks) {
  g_spans.enabled = traced;
  g_spans.iteration = iteration;
  const Clock::time_point setup0 = iteration == 0 ? kProcessStart : Clock::now();
  obs::MetricsRegistry::Global().Reset();
  const std::unique_ptr<Rig> rig = SetUp(args, w, traced, s, checks);
  if (!rig) return;
  const Clock::time_point setup1 = Clock::now();
  if (!traced) s.setup_s.push_back(Seconds(setup0, setup1));
  const collector::EventStream& stream = *rig->stream;

  // --- the timed call.
  std::optional<OpenLoopClient> client;
  if (w.serve) client.emplace(rig->server->port(), kRequestRate);
  const RegistryReading before = traced ? ReadRegistry() : RegistryReading{};
  RegistryReading prev = before;
  std::vector<Clock::time_point> tick_ends;
  tick_ends.reserve(512);
  int timed_span = 0;
  double events = 0;
  Clock::time_point t0, t1;
  if (w.replay) {
    bool checkpoint_seen = false;
    const auto on_tick = [&](const core::LiveStats&) {
      const Clock::time_point now = Clock::now();
      const Clock::time_point from = tick_ends.empty() ? t0 : tick_ends.back();
      tick_ends.push_back(now);
      // The scraper starts once the first tick has data to serve.
      if (tick_ends.size() == 1 && client) client->Start();
      if (!traced) return;
      const RegistryReading cur = ReadRegistry();
      const RegistryReading d = Delta(prev, cur);
      prev = cur;
      const double tick_ms = Seconds(from, now) * 1e3;
      s.tick_self_ms.push_back(tick_ms - d.StemSeconds() * 1e3);
      s.tick_wall_s += Seconds(from, now);
      s.tick_stem_s += d.StemSeconds();
      if (d.checkpoint_writes > 0) {
        s.checkpoint_tick_ms.push_back(tick_ms);
        if (!checkpoint_seen && std::filesystem::exists(rig->checkpoint)) {
          s.checkpoint_bytes_first =
              static_cast<double>(std::filesystem::file_size(rig->checkpoint));
          checkpoint_seen = true;
        }
      }
      g_spans.Add("core.live.tick", from, now, timed_span);
    };
    t0 = Clock::now();
    timed_span = g_spans.Add("core.LiveRunner::Run", t0, t0);
    const core::LiveStats stats = rig->runner->Run(stream, nullptr, on_tick);
    t1 = Clock::now();
    events = static_cast<double>(stats.events_ingested);
    checks.Expect(stats.events_ingested == args.expect_events,
                  "events ingested " + std::to_string(stats.events_ingested) +
                      " != capture events " + std::to_string(args.expect_events));
    // The churn stream's failover classifies as a path change on some
    // seeds only (README.md), so only replay_internet must find one.
    if (!w.serve) checks.Expect(stats.incidents >= 1, "replay yielded no incident");
    checks.Expect(stats.events_shed == 0, "events were shed");
    if (traced) {
      s.ticks += static_cast<double>(stats.ticks);
      s.checkpoint_writes += static_cast<double>(stats.checkpoint_writes);
      s.checkpoint_failures += static_cast<double>(stats.checkpoint_failures);
    } else if (!tick_ends.empty()) {
      std::vector<double> gaps;
      for (std::size_t i = 0; i < tick_ends.size(); ++i) {
        gaps.push_back(Seconds(i == 0 ? t0 : tick_ends[i - 1], tick_ends[i]) * 1e3);
      }
      s.tick_runs.push_back(std::move(gaps));
      s.tail_ms.push_back(Seconds(tick_ends.back(), t1) * 1e3);
    }
    const double eps = events / Seconds(t0, t1);
    (traced ? s.traced_events_per_s : s.events_per_s).push_back(eps);
    if (!traced && iteration > 0) s.warm_events_per_s.push_back(eps);
    g_spans.End(timed_span, t1);
    if (client) client->Stop();
    // The live loop's peak, before the picture can add its own.
    if (iteration == 0) s.peak_rss_mb = PeakRssMb();
  } else {
    // Several whole-capture passes per set-up, each a timed call: the
    // batch mode's analysis cycle, so their quantiles are its "ticks".
    t0 = Clock::now();
    for (int pass = 0; pass < kAnalyzePasses; ++pass) {
      const Clock::time_point p0 = Clock::now();
      const int span = g_spans.Add("core.Pipeline::Analyze", p0, p0);
      std::vector<core::Incident> incidents = rig->pipeline->Analyze(stream);
      const Clock::time_point p1 = Clock::now();
      g_spans.End(span, p1);
      core::IncidentLog pass_log;
      core::IncidentLog& into = pass == 0 ? rig->log : pass_log;
      for (core::Incident& inc : incidents) into.Append(std::move(inc));
      if (pass > 0) {
        checks.Expect(pass_log.ToJson(0) == rig->log.ToJson(0),
                      "Analyze passes over one capture disagree");
      }
      const double eps = static_cast<double>(stream.size()) / Seconds(p0, p1);
      (traced ? s.traced_events_per_s : s.events_per_s).push_back(eps);
      if (!traced && (iteration > 0 || pass > 0)) s.warm_events_per_s.push_back(eps);
      if (!traced) s.analyze_ms.push_back(Seconds(p0, p1) * 1e3);
    }
    t1 = Clock::now();
    events = static_cast<double>(stream.size()) * kAnalyzePasses;
  }
  if (w.replay) s.events = events;
  std::fprintf(stderr, "iteration %d%s: set-up %.3f s, timed %.3f s, %.0f events/s\n",
               iteration, traced ? " (traced)" : "", Seconds(setup0, setup1),
               Seconds(t0, t1), events / Seconds(t0, t1));

  // --- the picture an operator asks for.  Pictures of the small captures
  // repeat, so each iteration spends about kPictureSeconds on them (less
  // in short runs) and picture_s is a median of many.
  const double picture_budget = std::min(kPictureSeconds, args.seconds / 20);
  double pictures_s = 0.0;
  do {
    const double picture = Picture(stream, traced, args.expect_prefixes, s, checks);
    (traced ? s.traced_pictures : s.picture_s).push_back(picture);
    pictures_s += picture;
  } while (pictures_s < picture_budget);
  if (iteration == 0 && !w.replay) s.peak_rss_mb = PeakRssMb();

  // --- checks on the outputs.
  const std::string digest = Digest(rig->log.ToJson(0));
  checks.Expect(s.digest.empty() || s.digest == digest,
                "incident log digest changed between iterations");
  if (s.digest.empty()) s.digest = digest;
  if (w.serve) {
    for (const auto& [sent, done] : client->spans) {
      g_spans.Add("obs.http.request", sent, done, 0, "client");
    }
    checks.attempted += client->attempted;
    checks.failed += client->failed;
    if (client->failed > 0) checks.failures.push_back("HTTP request failed or timed out");
    checks.Expect(client->attempted > 0, "no HTTP request was sent");
    const HttpReply all =
        ParseReply(obs::HttpGet(rig->server->port(), "/incidents?since=0", 2000));
    std::size_t listed = 0;
    for (auto at = all.body.find("{\"seq\":"); at != std::string::npos;
         at = all.body.find("{\"seq\":", at + 1)) {
      ++listed;
    }
    checks.Expect(all.status == 200 && listed == rig->log.size(),
                  "/incidents?since=0 lists " + std::to_string(listed) + " of " +
                      std::to_string(rig->log.size()) + " incidents");
    collector::LoadDiagnostics diag;
    const auto ck = collector::ReadCheckpointFile(rig->checkpoint, &diag);
    checks.Expect(ck.has_value(), "final checkpoint does not reload: " + diag.ToString());
    if (traced && std::filesystem::exists(rig->checkpoint)) {
      s.checkpoint_bytes_last =
          static_cast<double>(std::filesystem::file_size(rig->checkpoint));
    }
  }
  if (!traced) {
    if (client) ScrapeQuantiles(client->latency_ms, s);
  } else {
    const RegistryReading d = Delta(before, ReadRegistry());
    s.reg.encode_s += d.encode_s;
    s.reg.count_s += d.count_s;
    s.reg.extract_s += d.extract_s;
    s.reg.pool_busy_s += d.pool_busy_s;
    s.reg.pool_job_s += d.pool_job_s;
    s.reg.pool_chunks += d.pool_chunks;
    s.reg.events_encoded += d.events_encoded;
    s.reg.distinct_sequences += d.distinct_sequences;
    s.reg.arena_symbols += d.arena_symbols;
    s.http_requests += d.http_requests;
    s.http_rejected += d.http_rejected;
    s.events_ingested += events;
    s.incidents = static_cast<double>(rig->log.size());
    s.traced_calls += w.replay ? 1 : kAnalyzePasses;
    if (!w.replay) {
      s.analyze_s += Seconds(t0, t1);
      s.spike_pass_s += d.spike_pass_s;
      s.grass_pass_s += d.grass_pass_s;
      s.pipeline_self_s += Seconds(t0, t1) - d.StemSeconds();
    } else {
      // The pipeline layer on the replay's capture: one whole-capture
      // Analyze per traced replay, at the replay's thread count.
      core::Pipeline pipeline(rig->options.pipeline);
      const RegistryReading a0 = ReadRegistry();
      const Clock::time_point p0 = Clock::now();
      const int span = g_spans.Add("core.Pipeline::Analyze", p0, p0);
      pipeline.Analyze(stream);
      const Clock::time_point p1 = Clock::now();
      g_spans.End(span, p1);
      const RegistryReading a = Delta(a0, ReadRegistry());
      s.analyze_s += Seconds(p0, p1);
      s.spike_pass_s += a.spike_pass_s;
      s.grass_pass_s += a.grass_pass_s;
      s.pipeline_self_s += Seconds(p0, p1) - a.StemSeconds();
    }
    if (rig->ledger) s.provenance_records = static_cast<double>(rig->ledger->size());
    if (client) {
      s.http_bytes += static_cast<double>(client->bytes);
      s.client_requests += static_cast<double>(client->attempted);
      s.lag_ms.insert(s.lag_ms.end(), client->lag_ms.begin(), client->lag_ms.end());
      ProbeObs(rig->handler, s);
    }
    ++s.traced_iterations;
  }
  if (rig->server) rig->server->Stop();

  // --- self-check: the 1-thread and 4-thread replays must give the same
  // incidents as the measured one.
  if (args.self_check && w.replay && !w.serve && iteration == 0) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      if (threads == w.threads) continue;
      obs::HealthRegistry health;
      core::IncidentLog log;
      core::LiveOptions other = rig->options;
      other.pipeline.threads = threads;
      core::LiveRunner(other, &health, &log).Run(stream);
      checks.Expect(Digest(log.ToJson(0)) == digest,
                    std::to_string(threads) + "-thread and " +
                        std::to_string(w.threads) +
                        "-thread replays give different incident digests");
    }
  }
  std::filesystem::remove(rig->checkpoint);
}

// Set-ups alone, untimed by the trace: for `budget_s` seconds and until
// setup_s holds at least `at_least` samples.  Run after every iteration,
// so the samples spread over the run instead of catching one moment of
// the host.
void SetUpsAlone(const Args& args, const Workload& w, double budget_s,
                 std::size_t at_least, Samples& s, Checks& checks) {
  g_spans.enabled = false;
  const Clock::time_point begin = Clock::now();
  while (checks.failed == 0 &&
         (s.setup_s.size() < at_least || Seconds(begin, Clock::now()) < budget_s)) {
    const Clock::time_point setup0 = Clock::now();
    if (SetUp(args, w, false, s, checks)) s.setup_s.push_back(Seconds(setup0, Clock::now()));
  }
}

// Per-tick medians across the untraced replays.
std::vector<double> TickMedians(const std::vector<std::vector<double>>& runs) {
  std::size_t ticks = runs.empty() ? 0 : runs.front().size();
  for (const auto& run : runs) ticks = std::min(ticks, run.size());
  std::vector<double> medians;
  for (std::size_t j = 0; j < ticks; ++j) {
    std::vector<double> at;
    for (const auto& run : runs) at.push_back(run[j]);
    medians.push_back(Median(at));
  }
  return medians;
}

void PrintMetric(bool& first, const char* name, double value, const char* unit) {
  std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", first ? "" : ", ",
              name, std::isfinite(value) ? value : 0.0, unit);
  first = false;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = Parse(argc, argv);
  const auto workload = args ? FindWorkload(args->workload) : std::nullopt;
  if (!args || !workload) {
    std::fprintf(stderr,
                 "usage: perfbench_run --workload replay_internet|serve_churn|"
                 "batch_full --capture FILE --seconds S --trace 0|1 "
                 "--expect-events N --expect-prefixes P [--work-dir DIR] "
                 "[--self-check 1]\n");
    return 2;
  }
  const Workload& w = *workload;
  Samples s;
  Checks checks;
  // As many whole iterations as fit in --seconds, judged by the longest
  // so far.  A traced run needs at least three: a cold untraced one, then
  // traced and untraced alternately, so the overhead compares warm
  // iterations only.  An untraced replay needs three too, so each tick's
  // time is a median and not the mean of two when the host is slow.
  // After each iteration come set-ups alone (a seventieth of --seconds)
  // and the host-speed probes.
  // Peak RSS is read in the first iteration (Iterate), before later ones
  // can add allocator fragmentation that depends on how many fit in a run.
  const Clock::time_point begin = Clock::now();
  const int min_iterations = args->trace || w.replay ? 3 : 1;
  int iteration = 0;
  double longest = 0.0;
  while (checks.failed == 0) {
    const Clock::time_point it0 = Clock::now();
    Iterate(*args, w, iteration, args->trace && iteration % 2 == 1, s, checks);
    SetUpsAlone(*args, w, args->seconds / 70, 0, s, checks);
    s.spin_ms.push_back(SpinMs());
    s.chase_ms.push_back(ChaseMs());
    ++iteration;
    longest = std::max(longest, Seconds(it0, Clock::now()));
    const double elapsed = Seconds(begin, Clock::now());
    if (iteration >= min_iterations && elapsed + longest > args->seconds) {
      break;
    }
  }
  // setup_s is a median of at least seven.
  SetUpsAlone(*args, w, 0, 7, s, checks);
  if (args->trace && !g_spans.Write(args->work_dir + "/trace.json")) {
    std::fprintf(stderr, "cannot write %s/trace.json\n", args->work_dir.c_str());
  }

  // Replays: tick quantiles and events/s from per-tick medians across
  // iterations.  Batch: the analysis cycle is one whole-capture Analyze
  // pass, so its quantiles stand in for the tick's.
  std::vector<double> ticks_ms = s.analyze_ms;
  double events_per_s = Median(s.events_per_s);
  if (w.replay) {
    ticks_ms = TickMedians(s.tick_runs);
    double total_ms = Median(s.tail_ms);
    for (const double ms : ticks_ms) total_ms += ms;
    events_per_s = Ratio(s.events, total_ms / 1e3);
  }

  std::printf("{\"iterations\": %d, \"attempted\": %llu, \"failed\": %llu, "
              "\"digest\": \"%s\", \"failures\": [",
              iteration, static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed), s.digest.c_str());
  for (std::size_t i = 0; i < checks.failures.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", checks.failures[i].c_str());
  }
  for (const auto& [key, values] : {std::pair{"host_spin_ms", &s.spin_ms},
                                    std::pair{"host_chase_ms", &s.chase_ms}}) {
    std::printf("], \"%s\": [", key);
    for (std::size_t i = 0; i < values->size(); ++i) {
      std::printf("%s%.6g", i ? ", " : "", (*values)[i]);
    }
  }
  std::printf("], \"metrics\": {");
  bool first = true;
  const auto m = [&first](const char* name, double value, const char* unit) {
    PrintMetric(first, name, value, unit);
  };
  // From untraced iterations: the end-to-end metrics, scaled to the
  // reference host speed and as measured (raw.*), and the scrape
  // quantiles (per-layer in BENCHMARK.json).
  const double slowdown = Median(s.spin_ms) / kReferenceSpinMs;
  struct Timing {
    const char* name;
    double value;
    const char* unit;
  };
  const Timing timings[] = {
      {"tick_p50_ms", Quantile(ticks_ms, 0.5), "ms"},
      {"tick_p90_ms", Quantile(ticks_ms, 0.9), "ms"},
      {"picture_s", Median(s.picture_s), "s"},
      {"setup_s", Median(s.setup_s), "s"},
  };
  m("events_per_s", events_per_s * slowdown, "1/s");
  m("raw.events_per_s", events_per_s, "1/s");
  for (const Timing& t : timings) {
    m(t.name, t.value / slowdown, t.unit);
    m(("raw." + std::string(t.name)).c_str(), t.value, t.unit);
  }
  m("scrape_p50_ms", Median(s.scrape_p50_ms), "ms");
  m("scrape_p90_ms", Median(s.scrape_p90_ms), "ms");
  m("peak_rss_mb", s.peak_rss_mb, "MB");
  if (args->trace) {
    // Per timed call (one replay or one Analyze pass), per picture, or
    // per iteration for the HTTP client.
    const double n = std::max(1, s.traced_calls);
    const double per_iteration = std::max(1, s.traced_iterations);
    const double pictures = std::max<double>(1, static_cast<double>(s.traced_pictures.size()));
    const RegistryReading& r = s.reg;
    m("trace.events_per_s", Median(s.traced_events_per_s), "1/s");
    m("trace.overhead",
      1.0 - Ratio(Median(s.traced_events_per_s), Median(s.warm_events_per_s)), "ratio");
    m("host.spin_ms", Median(s.spin_ms), "ms");
    m("host.chase_ms", Median(s.chase_ms), "ms");
    m("collector.load_s", Median(s.load_s), "s");
    m("collector.load_mb_per_s", Median(s.load_mb_per_s), "MB/s");
    m("core.live.ticks", s.ticks / n, "count");
    m("core.live.tick_self_ms_p50", Quantile(s.tick_self_ms, 0.5), "ms");
    m("core.live.tick_self_share", Ratio(s.tick_wall_s - s.tick_stem_s, s.tick_wall_s),
      "ratio");
    m("core.pipeline.analyze_s", s.analyze_s / n, "s");
    m("core.pipeline.spike_pass_s", s.spike_pass_s / n, "s");
    m("core.pipeline.grass_pass_s", s.grass_pass_s / n, "s");
    m("core.pipeline.self_s", s.pipeline_self_s / n, "s");
    m("core.pipeline.incidents", s.incidents, "count");
    m("stemming.encode_s", r.encode_s / n, "s");
    m("stemming.count_s", r.count_s / n, "s");
    m("stemming.extract_s", r.extract_s / n, "s");
    m("stemming.events_encoded", r.events_encoded / n, "count");
    m("stemming.encode_per_event", Ratio(r.events_encoded, s.events_ingested), "ratio");
    m("stemming.dedup_ratio", Ratio(r.distinct_sequences, r.events_encoded), "ratio");
    m("stemming.arena_symbols", r.arena_symbols / n, "count");
    m("util.pool.busy_s", r.pool_busy_s / n, "s");
    m("util.pool.job_s", r.pool_job_s / n, "s");
    m("util.pool.parallelism", Ratio(r.pool_busy_s, r.pool_job_s), "ratio");
    m("util.pool.utilization",
      Ratio(r.pool_busy_s, r.pool_job_s * static_cast<double>(w.threads)), "ratio");
    m("util.pool.chunks", r.pool_chunks / n, "count");
    m("core.checkpoint.writes", s.checkpoint_writes / n, "count");
    m("core.checkpoint.failures", s.checkpoint_failures / n, "count");
    m("core.checkpoint.bytes_first", s.checkpoint_bytes_first, "bytes");
    m("core.checkpoint.bytes_last", s.checkpoint_bytes_last, "bytes");
    m("core.checkpoint.tick_ms_p50", Quantile(s.checkpoint_tick_ms, 0.5), "ms");
    m("obs.http.requests", s.http_requests / per_iteration, "count");
    m("obs.http.rejected", s.http_rejected / per_iteration, "count");
    m("obs.http.handler_p50_ms", Quantile(s.handler_ms, 0.5), "ms");
    m("obs.http.response_bytes", Ratio(s.http_bytes, s.client_requests), "bytes");
    m("obs.http.generator_lag_ms", Quantile(s.lag_ms, 0.9), "ms");
    m("obs.series.count", s.series_count, "count");
    m("obs.series.sample_ms", Quantile(s.sample_ms, 0.5), "ms");
    m("obs.provenance.records", s.provenance_records, "count");
    m("tamp.play_s", s.play_s / pictures, "s");
    m("tamp.prune_s", s.prune_s / pictures, "s");
    m("tamp.layout_s", s.layout_s / pictures, "s");
    m("tamp.render_s", s.render_s / pictures, "s");
    m("tamp.nodes", s.nodes, "count");
    m("tamp.edges", s.edges, "count");
    m("tamp.svg_bytes", s.svg_bytes, "bytes");
  }
  std::printf("}}\n");
  return checks.failed == 0 ? 0 : 1;
}
