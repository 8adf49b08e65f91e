#include "core/live.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <utility>

#include "collector/checkpoint.h"
#include "core/live_checkpoint.h"
#include "obs/dashboard.h"
#include "obs/trace.h"
#include "stemming/window_stemmer.h"
#include "util/log.h"
#include "util/strings.h"

namespace ranomaly::core {

namespace {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += util::StrPrintf("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string PeerComponentName(bgp::Ipv4Addr peer) {
  return "peer/" + peer.ToString();
}

const char* ShedLevelAction(int level) {
  switch (level) {
    case 1: return "tracing suspended";
    case 2: return "analysis cadence halved";
    case 3: return "sampling arrivals";
  }
  return "nominal";
}

}  // namespace

// ---------------------------------------------------------------------------
// IncidentLog

std::uint64_t IncidentLog::Append(Incident incident) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t seq = entries_.size() + 1;
  entries_.push_back(Entry{seq, std::move(incident)});
  return seq;
}

bool IncidentLog::Restore(std::vector<Entry> entries) {
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].seq != i + 1) {
      std::lock_guard<std::mutex> lock(mu_);
      entries_.clear();
      return false;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  entries_ = std::move(entries);
  return true;
}

std::vector<IncidentLog::Entry> IncidentLog::Since(std::uint64_t since) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry> out;
  if (since < entries_.size()) {
    out.assign(entries_.begin() + static_cast<std::ptrdiff_t>(since),
               entries_.end());
  }
  return out;
}

std::size_t IncidentLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::string IncidentLog::ToJson(std::uint64_t since) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"incidents\":[";
  bool first = true;
  for (std::size_t i = since; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    const Incident& inc = e.incident;
    if (!first) out += ',';
    first = false;
    out += util::StrPrintf(
        "{\"seq\":%llu,\"kind\":\"%s\",\"begin_sec\":%.3f,\"end_sec\":%.3f,"
        "\"event_count\":%zu,\"prefix_count\":%zu,\"stem\":\"%s\","
        "\"summary\":\"%s\",\"detected_at_sec\":%.3f,"
        "\"detection_latency_sec\":%.3f,\"feed_degraded\":%s,"
        "\"load_shed\":%s}",
        static_cast<unsigned long long>(e.seq), ToString(inc.kind),
        util::ToSeconds(inc.begin), util::ToSeconds(inc.end), inc.event_count,
        inc.prefix_count, JsonEscape(inc.stem_label).c_str(),
        JsonEscape(inc.summary).c_str(), util::ToSeconds(inc.detected_at),
        inc.detection_latency_sec, inc.feed_degraded ? "true" : "false",
        inc.load_shed ? "true" : "false");
  }
  out += util::StrPrintf("],\"next_since\":%llu}",
                         static_cast<unsigned long long>(entries_.size()));
  return out;
}

// ---------------------------------------------------------------------------
// PeerBoard

void PeerBoard::Observe(std::vector<State>& peers, const bgp::Event& event) {
  auto it = std::find_if(peers.begin(), peers.end(), [&](const State& p) {
    return p.row.peer == event.peer;
  });
  if (it == peers.end()) {
    it = peers.insert(it, State{});
    it->row.peer = event.peer;
    it->row.first_seen = -1;
  }
  State& s = *it;
  Row& row = s.row;
  if (row.first_seen < 0) row.first_seen = event.time;
  row.last_seen = event.time;
  switch (event.type) {
    case bgp::EventType::kAnnounce:
      ++row.announces;
      break;
    case bgp::EventType::kWithdraw:
      ++row.withdraws;
      break;
    case bgp::EventType::kFeedGap:
      if (!row.degraded) {
        row.degraded = true;
        ++row.gaps;
        row.last_gap = event.time;
        s.gap_open = event.time;
      }
      break;
    case bgp::EventType::kResync:
      if (row.degraded) {
        row.degraded = false;
        ++row.reconnects;
        s.gap_sec += util::ToSeconds(event.time - s.gap_open);
        s.gap_open = -1;
      }
      break;
  }
}

void PeerBoard::Finish(util::SimTime end) {
  for (State& s : peers_) {
    if (s.gap_open >= 0 && end > s.gap_open) {
      // Open gap: accrue degraded time up to the close of books, but keep
      // the gap open (the peer is still degraded).
      s.gap_sec += util::ToSeconds(end - s.gap_open);
      s.gap_open = end;
    }
    if (end > s.row.last_seen) s.row.last_seen = end;
  }
}

std::vector<PeerBoard::Row> PeerBoard::Rows() const {
  std::vector<Row> out;
  out.reserve(peers_.size());
  for (const State& s : peers_) {
    Row row = s.row;
    if (row.first_seen < 0) row.first_seen = 0;
    const double span = util::ToSeconds(row.last_seen - row.first_seen);
    row.uptime_sec = std::max(0.0, span - s.gap_sec);
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end(), [](const Row& a, const Row& b) {
    return a.peer.value() < b.peer.value();
  });
  return out;
}

std::string FormatPeerTable(const std::vector<PeerBoard::Row>& rows) {
  std::string out = util::StrPrintf(
      "%-16s %-9s %12s %10s %10s %6s %6s %11s %10s\n", "PEER", "STATE",
      "UPTIME", "ANNOUNCES", "WITHDRAWS", "GAPS", "RECON", "QUARANTINED",
      "LAST-GAP");
  for (const PeerBoard::Row& row : rows) {
    const std::string uptime =
        util::FormatDuration(util::FromSeconds(row.uptime_sec));
    const std::string last_gap =
        row.last_gap < 0 ? "-" : util::FormatDuration(row.last_gap);
    out += util::StrPrintf(
        "%-16s %-9s %12s %10llu %10llu %6llu %6llu %11llu %10s\n",
        row.peer.ToString().c_str(), row.degraded ? "DEGRADED" : "OK",
        uptime.c_str(), static_cast<unsigned long long>(row.announces),
        static_cast<unsigned long long>(row.withdraws),
        static_cast<unsigned long long>(row.gaps),
        static_cast<unsigned long long>(row.reconnects),
        static_cast<unsigned long long>(row.quarantined), last_gap.c_str());
  }
  return out;
}

// ---------------------------------------------------------------------------
// LiveRunner

std::vector<double> DetectionLatencyBounds() {
  return {1, 2, 5, 10, 15, 30, 60, 120, 300, 900};
}

LiveRunner::LiveRunner(LiveOptions options, obs::HealthRegistry* health,
                       IncidentLog* incidents, obs::TimeSeriesStore* series,
                       obs::ProvenanceLedger* provenance)
    : options_(std::move(options)),
      pipeline_(options_.pipeline),
      health_(health),
      incidents_(incidents),
      series_(series),
      provenance_(provenance) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.SetHelp("incident_detection_latency_seconds",
              "Simulated seconds from an incident's triggering burst to the "
              "analysis tick that first surfaced it.");
  reg.SetHelp("incident_detection_slo_ratio",
              "Fraction of detected incidents whose detection latency met "
              "the SLO target.");
  reg.SetHelp("serve_ticks_total", "Live replay analysis ticks executed.");
  reg.SetHelp("serve_events_ingested_total",
              "Events ingested by the live replay.");
  reg.SetHelp("serve_incidents_total",
              "Distinct incidents surfaced by the live replay.");
  reg.SetHelp("serve_replay_position_seconds",
              "Current simulated-time position of the live replay.");
  reg.SetHelp("health_component_state",
              "Health state per component: 0=ok 1=degraded 2=down.");
  reg.SetHelp("serve_queue_depth",
              "Routing events waiting in the bounded ingest queue at the "
              "end of the last tick.");
  reg.SetHelp("serve_shed_level",
              "Current degradation-ladder stage: 0=nominal 1=tracing "
              "suspended 2=cadence halved 3=sampling arrivals.");
  reg.SetHelp("serve_events_shed_total",
              "Routing events dropped by the overload ladder (sampled out "
              "at L3 or rejected at queue capacity).");
  reg.SetHelp("serve_shed_transitions_total",
              "Degradation-ladder stage changes, labeled by the stage "
              "entered.");
  reg.SetHelp("serve_restores_total",
              "Successful live-state restores from an RNC1 checkpoint.");
  reg.SetHelp("serve_restore_failures_total",
              "Checkpoint restores rejected by validation (the replay "
              "started fresh instead).");
  reg.SetHelp("log_lines_suppressed_total",
              "Log lines swallowed by rate limiting across all call sites.");
}

namespace {

// Writes checkpoints on one background thread (fsync, rename, fsync), so
// disk latency never stalls a tick.  One write is in flight at a time,
// and its result is reaped at the *next* checkpoint boundary, which keeps
// every stats/backoff mutation tick-deterministic: a resumed run accounts
// writes on exactly the same ticks as an uninterrupted one.
class CheckpointWriter {
 public:
  explicit CheckpointWriter(std::string path)
      : path_(std::move(path)), thread_([this] { Loop(); }) {}
  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  ~CheckpointWriter() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  void Enqueue(collector::Checkpoint checkpoint) {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = std::move(checkpoint);
    busy_ = true;
    cv_.notify_all();
  }

  // Blocks until the in-flight write (if any) lands; nullopt when no
  // write has been issued since the last reap.
  std::optional<bool> Reap() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !busy_; });
    return std::exchange(result_, std::nullopt);
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [this] { return job_.has_value() || stop_; });
      if (!job_.has_value()) return;
      const collector::Checkpoint checkpoint = std::move(*job_);
      job_.reset();
      lock.unlock();
      bool ok = false;
      try {
        ok = collector::WriteCheckpointFile(checkpoint, path_);
      } catch (...) {
        // Reaped as a failed write, like any other; the next cut retries.
      }
      lock.lock();
      result_ = ok;
      busy_ = false;
      cv_.notify_all();
    }
  }

  const std::string path_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::optional<collector::Checkpoint> job_;
  std::optional<bool> result_;
  bool busy_ = false;
  bool stop_ = false;
  std::thread thread_;  // last: starts once everything above exists
};

std::string GapReason(const LiveGap& gap) {
  return util::StrPrintf("feed gap open since %.0fs",
                         util::ToSeconds(gap.begin));
}

// One Run: the LiveState its checkpoints encode, what derives from that
// state and the stream (the in-flight events and their encoded window,
// the checkpoint schedule), and the run's sinks and metric handles.
// Each tick runs the phases Ingest, Ladder, Slide, Analyze, Publish and
// Checkpoint in that order; Restore runs before the first tick and
// Finish after the last.
class Replay {
 public:
  Replay(const LiveOptions& options, const Pipeline& pipeline,
         obs::HealthRegistry* health, IncidentLog& log,
         obs::TimeSeriesStore* series, obs::ProvenanceLedger* provenance,
         const collector::EventStream& stream)
      : options_(options),
        pipeline_(pipeline),
        health_(health),
        log_(log),
        series_(series),
        provenance_(provenance),
        events_(stream.events()),
        backpressure_(options.shed.queue_capacity > 0),
        stemmer_(pipeline.options().stemming),
        reg_(obs::MetricsRegistry::Global()),
        latency_id_(reg_.Histogram("incident_detection_latency_seconds",
                                   DetectionLatencyBounds())),
        slo_id_(reg_.Gauge("incident_detection_slo_ratio")),
        ticks_id_(reg_.Counter("serve_ticks_total")),
        ingested_id_(reg_.Counter("serve_events_ingested_total")),
        incidents_id_(reg_.Counter("serve_incidents_total")),
        position_id_(reg_.Gauge("serve_replay_position_seconds")),
        depth_id_(reg_.Gauge("serve_queue_depth")),
        level_id_(reg_.Gauge("serve_shed_level")),
        shed_id_(reg_.Counter("serve_events_shed_total")),
        restores_id_(reg_.Counter("serve_restores_total")),
        restore_failures_id_(reg_.Counter("serve_restore_failures_total")),
        suppressed_id_(reg_.Gauge("log_lines_suppressed_total")) {
    if (health_ != nullptr) {
      replay_id_ = health_->Register("replay");
      ingest_id_ = health_->Register("ingest");
      if (options_.heartbeat_deadline_sec > 0) {
        health_->SetHeartbeatDeadline(replay_id_,
                                      options_.heartbeat_deadline_sec);
      }
    }
    if (!events_.empty()) state_.t0 = events_.front().time;
    if (!options_.checkpoint_path.empty() &&
        options_.checkpoint_every_ticks > 0) {
      writer_.emplace(options_.checkpoint_path);
    }
    next_checkpoint_tick_ = options_.checkpoint_every_ticks;
  }

  const LiveStats& stats() const { return state_.stats; }

  // The first tick boundary: one tick past the stream start, or past the
  // restored clock.
  util::SimTime FirstTickEnd() const {
    return (state_.stats.restored ? state_.stats.clock : state_.t0) +
           options_.tick;
  }

  // Resumes from the checkpoint file when one is present.  Any
  // validation failure is loud (the failing section is named) but
  // non-fatal: deterministic replay from the stream converges to the
  // same incident log, so starting fresh self-heals.
  void Restore() {
    if (options_.checkpoint_path.empty() ||
        !std::filesystem::exists(options_.checkpoint_path)) {
      return;
    }
    LiveState st;
    if (const std::string why = Load(st); !why.empty()) {
      RANOMALY_LOG(util::LogLevel::kError,
                   util::StrPrintf("checkpoint restore from %s rejected: %s; "
                                   "starting fresh",
                                   options_.checkpoint_path.c_str(),
                                   why.c_str()));
      reg_.Add(restore_failures_id_, 1);
      return;
    }
    // Rebuild the external surfaces the snapshot implies: metrics
    // counters resume, the latency histogram is re-observed exactly
    // (simulated values), and degraded peers re-report.
    for (const IncidentLog::Entry& e : st.incidents) {
      reg_.Observe(latency_id_, e.incident.detection_latency_sec);
    }
    state_ = std::move(st);
    DropSinkPayloads();
    const LiveStats& stats = state_.stats;
    reg_.Add(ingested_id_, static_cast<double>(stats.events_ingested));
    reg_.Add(ticks_id_, static_cast<double>(stats.ticks));
    reg_.Add(incidents_id_, static_cast<double>(stats.incidents));
    reg_.Add(shed_id_, static_cast<double>(stats.events_shed));
    SetSloRatio();
    reg_.Set(position_id_, util::ToSeconds(stats.clock));
    if (state_.tracer_suspended) obs::Tracer::Global().SetEnabled(false);
    if (health_ != nullptr) {
      for (const PeerBoard::State& peer : state_.peers) {
        health_->Register(PeerComponentName(peer.row.peer));
      }
      for (const LiveGap& gap : state_.gaps) {
        if (!gap.closed) {
          SetPeerHealth(gap.peer, obs::HealthState::kDegraded,
                        GapReason(gap));
        }
      }
      if (state_.shed_level > 0) SetIngestHealth(state_.shed_level);
    }
    // Rebuild the in-flight events from the stream: FLOW records only
    // each event's admission class.  The ingest stamp is derivable —
    // consumption always happens at the first tick boundary strictly
    // after the event's time, on the fixed grid anchored at t0.
    for (std::size_t k = 0; k < state_.flow.size(); ++k) {
      if (state_.flow[k] == 0) continue;
      bgp::Event event =
          events_[static_cast<std::size_t>(state_.flow_start) + k];
      event.ingest_tick =
          state_.t0 +
          ((event.time - state_.t0) / options_.tick + 1) * options_.tick;
      (state_.flow[k] == 1 ? window_ : queue_).push_back(std::move(event));
    }
    stemmer_.PushBack(window_);
    next_checkpoint_tick_ = stats.ticks + options_.checkpoint_every_ticks;
    reg_.Add(restores_id_, 1);
    RANOMALY_LOG(util::LogLevel::kInfo,
                 util::StrPrintf(
                     "restored live state from %s: tick %llu, clock %.0fs, "
                     "%llu incidents, %zu queued",
                     options_.checkpoint_path.c_str(),
                     static_cast<unsigned long long>(stats.ticks),
                     util::ToSeconds(stats.clock),
                     static_cast<unsigned long long>(stats.incidents),
                     queue_.size()));
  }

  // Consumes this tick's batch.  The batch end is the ingest stamp — the
  // earliest moment the pipeline could have analyzed these events.
  void Ingest(util::SimTime tick_end) {
    obs::TraceSpan span("live.ingest");
    // The level chosen at the *previous* boundary governs L3 sampling,
    // so shedding is a pure function of checkpointed state.
    const bool sampling = backpressure_ && state_.shed_level >= 3;
    while (state_.next_event < events_.size() &&
           events_[state_.next_event].time < tick_end) {
      bgp::Event event = events_[state_.next_event++];
      event.ingest_tick = tick_end;
      PeerBoard::Observe(state_.peers, event);
      ++state_.stats.events_ingested;
      reg_.Add(ingested_id_, 1);
      std::uint8_t admission = 0;  // markers are never queued (or shed)
      if (event.type == bgp::EventType::kFeedGap) {
        LiveGap* gap = OpenGap(event.peer);
        if (gap == nullptr) {
          gap = &state_.gaps.emplace_back(
              LiveGap{event.peer, event.time, event.time, false});
        }
        SetPeerHealth(event.peer, obs::HealthState::kDegraded,
                      GapReason(*gap));
      } else if (event.type == bgp::EventType::kResync) {
        if (LiveGap* gap = OpenGap(event.peer)) {
          gap->closed = true;
          gap->end = event.time;
        }
        SetPeerHealth(event.peer, obs::HealthState::kOk, "");
      } else {
        admission = Admit(std::move(event), sampling);
      }
      state_.flow.push_back(admission);
    }
  }

  // Degradation ladder: compares the end-of-ingest queue depth to the
  // watermarks.  Escalation is immediate; de-escalation steps one stage
  // per `recovery_ticks` calm ticks (hysteresis).
  void Ladder(util::SimTime tick_end) {
    if (!backpressure_) return;
    const ShedOptions& so = options_.shed;
    const double fill = static_cast<double>(queue_.size()) /
                        static_cast<double>(so.queue_capacity);
    int target = 0;
    if (fill >= so.l3_watermark) {
      target = 3;
    } else if (fill >= so.l2_watermark) {
      target = 2;
    } else if (fill >= so.l1_watermark) {
      target = 1;
    }
    if (target > state_.shed_level) {
      SetShedLevel(target, tick_end);
      state_.calm_ticks = 0;
    } else if (target < state_.shed_level) {
      if (++state_.calm_ticks >= so.recovery_ticks) {
        SetShedLevel(state_.shed_level - 1, tick_end);
        state_.calm_ticks = 0;
      }
    } else {
      state_.calm_ticks = 0;
    }
  }

  // Slides the window, then drains the queue into it — in that order, so
  // a backlogged event older than the window still gets analyzed once.
  // Returns whether this is the final tick (stream read, queue empty).
  bool Slide(util::SimTime tick_end) {
    obs::TraceSpan span("live.slide");
    const util::SimTime window_begin = tick_end - options_.window;
    const std::size_t evicted = static_cast<std::size_t>(
        std::find_if(window_.begin(), window_.end(),
                     [window_begin](const bgp::Event& e) {
                       return e.time >= window_begin;
                     }) -
        window_.begin());
    std::size_t drain = queue_.size();
    if (backpressure_ && options_.shed.service_rate > 0) {
      drain = std::min(drain, options_.shed.service_rate);
    }
    window_.erase(window_.begin(),
                  window_.begin() + static_cast<std::ptrdiff_t>(evicted));
    stemmer_.PopFront(evicted);
    window_.insert(window_.end(), std::make_move_iterator(queue_.begin()),
                   std::make_move_iterator(
                       queue_.begin() + static_cast<std::ptrdiff_t>(drain)));
    queue_.erase(queue_.begin(),
                 queue_.begin() + static_cast<std::ptrdiff_t>(drain));
    stemmer_.PushBack(std::span<const bgp::Event>(window_).last(drain));
    // FLOW in lockstep: the oldest `evicted` window entries settle, the
    // oldest `drain` queue entries join the window (every window entry
    // precedes every queue entry), and settled entries leave the front.
    std::vector<std::uint8_t>& flow = state_.flow;
    std::size_t k = 0;
    for (std::size_t n = evicted; n > 0; ++k) {
      if (flow[k] == 1) {
        flow[k] = 0;
        --n;
      }
    }
    for (std::size_t n = drain; n > 0; ++k) {
      if (flow[k] == 2) {
        flow[k] = 1;
        --n;
      }
    }
    const auto settled =
        std::find_if(flow.begin(), flow.end(),
                     [](std::uint8_t c) { return c != 0; }) -
        flow.begin();
    flow.erase(flow.begin(), flow.begin() + settled);
    state_.flow_start += static_cast<std::uint64_t>(settled);
    return state_.next_event >= events_.size() && queue_.empty();
  }

  // Stems the window, keeps the incidents whose stems are new, decorates
  // them (detection latency, feed-gap and load-shed marks, provenance)
  // and appends them to the log.
  void Analyze(util::SimTime tick_end, bool final_tick) {
    // L2+: halve the analysis cadence (every other tick covers a doubled
    // batch).  The final tick always analyzes so nothing is left behind.
    if (state_.shed_level >= 2 && !final_tick && state_.stats.ticks % 2 != 0) {
      return;
    }
    obs::TraceSpan span("live.analyze");
    std::vector<Incident> found;
    if (!window_.empty()) {
      obs::TraceSpan window_span("pipeline.window");
      window_span.Annotate("events",
                           static_cast<std::uint64_t>(window_.size()));
      RANOMALY_METRIC_COUNT("pipeline_windows_total", 1);
      // Known stems are skipped before their incident is built.
      found = pipeline_.BuildIncidents(window_, stemmer_.Extract(),
                                       &state_.seen_stems);
    }
    LiveStats& stats = state_.stats;
    for (Incident& inc : found) {
      if (!state_.seen_stems.insert(inc.stem_key).second) continue;  // known
      inc.detected_at = tick_end;
      inc.detection_latency_sec = util::ToSeconds(tick_end - inc.begin);
      for (const LiveGap& gap : state_.gaps) {
        const util::SimTime gap_end = gap.closed ? gap.end : tick_end;
        if (inc.begin <= gap_end && gap.begin <= inc.end) {
          inc.feed_degraded = true;
          inc.summary += " [feed-degraded]";
          break;
        }
      }
      if (InShedWindow(inc.begin, inc.end, tick_end)) {
        inc.load_shed = true;
        inc.summary += " [load-shed]";
      }
      reg_.Observe(latency_id_, inc.detection_latency_sec);
      reg_.Add(incidents_id_, 1);
      ++stats.incidents;
      if (inc.detection_latency_sec <= options_.slo_target_sec) {
        ++stats.incidents_within_slo;
      }
      if (provenance_ != nullptr) AttachProvenance(inc, tick_end);
      inc.provenance = {};
      log_.Append(std::move(inc));
    }
    SetSloRatio();
  }

  // Closes the tick: stats, gauges, heartbeat, and the dashboard sample.
  void Publish(util::SimTime tick_end) {
    obs::TraceSpan span("live.publish");
    LiveStats& stats = state_.stats;
    ++stats.ticks;
    stats.clock = tick_end;
    stats.shed_level = state_.shed_level;
    stats.queue_depth = queue_.size();
    reg_.Add(ticks_id_, 1);
    reg_.Set(position_id_, util::ToSeconds(tick_end));
    reg_.Set(depth_id_, static_cast<double>(queue_.size()));
    reg_.Set(level_id_, static_cast<double>(state_.shed_level));
    reg_.Set(suppressed_id_, static_cast<double>(util::SuppressedLogLines()));
    if (health_ != nullptr) health_->Heartbeat(replay_id_);
    SyncHealthGauges();
    // Sample the registry into the dashboard history at the boundary —
    // after every metric for this tick has landed and before any
    // checkpoint is cut, so each snapshot carries its own tick's point.
    if (series_ != nullptr) series_->Sample(reg_, tick_end);
  }

  // Cuts a periodic checkpoint at this tick boundary when one is due
  // (a crash between boundaries re-executes the partial tick identically
  // after restore) and hands it to the background writer.
  void Checkpoint() {
    LiveStats& stats = state_.stats;
    if (!writer_.has_value() || stats.ticks < next_checkpoint_tick_) return;
    obs::TraceSpan span("live.checkpoint");
    const std::optional<bool> previous = writer_->Reap();
    Account(previous);
    if (previous != false) {  // no write failed since the last cut
      if (previous == true) retry_backoff_ = 0;
      writer_->Enqueue(Cut());
      next_checkpoint_tick_ = stats.ticks + options_.checkpoint_every_ticks;
      return;
    }
    // Keep analyzing; retry with exponential backoff so a full disk does
    // not turn the daemon into a log firehose.
    retry_backoff_ =
        retry_backoff_ == 0
            ? 1
            : std::min(retry_backoff_ * 2,
                       options_.checkpoint_retry_max_backoff_ticks);
    next_checkpoint_tick_ = stats.ticks + retry_backoff_;
    RANOMALY_LOG_EVERY_N(
        util::LogLevel::kWarn, 4,
        util::StrPrintf("checkpoint write to %s failed at tick %llu; "
                        "retrying in %llu ticks",
                        options_.checkpoint_path.c_str(),
                        static_cast<unsigned long long>(stats.ticks),
                        static_cast<unsigned long long>(retry_backoff_)));
  }

  // After the last tick: report completion, leave the last tick boundary
  // durable (the graceful-drain contract), and hand the tracer back as
  // the caller configured it.
  LiveStats Finish(bool complete) {
    if (health_ != nullptr && complete) {
      // The replay no longer makes progress, so stall detection must
      // stop accusing it.
      health_->SetHeartbeatDeadline(replay_id_, 0.0);
      health_->SetState(replay_id_, obs::HealthState::kOk, "replay complete");
      SyncHealthGauges();
    }
    if (writer_.has_value()) {
      // Settle the in-flight background write first, then write
      // synchronously — a handful of attempts rides out a transient
      // fault; past that the stream replay is the fallback.
      Account(writer_->Reap());
      writer_.reset();
      if (state_.stats.ticks > 0) {
        bool durable = false;
        for (int attempt = 0; attempt < 3 && !durable; ++attempt) {
          // Re-cut each attempt: the LIVE stats count the failed ones.
          durable =
              collector::WriteCheckpointFile(Cut(), options_.checkpoint_path);
          Account(durable);
        }
        if (!durable) {
          RANOMALY_LOG(util::LogLevel::kError,
                       util::StrPrintf("final checkpoint write to %s failed; "
                                       "a restart will replay from the last "
                                       "durable snapshot",
                                       options_.checkpoint_path.c_str()));
        }
      }
    }
    if (state_.tracer_suspended) {
      obs::Tracer::Global().SetEnabled(state_.tracer_was_enabled);
    }
    return state_.stats;
  }

 private:
  // Reads, decodes and validates the checkpoint into `st` and hands the
  // sink payloads to their sinks; returns why it was rejected, or "".
  std::string Load(LiveState& st) {
    collector::LoadDiagnostics diag;
    const std::optional<collector::Checkpoint> checkpoint =
        collector::ReadCheckpointFile(options_.checkpoint_path, &diag);
    std::string err;
    if (!checkpoint.has_value()) return diag.ToString();
    if (!DecodeLiveState(*checkpoint, &st, &err)) return err;
    if (st.t0 != state_.t0) return "section LIVE: t0 does not match the stream";
    if (st.next_event > events_.size()) {
      return "section LIVE: cursor beyond the end of the stream";
    }
    if (!log_.Restore(st.incidents)) {
      return "section INCD: incident log rejected the entries";
    }
    // Tier shape is configuration: a checkpoint cut under different
    // retention tiers must not seed this store's rings.  The sinks
    // restored before a rejection are emptied again, so the fresh replay
    // starts from a consistent nothing.
    if (series_ != nullptr &&
        !series_->Restore(std::move(st.series_store), &err)) {
      log_.Restore({});
      return "section SERS: " + err;
    }
    if (provenance_ != nullptr &&
        !provenance_->Restore(std::move(st.provenance), &err)) {
      log_.Restore({});
      if (series_ != nullptr) series_->Restore({}, nullptr);
      return "section PROV: " + err;
    }
    return "";
  }

  // Encodes the state at this tick boundary, with the sink payloads
  // exported from the sinks for the duration of the encode.
  collector::Checkpoint Cut() {
    state_.incidents = log_.Since(0);
    state_.latency_counts = LatencyCounts(state_.incidents);
    if (series_ != nullptr) state_.series_store = series_->Export();
    if (provenance_ != nullptr) state_.provenance = provenance_->Export();
    collector::Checkpoint checkpoint;
    EncodeLiveState(state_, checkpoint);
    DropSinkPayloads();
    return checkpoint;
  }

  // Between cuts the sinks own their contents; so does an absent sink's
  // section (encoded empty).
  void DropSinkPayloads() {
    state_.incidents = {};
    state_.latency_counts = {};
    state_.series_store = {};
    state_.provenance = {};
  }

  void Account(std::optional<bool> written) {
    if (!written.has_value()) return;
    ++(*written ? state_.stats.checkpoint_writes
                : state_.stats.checkpoint_failures);
  }

  // Routes one routing event through the (possibly shedding) bounded
  // queue; returns its FLOW class (2 = queued, 0 = shed).
  std::uint8_t Admit(bgp::Event event, bool sampling) {
    if (health_ != nullptr) health_->Register(PeerComponentName(event.peer));
    ++state_.arrival_index;
    const ShedOptions& so = options_.shed;
    if ((sampling && (state_.arrival_index - 1) % so.sample_stride != 0) ||
        (backpressure_ && queue_.size() >= so.queue_capacity)) {
      // Sampled out deterministically, or past the hard bound: drop,
      // never grow.
      ++state_.stats.events_shed;
      reg_.Add(shed_id_, 1);
      return 0;
    }
    queue_.push_back(std::move(event));
    return 2;
  }

  // The peer's open feed gap (at most one), or nullptr.
  LiveGap* OpenGap(bgp::Ipv4Addr peer) {
    for (auto it = state_.gaps.rbegin(); it != state_.gaps.rend(); ++it) {
      if (!it->closed && it->peer == peer) return &*it;
    }
    return nullptr;
  }

  bool InShedWindow(util::SimTime begin, util::SimTime end,
                    util::SimTime tick_end) const {
    for (const ShedWindow& w : state_.shed_windows) {
      if (begin <= (w.closed ? w.end : tick_end) && w.begin <= end) {
        return true;
      }
    }
    return false;
  }

  // Builds the evidence record now, after the stem dedup: the window is
  // re-stemmed every tick, so populating inside the pipeline would pay
  // the string-heavy sampling for mostly already-seen incidents.  Then
  // finishes the window-relative record: keys it to the log seq the
  // incident is about to get, rewrites sampled event ids to stream
  // indices (component indices map 1:1 onto the window, whose entries
  // are FLOW's class-1 entries in order), stamps per-event admission
  // from the shed windows, and adds the sim-time latency decomposition
  // plus the live.tick trace-exemplar linkage.  Everything here is a
  // pure function of the replayed stream, so the ledger inherits the
  // thread- and restart-determinism contract.
  void AttachProvenance(Incident& inc, util::SimTime tick_end) {
    Pipeline::PopulateProvenance(window_, provenance_->caps(), inc);
    obs::IncidentProvenance prov = std::move(inc.provenance);
    prov.seq = log_.size() + 1;
    prov.trace_tick =
        static_cast<std::uint64_t>((tick_end - state_.t0) / options_.tick);
    prov.path.insert(prov.path.begin(),
                     "live:tick " + std::to_string(prov.trace_tick));
    std::vector<std::uint64_t> window_index;
    window_index.reserve(window_.size());
    for (std::size_t k = 0; k < state_.flow.size(); ++k) {
      if (state_.flow[k] == 1) window_index.push_back(state_.flow_start + k);
    }
    for (obs::ProvenanceEvent& pe : prov.events) {
      const std::size_t w = static_cast<std::size_t>(pe.stream_index);
      pe.stream_index = window_index[w];
      const util::SimTime t = window_[w].time;
      if (InShedWindow(t, t, tick_end)) pe.admission = 1;
    }
    prov.stages = {{"burst-to-ingest",
                    util::ToSeconds(inc.ingest_tick - inc.begin)},
                   {"ingest-to-detect",
                    util::ToSeconds(tick_end - inc.ingest_tick)},
                   {"total", inc.detection_latency_sec}};
    provenance_->Attach(std::move(prov));
  }

  // Ladder transitions; every stage change is counted, logged and
  // reported through the ingest health component.
  void SetShedLevel(int to, util::SimTime now) {
    const int from = state_.shed_level;
    if (to == from) return;
    if (to >= 1 && !state_.tracer_suspended) {
      state_.tracer_was_enabled = obs::Tracer::Global().enabled();
      obs::Tracer::Global().SetEnabled(false);
      state_.tracer_suspended = true;
    }
    if (to == 0 && state_.tracer_suspended) {
      obs::Tracer::Global().SetEnabled(state_.tracer_was_enabled);
      state_.tracer_suspended = false;
    }
    std::vector<ShedWindow>& windows = state_.shed_windows;
    if (to >= 3 && from < 3) {
      windows.push_back(ShedWindow{now, now, false});
    } else if (to < 3 && from >= 3) {
      for (auto it = windows.rbegin(); it != windows.rend(); ++it) {
        if (!it->closed) {
          it->closed = true;
          it->end = now;
          break;
        }
      }
    }
    state_.shed_level = to;
    ++state_.stats.shed_transitions;
    reg_.Add(reg_.Counter("serve_shed_transitions_total" +
                          obs::PromLabels(
                              {{"to", util::StrPrintf("L%d", to)}})),
             1);
    SetIngestHealth(to);
    RANOMALY_LOG_EVERY_N(
        util::LogLevel::kWarn, 8,
        util::StrPrintf("overload ladder %s L%d -> L%d (%s; queue %zu/%zu)",
                        to > from ? "escalated" : "recovered", from, to,
                        ShedLevelAction(to), queue_.size(),
                        options_.shed.queue_capacity));
  }

  void SetIngestHealth(int level) {
    if (health_ == nullptr) return;
    if (level == 0) {
      health_->SetState(ingest_id_, obs::HealthState::kOk, "");
    } else {
      health_->SetState(ingest_id_, obs::HealthState::kDegraded,
                        util::StrPrintf("load shed L%d: %s", level,
                                        ShedLevelAction(level)));
    }
  }

  void SetPeerHealth(bgp::Ipv4Addr peer, obs::HealthState state,
                     std::string reason) {
    if (health_ == nullptr) return;
    health_->SetState(health_->Register(PeerComponentName(peer)), state,
                      std::move(reason));
  }

  void SetSloRatio() {
    const LiveStats& stats = state_.stats;
    if (stats.incidents == 0) return;
    reg_.Set(slo_id_, static_cast<double>(stats.incidents_within_slo) /
                          static_cast<double>(stats.incidents));
  }

  // Mirrors health states into labeled gauges so they scrape.
  void SyncHealthGauges() {
    if (health_ == nullptr) return;
    for (const auto& c : health_->Snapshot()) {
      reg_.Set(reg_.Gauge("health_component_state" +
                          obs::PromLabels({{"component", c.name}})),
               static_cast<double>(c.state));
    }
  }

  const LiveOptions& options_;
  const Pipeline& pipeline_;
  obs::HealthRegistry* const health_;
  IncidentLog& log_;
  obs::TimeSeriesStore* const series_;
  obs::ProvenanceLedger* const provenance_;
  const std::vector<bgp::Event>& events_;
  const bool backpressure_;

  LiveState state_;
  // In-flight events (FLOW's class-1 and class-2 entries, in order),
  // stamped with their ingest tick, and the encoded analysis window: a
  // pure function of the window's events, rebuilt after a restore.
  std::vector<bgp::Event> window_;
  std::vector<bgp::Event> queue_;
  stemming::WindowStemmer stemmer_;

  std::optional<CheckpointWriter> writer_;
  std::uint64_t next_checkpoint_tick_ = 0;
  std::uint64_t retry_backoff_ = 0;

  obs::MetricsRegistry& reg_;
  const obs::MetricId latency_id_;
  const obs::MetricId slo_id_;
  const obs::MetricId ticks_id_;
  const obs::MetricId ingested_id_;
  const obs::MetricId incidents_id_;
  const obs::MetricId position_id_;
  const obs::MetricId depth_id_;
  const obs::MetricId level_id_;
  const obs::MetricId shed_id_;
  const obs::MetricId restores_id_;
  const obs::MetricId restore_failures_id_;
  const obs::MetricId suppressed_id_;
  obs::HealthRegistry::ComponentId replay_id_ = 0;
  obs::HealthRegistry::ComponentId ingest_id_ = 0;
};

}  // namespace

LiveStats LiveRunner::Run(
    const collector::EventStream& stream,
    const std::atomic<bool>* keep_going,
    const std::function<void(const LiveStats&)>& on_tick) {
  IncidentLog own_log;  // the run's incident store when the caller has none
  Replay replay(options_, pipeline_, health_,
                incidents_ != nullptr ? *incidents_ : own_log, series_,
                provenance_, stream);
  if (stream.empty()) return replay.Finish(true);
  replay.Restore();
  bool complete = false;
  for (util::SimTime tick_end = replay.FirstTickEnd();
       keep_going == nullptr || keep_going->load(std::memory_order_relaxed);
       tick_end += options_.tick) {
    // One span per tick, annotated with the tick index: the incident
    // timeline's trace exemplar.  /api/incidents/timeline derives the
    // same index from detected_at, so an operator can jump from an
    // incident straight to the live.tick slice that surfaced it.
    obs::TraceSpan tick_span("live.tick");
    tick_span.Annotate("tick", replay.stats().ticks + 1);
    replay.Ingest(tick_end);
    replay.Ladder(tick_end);
    const bool final_tick = replay.Slide(tick_end);
    replay.Analyze(tick_end, final_tick);
    replay.Publish(tick_end);
    replay.Checkpoint();
    if (on_tick) on_tick(replay.stats());
    if (final_tick) {
      complete = true;
      break;
    }
  }
  return replay.Finish(complete);
}

// ---------------------------------------------------------------------------
// Ops handler

obs::HttpServer::Handler MakeOpsHandler(obs::MetricsRegistry* metrics,
                                        obs::HealthRegistry* health,
                                        IncidentLog* incidents, OpsInfo info,
                                        obs::TimeSeriesStore* series,
                                        bool dashboard,
                                        obs::ProvenanceLedger* provenance) {
  metrics->SetHelp("http_requests_total",
                   "HTTP requests whose handler ran (any status).");
  metrics->SetHelp("http_requests_rejected_total",
                   "HTTP requests rejected at the protocol level.");
  return [metrics, health, incidents, info = std::move(info), series,
          dashboard,
          provenance](const obs::HttpRequest& request) -> obs::HttpResponse {
    obs::HttpResponse response;
    if (request.path == "/metrics") {
      response.content_type = "text/plain; version=0.0.4; charset=utf-8";
      response.body = metrics->ToPrometheus();
    } else if (request.path == "/varz") {
      std::string body = "{\"build\":{\"project\":\"ranomaly\",\"tracing\":";
#ifdef RANOMALY_NO_TRACING
      body += "false";
#else
      body += "true";
#endif
      body += util::StrPrintf(
          "},\"config\":{\"stream\":\"%s\",\"threads\":%zu,"
          "\"tick_sec\":%.3f,\"window_sec\":%.3f,\"slo_target_sec\":%.3f,"
          "\"checkpoint\":\"%s\",\"queue_capacity\":%zu},",
          JsonEscape(info.stream_path).c_str(), info.threads, info.tick_sec,
          info.window_sec, info.slo_target_sec,
          JsonEscape(info.checkpoint_path).c_str(), info.queue_capacity);
      body += "\"health\":{";
      if (health != nullptr) {
        const obs::HealthRegistry::Aggregate agg = health->Aggregated();
        body += util::StrPrintf("\"state\":\"%s\",\"reason\":\"%s\","
                                "\"components\":[",
                                obs::ToString(agg.state),
                                JsonEscape(agg.reason).c_str());
        bool first = true;
        for (const auto& c : health->Snapshot()) {
          if (!first) body += ',';
          first = false;
          body += util::StrPrintf(
              "{\"name\":\"%s\",\"state\":\"%s\",\"reason\":\"%s\","
              "\"heartbeat_age_sec\":%.3f}",
              JsonEscape(c.name).c_str(), obs::ToString(c.state),
              JsonEscape(c.reason).c_str(), c.heartbeat_age_sec);
        }
        body += ']';
      } else {
        body += "\"state\":\"ok\",\"reason\":\"\",\"components\":[]";
      }
      body += util::StrPrintf(
          "},\"incidents_logged\":%zu,\"metrics\":",
          incidents == nullptr ? std::size_t{0} : incidents->size());
      body += obs::ToVarzJson(metrics->Snapshot(), metrics->HelpSnapshot());
      body += '}';
      response.content_type = "application/json";
      response.body = std::move(body);
    } else if (request.path == "/healthz") {
      // Liveness: a process that can answer this is alive by definition.
      response.body = "ok\n";
    } else if (request.path == "/readyz") {
      obs::HealthRegistry::Aggregate agg;
      if (health != nullptr) agg = health->Aggregated();
      if (agg.state == obs::HealthState::kOk) {
        response.body = "ok\n";
      } else {
        response.status = 503;
        response.body = util::StrPrintf("%s: %s\n", obs::ToString(agg.state),
                                        agg.reason.c_str());
      }
    } else if (request.path == "/incidents") {
      std::uint64_t since = 0;
      if (const auto param = request.QueryParam("since")) {
        // strtoull would silently accept leading whitespace and signs
        // (a negative wraps to a huge cursor that hides every incident)
        // and saturates on overflow; ParseU64 is digits-only and
        // overflow-checked, so every malformed cursor is a loud 400.
        if (!util::ParseU64(*param, since)) {
          response.status = 400;
          response.body = "bad since parameter: want a non-negative integer\n";
          return response;
        }
      }
      response.content_type = "application/json";
      response.body = incidents == nullptr ? "{\"incidents\":[],\"next_since\":0}"
                                           : incidents->ToJson(since);
    } else if (request.path == "/api/series") {
      if (series == nullptr) {
        response.status = 404;
        response.body = "no time-series store attached to this server\n";
        return response;
      }
      // Tier resolutions and `since` cursors travel as whole simulated
      // seconds; every shipped tier is a whole number of them.
      std::int64_t res_us = series->options().tiers.empty()
                                ? util::kSecond
                                : series->options().tiers.front().resolution_us;
      if (const auto res = request.QueryParam("res")) {
        std::uint64_t sec = 0;
        if (!util::ParseU64(*res, sec) || sec == 0 ||
            !series->HasTier(static_cast<std::int64_t>(sec) * util::kSecond)) {
          response.status = 400;
          response.body =
              "bad res parameter: want a tier resolution in seconds (GET "
              "/api/series lists the tiers)\n";
          return response;
        }
        res_us = static_cast<std::int64_t>(sec) * util::kSecond;
      }
      std::int64_t since_us = -1;
      if (const auto since = request.QueryParam("since")) {
        std::uint64_t sec = 0;
        if (!util::ParseU64(*since, sec)) {
          response.status = 400;
          response.body =
              "bad since parameter: want a non-negative integer of seconds\n";
          return response;
        }
        since_us = static_cast<std::int64_t>(sec) * util::kSecond;
      }
      const auto name = request.QueryParam("name");
      if (!name.has_value()) {
        response.content_type = "application/json";
        response.body = series->ListJson();
      } else if (auto body = series->SeriesJson(*name, res_us, since_us)) {
        response.content_type = "application/json";
        response.body = std::move(*body);
      } else {
        response.status = 404;
        response.body = "unknown series; GET /api/series lists the names\n";
      }
    } else if (request.path == "/api/incidents/timeline") {
      std::uint64_t since = 0;
      if (const auto param = request.QueryParam("since")) {
        // Same digits-only contract as /incidents and /api/series: a
        // malformed cursor is a loud 400, never a silently empty page.
        if (!util::ParseU64(*param, since)) {
          response.status = 400;
          response.body = "bad since parameter: want a non-negative integer\n";
          return response;
        }
      }
      std::string body =
          "{\"t0_sec\":" + obs::JsonDouble(util::ToSeconds(info.t0)) +
          ",\"tick_sec\":" + obs::JsonDouble(util::ToSeconds(info.tick)) +
          ",\"incidents\":[";
      bool first = true;
      if (incidents != nullptr) {
        for (const IncidentLog::Entry& e : incidents->Since(since)) {
          const Incident& inc = e.incident;
          if (!first) body += ',';
          first = false;
          // The exemplar points at the replay tick whose boundary
          // surfaced this incident: detected_at always sits on the tick
          // grid, so the index (and the `live.tick` slice carrying it as
          // an annotation) is exact, not a nearest-neighbor guess.
          const std::int64_t tick_index =
              info.tick > 0 ? (inc.detected_at - info.t0) / info.tick : 0;
          body += util::StrPrintf(
              "{\"seq\":%llu,\"kind\":\"%s\",\"begin_sec\":%s,"
              "\"end_sec\":%s,\"detected_at_sec\":%s,"
              "\"detection_latency_sec\":%s,\"stem\":\"%s\","
              "\"top_sequence\":\"%s\",\"summary\":\"%s\","
              "\"feed_degraded\":%s,\"load_shed\":%s,"
              "\"exemplar\":{\"span\":\"live.tick\",\"tick\":%lld}}",
              static_cast<unsigned long long>(e.seq), ToString(inc.kind),
              obs::JsonDouble(util::ToSeconds(inc.begin)).c_str(),
              obs::JsonDouble(util::ToSeconds(inc.end)).c_str(),
              obs::JsonDouble(util::ToSeconds(inc.detected_at)).c_str(),
              obs::JsonDouble(inc.detection_latency_sec).c_str(),
              JsonEscape(inc.stem_label).c_str(),
              JsonEscape(inc.top_sequence).c_str(),
              JsonEscape(inc.summary).c_str(),
              inc.feed_degraded ? "true" : "false",
              inc.load_shed ? "true" : "false",
              static_cast<long long>(tick_index));
        }
      }
      body += "],\"next_since\":" +
              std::to_string(incidents == nullptr ? std::size_t{0}
                                                  : incidents->size()) +
              "}";
      response.content_type = "application/json";
      response.body = std::move(body);
    } else if (request.path.size() > 24 &&
               request.path.starts_with("/api/incidents/") &&
               request.path.ends_with("/evidence")) {
      // /api/incidents/<id>/evidence — the provenance ledger's record.
      const std::string_view id_text =
          std::string_view(request.path).substr(15, request.path.size() - 24);
      std::uint64_t id = 0;
      if (!util::ParseU64(id_text, id)) {
        response.status = 400;
        response.body = "bad incident id: want a non-negative integer\n";
        return response;
      }
      if (provenance == nullptr) {
        response.status = 404;
        response.body = "no provenance ledger attached to this server\n";
        return response;
      }
      if (auto body = provenance->EvidenceJson(id)) {
        response.content_type = "application/json";
        response.body = std::move(*body);
      } else {
        response.status = 404;
        response.body = "unknown incident (or its evidence was evicted); "
                        "GET /api/incidents/timeline lists the log\n";
      }
    } else if (dashboard && request.path == "/dashboard") {
      response.content_type = "text/html; charset=utf-8";
      response.body = obs::DashboardHtml();
    } else {
      response.status = 404;
      response.body = "not found; try /metrics /varz /healthz /readyz "
                      "/incidents?since=N /api/series "
                      "/api/incidents/timeline "
                      "/api/incidents/<id>/evidence\n";
    }
    return response;
  };
}

}  // namespace ranomaly::core
