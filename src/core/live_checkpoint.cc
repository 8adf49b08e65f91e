#include "core/live_checkpoint.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "collector/binary_io.h"
#include "stemming/stemming.h"
#include "util/strings.h"

namespace ranomaly::core {
namespace {

namespace io = collector::io;

constexpr std::uint8_t kSectionLayoutVersion = 1;
// Operator strings (stem labels, summaries) are short; anything past
// this bound in a CRC-clean file is a crafted or corrupt section.
constexpr std::uint32_t kMaxString = 1 << 16;
constexpr std::uint64_t kMaxEntries = 1u << 24;

void PutF64(io::StringSink& os, double v) {
  io::Put<std::uint64_t>(os, std::bit_cast<std::uint64_t>(v));
}

bool GetF64(io::Reader& r, double& v) {
  std::uint64_t u = 0;
  if (!r.Get(u)) return false;
  v = std::bit_cast<double>(u);
  return true;
}

void PutString(io::StringSink& os, const std::string& s) {
  io::Put<std::uint32_t>(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

bool GetString(io::Reader& r, std::string& s) {
  std::uint32_t size = 0;
  if (!r.Get(size) || size > kMaxString) return false;
  s.resize(size);
  return size == 0 || r.GetRaw(s.data(), size);
}

// ---------------------------------------------------------------------------
// Per-section encoders; EncodeLiveState leads each with its layout version.

void EncodeLive(const LiveState& s, io::StringSink& os) {
  io::Put<std::int64_t>(os, s.t0);
  io::Put<std::uint64_t>(os, s.next_event);
  io::Put<std::uint64_t>(os, s.stats.ticks);
  io::Put<std::uint64_t>(os, s.stats.events_ingested);
  io::Put<std::uint64_t>(os, s.stats.incidents);
  io::Put<std::uint64_t>(os, s.stats.incidents_within_slo);
  io::Put<std::int64_t>(os, s.stats.clock);
  io::Put<std::uint64_t>(os, s.stats.events_shed);
  io::Put<std::uint64_t>(os, s.stats.shed_transitions);
  io::Put<std::uint64_t>(os, s.stats.checkpoint_writes);
  io::Put<std::uint64_t>(os, s.stats.checkpoint_failures);
}

void EncodeShed(const LiveState& s, io::StringSink& os) {
  io::Put<std::uint8_t>(os, static_cast<std::uint8_t>(s.shed_level));
  io::Put<std::uint64_t>(os, s.calm_ticks);
  io::Put<std::uint64_t>(os, s.arrival_index);
  io::Put<std::uint8_t>(os, s.tracer_suspended ? 1 : 0);
  io::Put<std::uint8_t>(os, s.tracer_was_enabled ? 1 : 0);
  io::Put<std::uint32_t>(os, static_cast<std::uint32_t>(s.shed_windows.size()));
  for (const ShedWindow& w : s.shed_windows) {
    io::Put<std::int64_t>(os, w.begin);
    io::Put<std::int64_t>(os, w.end);
    io::Put<std::uint8_t>(os, w.closed ? 1 : 0);
  }
}

void EncodeStem(const LiveState& s, io::StringSink& os) {
  io::Put<std::uint64_t>(os, s.seen_stems.size());
  for (const auto& [a, b] : s.seen_stems) {
    io::Put<std::uint64_t>(os, a);
    io::Put<std::uint64_t>(os, b);
  }
}

void EncodeGaps(const LiveState& s, io::StringSink& os) {
  io::Put<std::uint32_t>(os, static_cast<std::uint32_t>(s.gaps.size()));
  for (const LiveGap& g : s.gaps) {
    io::Put<std::uint32_t>(os, g.peer.value());
    io::Put<std::int64_t>(os, g.begin);
    io::Put<std::int64_t>(os, g.end);
    io::Put<std::uint8_t>(os, g.closed ? 1 : 0);
  }
}

void EncodePeers(const LiveState& s, io::StringSink& os) {
  io::Put<std::uint32_t>(os, static_cast<std::uint32_t>(s.peers.size()));
  for (const PeerBoard::State& p : s.peers) {
    io::Put<std::uint32_t>(os, p.row.peer.value());
    io::Put<std::uint8_t>(os, p.row.degraded ? 1 : 0);
    io::Put<std::uint64_t>(os, p.row.announces);
    io::Put<std::uint64_t>(os, p.row.withdraws);
    io::Put<std::uint64_t>(os, p.row.reconnects);
    io::Put<std::uint64_t>(os, p.row.gaps);
    io::Put<std::uint64_t>(os, p.row.quarantined);
    io::Put<std::int64_t>(os, p.row.first_seen);
    io::Put<std::int64_t>(os, p.row.last_seen);
    io::Put<std::int64_t>(os, p.row.last_gap);
    io::Put<std::int64_t>(os, p.gap_open);
    PutF64(os, p.gap_sec);
  }
}

// Admission classes pack four to a byte, entry i in bits (i%4)*2..+1 of
// byte i/4; padding bits of a partial final byte are zero.
void EncodeFlow(const LiveState& s, io::StringSink& os) {
  io::Put<std::uint64_t>(os, s.flow_start);
  io::Put<std::uint64_t>(os, s.flow.size());
  std::uint8_t packed = 0;
  for (std::size_t i = 0; i < s.flow.size(); ++i) {
    packed |= static_cast<std::uint8_t>(s.flow[i] << ((i & 3) * 2));
    if ((i & 3) == 3) {
      io::Put<std::uint8_t>(os, packed);
      packed = 0;
    }
  }
  if ((s.flow.size() & 3) != 0) io::Put<std::uint8_t>(os, packed);
}

void EncodeIncidents(const LiveState& s, io::StringSink& os) {
  io::Put<std::uint64_t>(os, s.incidents.size());
  for (const IncidentLog::Entry& e : s.incidents) {
    const Incident& inc = e.incident;
    io::Put<std::uint64_t>(os, e.seq);
    io::Put<std::uint8_t>(os, static_cast<std::uint8_t>(inc.kind));
    io::Put<std::int64_t>(os, inc.begin);
    io::Put<std::int64_t>(os, inc.end);
    io::Put<std::uint64_t>(os, inc.event_count);
    PutF64(os, inc.event_fraction);
    io::Put<std::uint64_t>(os, inc.prefix_count);
    io::Put<std::uint64_t>(os, inc.stem_key.first);
    io::Put<std::uint64_t>(os, inc.stem_key.second);
    PutString(os, inc.stem_label);
    PutString(os, inc.top_sequence);
    PutString(os, inc.summary);
    io::Put<std::uint8_t>(os, inc.feed_degraded ? 1 : 0);
    io::Put<std::uint8_t>(os, inc.load_shed ? 1 : 0);
    io::Put<std::int64_t>(os, inc.ingest_tick);
    io::Put<std::int64_t>(os, inc.detected_at);
    PutF64(os, inc.detection_latency_sec);
  }
}

void EncodeSloHistogram(const LiveState& s, io::StringSink& os) {
  io::Put<std::uint32_t>(os,
                         static_cast<std::uint32_t>(s.latency_counts.size()));
  for (const std::uint64_t c : s.latency_counts) {
    io::Put<std::uint64_t>(os, c);
  }
}

void EncodeSeriesStore(const LiveState& s, io::StringSink& os) {
  const obs::TimeSeriesStore::Persisted& st = s.series_store;
  io::Put<std::uint32_t>(os, static_cast<std::uint32_t>(st.tiers.size()));
  for (const obs::TierSpec& tier : st.tiers) {
    io::Put<std::int64_t>(os, tier.resolution_us);
    io::Put<std::uint32_t>(os, tier.capacity);
  }
  io::Put<std::int64_t>(os, st.last_sample);
  io::Put<std::uint64_t>(os, st.dropped_series);
  io::Put<std::uint32_t>(os, static_cast<std::uint32_t>(st.series.size()));
  for (const obs::TimeSeriesStore::PersistedSeries& series : st.series) {
    PutString(os, series.name);
    io::Put<std::uint8_t>(os, series.kind);
    for (const std::vector<obs::SeriesPoint>& ring : series.tiers) {
      io::Put<std::uint32_t>(os, static_cast<std::uint32_t>(ring.size()));
      for (const obs::SeriesPoint& p : ring) {
        io::Put<std::int64_t>(os, p.t);
        PutF64(os, p.value);
        PutF64(os, p.min);
        PutF64(os, p.max);
      }
    }
  }
}

void EncodeProvenance(const LiveState& s, io::StringSink& os) {
  const obs::ProvenanceLedger::Persisted& st = s.provenance;
  io::Put<std::uint32_t>(os, st.caps.max_incidents);
  io::Put<std::uint32_t>(os, st.caps.max_events);
  io::Put<std::uint32_t>(os, st.caps.max_classes);
  io::Put<std::uint64_t>(os, st.evicted);
  io::Put<std::uint32_t>(os, static_cast<std::uint32_t>(st.records.size()));
  for (const obs::IncidentProvenance& r : st.records) {
    io::Put<std::uint64_t>(os, r.seq);
    io::Put<std::uint64_t>(os, r.stem_first);
    io::Put<std::uint64_t>(os, r.stem_second);
    PutString(os, r.stem);
    PutString(os, r.kind);
    io::Put<std::uint32_t>(os, static_cast<std::uint32_t>(r.path.size()));
    for (const std::string& hop : r.path) PutString(os, hop);
    io::Put<std::uint64_t>(os, r.window_events);
    io::Put<std::uint64_t>(os, r.component_events);
    PutF64(os, r.component_weight);
    io::Put<std::uint64_t>(os, r.events_total);
    io::Put<std::uint32_t>(os, static_cast<std::uint32_t>(r.events.size()));
    for (const obs::ProvenanceEvent& e : r.events) {
      io::Put<std::uint64_t>(os, e.stream_index);
      PutF64(os, e.time_sec);
      PutString(os, e.type);
      PutString(os, e.peer);
      PutString(os, e.prefix);
      io::Put<std::uint8_t>(os, e.admission);
    }
    io::Put<std::uint64_t>(os, r.classes_total);
    io::Put<std::uint32_t>(os, static_cast<std::uint32_t>(r.classes.size()));
    for (const obs::ProvenanceClass& c : r.classes) {
      io::Put<std::uint32_t>(os, c.id);
      PutF64(os, c.weight);
      PutF64(os, c.score);
      PutString(os, c.sequence);
    }
    io::Put<std::uint32_t>(os, static_cast<std::uint32_t>(r.stages.size()));
    for (const obs::ProvenanceStage& stage : r.stages) {
      PutString(os, stage.stage);
      PutF64(os, stage.seconds);
    }
    io::Put<std::uint64_t>(os, r.trace_tick);
  }
}

// ---------------------------------------------------------------------------
// Per-section decoders, handed a reader past the layout version.  Each
// returns an empty string on success or a human-readable reason;
// DecodeLiveState checks the version and trailing bytes and prefixes
// the section tag.

std::string DecodeLive(io::Reader& reader, LiveState& s) {
  std::int64_t t0 = 0, clock = 0;
  if (!reader.Get(t0) || !reader.Get(s.next_event) ||
      !reader.Get(s.stats.ticks) || !reader.Get(s.stats.events_ingested) ||
      !reader.Get(s.stats.incidents) ||
      !reader.Get(s.stats.incidents_within_slo) || !reader.Get(clock) ||
      !reader.Get(s.stats.events_shed) ||
      !reader.Get(s.stats.shed_transitions) ||
      !reader.Get(s.stats.checkpoint_writes) ||
      !reader.Get(s.stats.checkpoint_failures)) {
    return "truncated";
  }
  s.t0 = t0;
  s.stats.clock = clock;
  if (s.stats.clock < s.t0) return "clock precedes t0";
  if (s.stats.incidents_within_slo > s.stats.incidents) {
    return "incidents_within_slo exceeds incidents";
  }
  return "";
}

std::string DecodeShed(io::Reader& reader, LiveState& s) {
  std::uint8_t level = 0, suspended = 0, was_enabled = 0;
  std::uint32_t count = 0;
  if (!reader.Get(level) || !reader.Get(s.calm_ticks) ||
      !reader.Get(s.arrival_index) || !reader.Get(suspended) ||
      !reader.Get(was_enabled) || !reader.Get(count)) {
    return "truncated";
  }
  if (level > 3) return util::StrPrintf("shed level %u out of range", level);
  if (suspended > 1 || was_enabled > 1) return "bad boolean";
  if (count > kMaxEntries) return "implausible shed window count";
  s.shed_level = level;
  s.tracer_suspended = suspended != 0;
  s.tracer_was_enabled = was_enabled != 0;
  s.shed_windows.clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    ShedWindow w;
    std::int64_t begin = 0, end = 0;
    std::uint8_t closed = 0;
    if (!reader.Get(begin) || !reader.Get(end) ||
        !reader.Get(closed)) {
      return util::StrPrintf("truncated at window %u", i);
    }
    if (closed > 1) return "bad boolean";
    if (end < begin) return util::StrPrintf("window %u ends before begin", i);
    w.begin = begin;
    w.end = end;
    w.closed = closed != 0;
    s.shed_windows.push_back(w);
  }
  return "";
}

std::string DecodeStem(io::Reader& reader, LiveState& s) {
  std::uint64_t count = 0;
  if (!reader.Get(count)) return "truncated";
  if (count > kMaxEntries) return "implausible stem count";
  s.seen_stems.clear();
  std::pair<std::uint64_t, std::uint64_t> prev{0, 0};
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t a = 0, b = 0;
    if (!reader.Get(a) || !reader.Get(b)) {
      return util::StrPrintf("truncated at stem %llu",
                             static_cast<unsigned long long>(i));
    }
    if (!stemming::IsValidRawSymbol(a) || !stemming::IsValidRawSymbol(b)) {
      return util::StrPrintf("invalid raw symbol at stem %llu",
                             static_cast<unsigned long long>(i));
    }
    const std::pair<std::uint64_t, std::uint64_t> key{a, b};
    if (i > 0 && !(prev < key)) {
      return util::StrPrintf("stems not strictly increasing at %llu",
                             static_cast<unsigned long long>(i));
    }
    prev = key;
    s.seen_stems.insert(s.seen_stems.end(), key);
  }
  return "";
}

std::string DecodeGaps(io::Reader& reader, LiveState& s) {
  std::uint32_t count = 0;
  if (!reader.Get(count)) return "truncated";
  if (count > kMaxEntries) return "implausible gap count";
  s.gaps.clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    LiveGap g;
    std::uint32_t peer = 0;
    std::int64_t begin = 0, end = 0;
    std::uint8_t closed = 0;
    if (!reader.Get(peer) || !reader.Get(begin) || !reader.Get(end) ||
        !reader.Get(closed)) {
      return util::StrPrintf("truncated at gap %u", i);
    }
    if (closed > 1) return "bad boolean";
    if (end < begin) return util::StrPrintf("gap %u ends before begin", i);
    g.peer = bgp::Ipv4Addr(peer);
    g.begin = begin;
    g.end = end;
    g.closed = closed != 0;
    s.gaps.push_back(g);
  }
  return "";
}

std::string DecodePeers(io::Reader& reader, LiveState& s) {
  std::uint32_t count = 0;
  if (!reader.Get(count)) return "truncated";
  if (count > kMaxEntries) return "implausible peer count";
  s.peers.clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    PeerBoard::State p;
    std::uint32_t peer = 0;
    std::uint8_t degraded = 0;
    std::int64_t first_seen = 0, last_seen = 0, last_gap = 0, gap_open = 0;
    if (!reader.Get(peer) || !reader.Get(degraded) ||
        !reader.Get(p.row.announces) || !reader.Get(p.row.withdraws) ||
        !reader.Get(p.row.reconnects) || !reader.Get(p.row.gaps) ||
        !reader.Get(p.row.quarantined) || !reader.Get(first_seen) ||
        !reader.Get(last_seen) || !reader.Get(last_gap) ||
        !reader.Get(gap_open) || !GetF64(reader, p.gap_sec)) {
      return util::StrPrintf("truncated at peer %u", i);
    }
    if (degraded > 1) return "bad boolean";
    if (!std::isfinite(p.gap_sec) || p.gap_sec < 0) {
      return util::StrPrintf("peer %u gap_sec not finite", i);
    }
    // A degraded row must carry its open-gap begin and vice versa.
    if ((degraded != 0) != (gap_open >= 0)) {
      return util::StrPrintf("peer %u degraded/gap_open mismatch", i);
    }
    p.row.peer = bgp::Ipv4Addr(peer);
    p.row.degraded = degraded != 0;
    p.row.first_seen = first_seen;
    p.row.last_seen = last_seen;
    p.row.last_gap = last_gap;
    p.gap_open = gap_open;
    s.peers.push_back(std::move(p));
  }
  return "";
}

std::string DecodeFlow(io::Reader& reader, LiveState& s) {
  std::uint64_t count = 0;
  if (!reader.Get(s.flow_start) || !reader.Get(count)) {
    return "truncated";
  }
  if (count > kMaxEntries) return "implausible in-flight count";
  // The range must butt up against the LIVE cursor: every event before
  // flow_start is settled, every event from next_event on is unread.
  if (s.flow_start > s.next_event || s.next_event - s.flow_start != count) {
    return "range disagrees with the LIVE cursor";
  }
  s.flow.assign(static_cast<std::size_t>(count), 0);
  bool queue_seen = false;
  std::uint8_t packed = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    if ((i & 3) == 0 && !reader.Get(packed)) return "truncated";
    const std::uint8_t cls = (packed >> ((i & 3) * 2)) & 3;
    if (cls > 2) {
      return util::StrPrintf("bad admission class at entry %llu",
                             static_cast<unsigned long long>(i));
    }
    // Admission is FIFO: everything still in the window was consumed
    // before anything still queued, so classes never go 2 -> 1.
    if (cls == 2) {
      queue_seen = true;
    } else if (cls == 1 && queue_seen) {
      return util::StrPrintf("window entry %llu after a queue entry",
                             static_cast<unsigned long long>(i));
    }
    s.flow[static_cast<std::size_t>(i)] = cls;
  }
  if ((count & 3) != 0 && (packed >> ((count & 3) * 2)) != 0) {
    return "nonzero padding bits";
  }
  return "";
}

std::string DecodeIncidents(io::Reader& reader, LiveState& s) {
  std::uint64_t count = 0;
  if (!reader.Get(count)) return "truncated";
  if (count > kMaxEntries) return "implausible incident count";
  s.incidents.clear();
  for (std::uint64_t i = 0; i < count; ++i) {
    IncidentLog::Entry e;
    Incident& inc = e.incident;
    std::uint8_t kind = 0, feed_degraded = 0, load_shed = 0;
    std::int64_t begin = 0, end = 0, ingest_tick = 0, detected_at = 0;
    std::uint64_t event_count = 0, prefix_count = 0;
    if (!reader.Get(e.seq) || !reader.Get(kind) ||
        !reader.Get(begin) || !reader.Get(end) ||
        !reader.Get(event_count) || !GetF64(reader, inc.event_fraction) ||
        !reader.Get(prefix_count) || !reader.Get(inc.stem_key.first) ||
        !reader.Get(inc.stem_key.second) ||
        !GetString(reader, inc.stem_label) ||
        !GetString(reader, inc.top_sequence) ||
        !GetString(reader, inc.summary) || !reader.Get(feed_degraded) ||
        !reader.Get(load_shed) || !reader.Get(ingest_tick) ||
        !reader.Get(detected_at) ||
        !GetF64(reader, inc.detection_latency_sec)) {
      return util::StrPrintf("truncated at entry %llu",
                             static_cast<unsigned long long>(i));
    }
    if (e.seq != i + 1) {
      return util::StrPrintf("non-contiguous seq at entry %llu",
                             static_cast<unsigned long long>(i));
    }
    if (kind > static_cast<std::uint8_t>(IncidentKind::kUnknown)) {
      return util::StrPrintf("bad incident kind at entry %llu",
                             static_cast<unsigned long long>(i));
    }
    if (feed_degraded > 1 || load_shed > 1) return "bad boolean";
    if (end < begin || detected_at > s.stats.clock ||
        !std::isfinite(inc.detection_latency_sec) ||
        inc.detection_latency_sec < 0 || !std::isfinite(inc.event_fraction)) {
      return util::StrPrintf("implausible time fields at entry %llu",
                             static_cast<unsigned long long>(i));
    }
    if (!stemming::IsValidRawSymbol(inc.stem_key.first) ||
        !stemming::IsValidRawSymbol(inc.stem_key.second)) {
      return util::StrPrintf("invalid stem symbol at entry %llu",
                             static_cast<unsigned long long>(i));
    }
    inc.kind = static_cast<IncidentKind>(kind);
    inc.begin = begin;
    inc.end = end;
    inc.event_count = static_cast<std::size_t>(event_count);
    inc.prefix_count = static_cast<std::size_t>(prefix_count);
    inc.feed_degraded = feed_degraded != 0;
    inc.load_shed = load_shed != 0;
    inc.ingest_tick = ingest_tick;
    inc.detected_at = detected_at;
    s.incidents.push_back(std::move(e));
  }
  return "";
}

std::string DecodeSloHistogram(io::Reader& reader, LiveState& s) {
  std::uint32_t count = 0;
  if (!reader.Get(count)) return "truncated";
  const std::size_t want = DetectionLatencyBounds().size() + 1;
  if (count != want) {
    return util::StrPrintf("bucket count %u != %zu", count, want);
  }
  s.latency_counts.assign(count, 0);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!reader.Get(s.latency_counts[i])) return "truncated";
  }
  return "";
}

std::string DecodeSeriesStore(io::Reader& reader, LiveState& s) {
  obs::TimeSeriesStore::Persisted st;
  std::uint32_t tier_count = 0;
  if (!reader.Get(tier_count)) return "truncated";
  if (tier_count > 16) return "implausible tier count";
  st.tiers.resize(tier_count);
  for (std::uint32_t i = 0; i < tier_count; ++i) {
    if (!reader.Get(st.tiers[i].resolution_us) ||
        !reader.Get(st.tiers[i].capacity)) {
      return util::StrPrintf("truncated at tier %u", i);
    }
  }
  std::uint32_t series_count = 0;
  if (!reader.Get(st.last_sample) || !reader.Get(st.dropped_series) ||
      !reader.Get(series_count)) {
    return "truncated";
  }
  if (series_count > kMaxEntries) return "implausible series count";
  st.series.resize(series_count);
  for (std::uint32_t i = 0; i < series_count; ++i) {
    obs::TimeSeriesStore::PersistedSeries& series = st.series[i];
    if (!GetString(reader, series.name) || !reader.Get(series.kind)) {
      return util::StrPrintf("truncated at series %u", i);
    }
    series.tiers.resize(tier_count);
    for (std::uint32_t tier = 0; tier < tier_count; ++tier) {
      std::uint32_t points = 0;
      if (!reader.Get(points)) {
        return util::StrPrintf("truncated at series %u tier %u", i, tier);
      }
      if (points > st.tiers[tier].capacity) {
        return util::StrPrintf("series %u tier %u overfull", i, tier);
      }
      series.tiers[tier].resize(points);
      for (std::uint32_t p = 0; p < points; ++p) {
        obs::SeriesPoint& pt = series.tiers[tier][p];
        if (!reader.Get(pt.t) || !GetF64(reader, pt.value) ||
            !GetF64(reader, pt.min) || !GetF64(reader, pt.max)) {
          return util::StrPrintf("truncated at series %u tier %u point %u", i,
                                 tier, p);
        }
      }
    }
  }
  // Structural invariants (alignment, ordering, finiteness) live with
  // the store so the decoder and Restore can never disagree.
  if (auto err = obs::TimeSeriesStore::Validate(st); !err.empty()) return err;
  if (st.last_sample > s.stats.clock) {
    return "last sample after the tick boundary";
  }
  s.series_store = std::move(st);
  return "";
}

std::string DecodeProvenance(io::Reader& reader, LiveState& s) {
  obs::ProvenanceLedger::Persisted st;
  std::uint32_t record_count = 0;
  if (!reader.Get(st.caps.max_incidents) ||
      !reader.Get(st.caps.max_events) ||
      !reader.Get(st.caps.max_classes) || !reader.Get(st.evicted) ||
      !reader.Get(record_count)) {
    return "truncated";
  }
  if (record_count > kMaxEntries) return "implausible record count";
  st.records.resize(record_count);
  for (std::uint32_t i = 0; i < record_count; ++i) {
    obs::IncidentProvenance& r = st.records[i];
    std::uint32_t path_count = 0;
    if (!reader.Get(r.seq) || !reader.Get(r.stem_first) ||
        !reader.Get(r.stem_second) || !GetString(reader, r.stem) ||
        !GetString(reader, r.kind) || !reader.Get(path_count)) {
      return util::StrPrintf("truncated at record %u", i);
    }
    if (path_count > 64) {
      return util::StrPrintf("record %u: implausible path length", i);
    }
    r.path.resize(path_count);
    for (std::uint32_t p = 0; p < path_count; ++p) {
      if (!GetString(reader, r.path[p])) {
        return util::StrPrintf("truncated at record %u path hop %u", i, p);
      }
    }
    std::uint32_t event_count = 0;
    if (!reader.Get(r.window_events) || !reader.Get(r.component_events) ||
        !GetF64(reader, r.component_weight) ||
        !reader.Get(r.events_total) || !reader.Get(event_count)) {
      return util::StrPrintf("truncated at record %u", i);
    }
    if (event_count > obs::kMaxProvenanceEvents) {
      return util::StrPrintf("record %u: implausible event count", i);
    }
    r.events.resize(event_count);
    for (std::uint32_t e = 0; e < event_count; ++e) {
      obs::ProvenanceEvent& ev = r.events[e];
      if (!reader.Get(ev.stream_index) || !GetF64(reader, ev.time_sec) ||
          !GetString(reader, ev.type) || !GetString(reader, ev.peer) ||
          !GetString(reader, ev.prefix) || !reader.Get(ev.admission)) {
        return util::StrPrintf("truncated at record %u event %u", i, e);
      }
    }
    std::uint32_t class_count = 0;
    if (!reader.Get(r.classes_total) || !reader.Get(class_count)) {
      return util::StrPrintf("truncated at record %u", i);
    }
    if (class_count > obs::kMaxProvenanceClasses) {
      return util::StrPrintf("record %u: implausible class count", i);
    }
    r.classes.resize(class_count);
    for (std::uint32_t c = 0; c < class_count; ++c) {
      obs::ProvenanceClass& cls = r.classes[c];
      if (!reader.Get(cls.id) || !GetF64(reader, cls.weight) ||
          !GetF64(reader, cls.score) || !GetString(reader, cls.sequence)) {
        return util::StrPrintf("truncated at record %u class %u", i, c);
      }
    }
    std::uint32_t stage_count = 0;
    if (!reader.Get(stage_count)) {
      return util::StrPrintf("truncated at record %u", i);
    }
    if (stage_count > 16) {
      return util::StrPrintf("record %u: implausible stage count", i);
    }
    r.stages.resize(stage_count);
    for (std::uint32_t g = 0; g < stage_count; ++g) {
      if (!GetString(reader, r.stages[g].stage) ||
          !GetF64(reader, r.stages[g].seconds)) {
        return util::StrPrintf("truncated at record %u stage %u", i, g);
      }
    }
    if (!reader.Get(r.trace_tick)) {
      return util::StrPrintf("truncated at record %u", i);
    }
  }
  // Structural invariants (caps, contiguity, per-record bounds) live
  // with the ledger so the decoder and Restore can never disagree.
  if (auto err = obs::ProvenanceLedger::Validate(st); !err.empty()) return err;
  s.provenance = std::move(st);
  return "";
}

// The section table, in encode order.
struct SectionCodec {
  const char* tag;
  void (*encode)(const LiveState&, io::StringSink&);
  std::string (*decode)(io::Reader&, LiveState&);
};

constexpr SectionCodec kSections[] = {
    {"LIVE", EncodeLive, DecodeLive},
    {"SHED", EncodeShed, DecodeShed},
    {"STEM", EncodeStem, DecodeStem},
    {"GAPS", EncodeGaps, DecodeGaps},
    {"PEER", EncodePeers, DecodePeers},
    {"FLOW", EncodeFlow, DecodeFlow},
    {"INCD", EncodeIncidents, DecodeIncidents},
    {"SLOH", EncodeSloHistogram, DecodeSloHistogram},
    {"SERS", EncodeSeriesStore, DecodeSeriesStore},
    {"PROV", EncodeProvenance, DecodeProvenance},
};

}  // namespace

std::vector<std::uint64_t> LatencyCounts(
    const std::vector<IncidentLog::Entry>& incidents) {
  const std::vector<double> bounds = DetectionLatencyBounds();
  std::vector<std::uint64_t> counts(bounds.size() + 1, 0);
  for (const IncidentLog::Entry& e : incidents) {
    std::size_t b = 0;  // bounds.size() is the overflow bucket
    while (b < bounds.size() && e.incident.detection_latency_sec > bounds[b]) {
      ++b;
    }
    ++counts[b];
  }
  return counts;
}

void EncodeLiveState(const LiveState& state,
                     collector::Checkpoint& checkpoint) {
  checkpoint.time = state.stats.clock;
  checkpoint.event_offset = state.next_event;
  checkpoint.sections.clear();
  for (const SectionCodec& codec : kSections) {
    std::string bytes;
    io::StringSink os(bytes);
    io::Put<std::uint8_t>(os, kSectionLayoutVersion);
    codec.encode(state, os);
    checkpoint.sections.push_back({codec.tag, std::move(bytes)});
  }
}

bool DecodeLiveState(const collector::Checkpoint& checkpoint,
                     LiveState* state, std::string* error) {
  LiveState out;
  const auto fail = [error](const char* tag, const std::string& why) {
    if (error != nullptr) {
      *error = util::StrPrintf("section %s: %s", tag, why.c_str());
    }
    return false;
  };

  // Every live section is required; a checkpoint missing one is either
  // collector-only (not a live checkpoint) or truncated by editing.
  // (Tags WIND and QUEU carried full in-flight event records in earlier
  // builds; they are retired and must never be reused for new layouts.)
  for (const SectionCodec& codec : kSections) {
    if (checkpoint.FindSection(codec.tag) == nullptr) {
      return fail(codec.tag, "missing");
    }
  }
  // In table order: later sections validate against earlier ones (FLOW
  // against the LIVE cursor, INCD and SERS against the LIVE clock).
  for (const SectionCodec& codec : kSections) {
    std::istringstream bytes(checkpoint.FindSection(codec.tag)->bytes);
    io::Reader reader(bytes);
    std::uint8_t layout = 0;
    std::string err;
    if (!reader.Get(layout)) {
      err = "truncated layout version";
    } else if (layout != kSectionLayoutVersion) {
      err = util::StrPrintf("unsupported layout version %u", layout);
    } else {
      err = codec.decode(reader, out);
    }
    if (err.empty() && bytes.peek() != std::istringstream::traits_type::eof()) {
      err = "trailing bytes";
    }
    if (!err.empty()) return fail(codec.tag, err);
  }
  // The outer envelope duplicates the cursor; disagreement means the
  // sections do not belong to this snapshot.
  if (checkpoint.time != out.stats.clock ||
      checkpoint.event_offset != out.next_event) {
    return fail("LIVE", "cursor disagrees with the checkpoint envelope");
  }
  if (out.incidents.size() != out.stats.incidents) {
    return fail("INCD", "entry count disagrees with LIVE stats");
  }
  if (LatencyCounts(out.incidents) != out.latency_counts) {
    return fail("SLOH", "bucket counts disagree with the incident log");
  }
  // Incident-id linkage: with a ledger attached (nonzero caps), every
  // incident was attached exactly once, so the retained records must be
  // exactly the newest min(incidents, max_incidents) seqs and each must
  // agree with its INCD entry's stem key.  A tampered PROV section that
  // still parses fails loudly here.
  if (out.provenance.caps.max_incidents > 0) {
    if (out.provenance.evicted + out.provenance.records.size() !=
        out.incidents.size()) {
      return fail("PROV", "record + evicted count disagrees with the "
                          "incident log");
    }
    for (const obs::IncidentProvenance& r : out.provenance.records) {
      // Contiguity from evicted + 1 was already validated, so seq is in
      // range here; check the cross-section identity.
      const Incident& inc = out.incidents[r.seq - 1].incident;
      if (r.stem_first != inc.stem_key.first ||
          r.stem_second != inc.stem_key.second) {
        return fail("PROV",
                    util::StrPrintf("record seq %llu stem key disagrees "
                                    "with INCD",
                                    static_cast<unsigned long long>(r.seq)));
      }
    }
  }
  // Derived stats fields the sections imply rather than store.
  out.stats.shed_level = out.shed_level;
  out.stats.queue_depth = static_cast<std::size_t>(
      std::count(out.flow.begin(), out.flow.end(), std::uint8_t{2}));
  out.stats.restored = true;
  *state = std::move(out);
  return true;
}

}  // namespace ranomaly::core
