#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/pipeline.h"
#include "obs/metrics.h"
#include "stemming/window_stemmer.h"
#include "workload/eventgen.h"
#include "workload/internet_scale.h"

namespace ranomaly::core {
namespace {

using util::kMinute;
using util::kSecond;

// The event-derived subset of a metrics snapshot: counters and integer
// histograms.  Gauges (last-write-wins) and *_seconds histograms
// (wall-clock) are metering only and excluded from the determinism
// contract (DESIGN.md).
std::vector<std::tuple<std::string, std::uint64_t, std::vector<std::uint64_t>>>
DeterministicMetrics(const std::vector<obs::MetricSnapshot>& snapshot) {
  std::vector<
      std::tuple<std::string, std::uint64_t, std::vector<std::uint64_t>>>
      out;
  for (const obs::MetricSnapshot& m : snapshot) {
    if (m.kind == obs::MetricKind::kGauge) continue;
    if (m.name.ends_with("_seconds")) continue;
    out.emplace_back(m.name, m.counter, m.histogram.counts);
  }
  return out;
}

workload::SyntheticInternet SmallInternet() {
  workload::InternetOptions options;
  options.monitored_peers = 3;
  options.nexthops_per_peer = 2;
  options.tier1_count = 4;
  options.transit_count = 10;
  options.origin_as_count = 50;
  options.prefix_count = 300;
  options.seed = 23;
  return workload::SyntheticInternet(options);
}

TEST(PipelineTest, DetectsSessionResetSpike) {
  const auto internet = SmallInternet();
  workload::EventStreamGenerator gen(internet, 1);
  // Quiet background plus one reset burst.
  gen.Churn(0, 60 * kMinute, 200);
  gen.SessionReset(0, 30 * kMinute, kMinute, 20 * kSecond);
  const auto stream = gen.Take();

  const Pipeline pipeline;
  const auto incidents = pipeline.Analyze(stream);
  ASSERT_FALSE(incidents.empty());
  // The biggest incident is the reset (split per session by the stem:
  // the peer-nexthop pair is the session location).
  const Incident& top = incidents[0];
  EXPECT_EQ(top.kind, IncidentKind::kSessionReset);
  EXPECT_GT(top.event_count, 250u);
  EXPECT_GE(top.evidence.single_peer_fraction, 0.8);
  EXPECT_GE(top.evidence.final_announce_fraction, 0.9);
  EXPECT_FALSE(top.summary.empty());
}

TEST(PipelineTest, DetectsLowGradeOscillationWithoutSpike) {
  // The Section IV-E/IV-F shape: steady grass + a persistent per-prefix
  // flap that no rate detector would flag, caught by the long window.
  const auto internet = SmallInternet();
  workload::EventStreamGenerator gen(internet, 2);
  gen.Churn(0, 2 * util::kHour, 400);
  gen.PrefixOscillation(11, 0, 2 * util::kHour, 15 * kSecond);
  const auto stream = gen.Take();

  const Pipeline pipeline;
  const auto incidents = pipeline.Analyze(stream);
  ASSERT_FALSE(incidents.empty());
  const Incident& top = incidents[0];
  // Correlation may pull a few bystander prefixes sharing the oscillating
  // route's path into the component; the dominant-prefix evidence still
  // marks it as a single-prefix flap.
  EXPECT_GE(top.evidence.dominant_prefix_fraction, 0.8);
  EXPECT_TRUE(top.kind == IncidentKind::kRouteFlap ||
              top.kind == IncidentKind::kMedOscillation)
      << ToString(top.kind);
  EXPECT_GT(top.evidence.cycles_per_prefix, 4.0);
}

TEST(PipelineTest, DetectsPathChangeAfterTier1Failover) {
  const auto internet = SmallInternet();
  workload::EventStreamGenerator gen(internet, 3);
  gen.Tier1Failover(0, 1, 10 * kMinute, kMinute);
  const auto stream = gen.Take();

  const Pipeline pipeline;
  const auto incidents = pipeline.Analyze(stream);
  ASSERT_FALSE(incidents.empty());
  const Incident& top = incidents[0];
  EXPECT_GE(top.prefix_count, 10u);
  EXPECT_LT(top.evidence.restored_fraction, 0.5);
  EXPECT_TRUE(top.kind == IncidentKind::kPathChange ||
              top.kind == IncidentKind::kRouteLeak)
      << ToString(top.kind);
}

TEST(PipelineTest, EmptyStreamYieldsNothing) {
  const Pipeline pipeline;
  EXPECT_TRUE(pipeline.Analyze(collector::EventStream{}).empty());
}

TEST(PipelineTest, DeduplicatesAcrossPasses) {
  // A spike that both passes see must appear once.
  const auto internet = SmallInternet();
  workload::EventStreamGenerator gen(internet, 4);
  gen.SessionReset(1, 10 * kMinute, kMinute, 20 * kSecond);
  const auto stream = gen.Take();

  const Pipeline pipeline;
  const auto incidents = pipeline.Analyze(stream);
  std::set<std::string> stems;
  for (const auto& inc : incidents) {
    EXPECT_TRUE(stems.insert(inc.stem_label).second)
        << "duplicate stem " << inc.stem_label;
  }
}

// --- classifier unit behaviour ------------------------------------------

TEST(ClassifierTest, MedOscillationNeedsMedAndCycles) {
  IncidentEvidence e;
  e.cycles_per_prefix = 100.0;
  e.med_present = true;
  EXPECT_EQ(Pipeline::Classify(e, 1), IncidentKind::kMedOscillation);
  e.med_present = false;
  EXPECT_EQ(Pipeline::Classify(e, 1), IncidentKind::kRouteFlap);
  e.cycles_per_prefix = 1.0;
  EXPECT_NE(Pipeline::Classify(e, 1), IncidentKind::kRouteFlap);
}

TEST(ClassifierTest, LeakNeedsGrowthAndNewAses) {
  IncidentEvidence e;
  e.path_growth = 3.0;
  e.new_as_count = 4;
  EXPECT_EQ(Pipeline::Classify(e, 50), IncidentKind::kRouteLeak);
  e.new_as_count = 0;
  EXPECT_NE(Pipeline::Classify(e, 50), IncidentKind::kRouteLeak);
  e.new_as_count = 4;
  e.path_growth = 0.0;
  EXPECT_NE(Pipeline::Classify(e, 50), IncidentKind::kRouteLeak);
}

TEST(ClassifierTest, ResetNeedsRestoration) {
  IncidentEvidence e;
  e.withdraw_fraction = 0.5;
  e.restored_fraction = 1.0;
  e.final_announce_fraction = 1.0;
  e.single_peer_fraction = 1.0;
  EXPECT_EQ(Pipeline::Classify(e, 100), IncidentKind::kSessionReset);
  e.restored_fraction = 0.1;
  EXPECT_NE(Pipeline::Classify(e, 100), IncidentKind::kSessionReset);
}

TEST(EvidenceTest, ExtractsWithdrawFractionAndCycles) {
  using bgp::Event;
  using bgp::EventType;
  std::vector<Event> events;
  stemming::Component component;
  for (int i = 0; i < 6; ++i) {
    Event e;
    e.time = i * kSecond;
    e.peer = bgp::Ipv4Addr(1, 0, 0, 1);
    e.type = i % 2 == 0 ? EventType::kWithdraw : EventType::kAnnounce;
    e.prefix = *bgp::Prefix::Parse("4.5.0.0/16");
    e.attrs.as_path = bgp::AsPath{1, 2};
    e.attrs.med = 5;
    events.push_back(e);
    component.event_indices.push_back(i);
  }
  component.prefixes = {*bgp::Prefix::Parse("4.5.0.0/16")};
  const auto evidence = Pipeline::ExtractEvidence(events, component);
  EXPECT_DOUBLE_EQ(evidence.withdraw_fraction, 0.5);
  EXPECT_DOUBLE_EQ(evidence.single_peer_fraction, 1.0);
  EXPECT_TRUE(evidence.med_present);
  EXPECT_NEAR(evidence.cycles_per_prefix, 2.5, 1e-9);  // 5 transitions / 2
  EXPECT_DOUBLE_EQ(evidence.restored_fraction, 1.0);
  EXPECT_DOUBLE_EQ(evidence.final_announce_fraction, 1.0);
  EXPECT_DOUBLE_EQ(evidence.dominant_prefix_fraction, 1.0);
  EXPECT_EQ(evidence.new_as_count, 0u);
}

// ExtractEvidence as it was when it sorted: tracks in prefix order for
// the sums and the dominant prefix, sort/unique for the AS sets.  Kept
// verbatim as the oracle for the unsorted version.
namespace sorted_reference {

// Dense ids for 64-bit keys (never ~0) in first-seen order: a
// linear-probing table kept at most half full for up to `capacity`
// distinct keys.
class DenseIds {
 public:
  explicit DenseIds(std::size_t capacity) {
    std::size_t cap = 16;
    while (cap < 2 * capacity) cap <<= 1;
    keys_.assign(cap, kEmpty);
    ids_.assign(cap, 0);
    mask_ = cap - 1;
  }

  std::uint32_t Id(std::uint64_t key) {
    std::size_t slot = (key * 0x9e3779b97f4a7c15ULL >> 20) & mask_;
    while (keys_[slot] != kEmpty && keys_[slot] != key) {
      slot = (slot + 1) & mask_;
    }
    if (keys_[slot] == kEmpty) {
      keys_[slot] = key;
      ids_[slot] = size_++;
    }
    return ids_[slot];
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> ids_;
  std::size_t mask_ = 0;
  std::uint32_t size_ = 0;
};


IncidentEvidence ExtractEvidence(
    std::span<const bgp::Event> events,
    const stemming::Component& component) {
  IncidentEvidence ev;
  if (component.event_indices.empty()) return ev;

  std::size_t withdraws = 0;
  bool med = false;

  // Per-prefix first and last observation, and cycle counts.  A
  // "transition" is an announce<->withdraw flip OR an announcement whose
  // nexthop differs from the previous one: at a route reflector with full
  // visibility an oscillation shows up as implicit replacements between
  // alternatives, with few explicit withdrawals.  Paths are read through
  // the first/last event indices rather than copied per event.
  struct PrefixTrack {
    std::size_t first = 0;  // event index of the first observation
    std::size_t last = 0;   // event index of the latest observation
    bgp::EventType last_type = bgp::EventType::kAnnounce;
    std::size_t transitions = 0;
    std::size_t events = 0;
  };
  // Tracks and per-peer counts are born in first-seen order.
  const std::size_t n_events = component.event_indices.size();
  DenseIds prefix_ids(n_events);
  DenseIds peer_ids(n_events);
  std::vector<bgp::Prefix> prefixes;  // per track
  std::vector<PrefixTrack> tracks;
  std::vector<std::size_t> per_peer;

  for (const std::size_t idx : component.event_indices) {
    const bgp::Event& e = events[idx];
    if (e.type == bgp::EventType::kWithdraw) ++withdraws;
    const std::uint32_t peer = peer_ids.Id(e.peer.value());
    if (peer == per_peer.size()) per_peer.push_back(0);
    ++per_peer[peer];
    if (e.attrs.med) med = true;

    const std::uint32_t track = prefix_ids.Id(
        (static_cast<std::uint64_t>(e.prefix.addr().value()) << 8) |
        e.prefix.length());
    if (track == tracks.size()) {
      tracks.push_back(PrefixTrack{idx, idx, e.type, 0, 1});
      prefixes.push_back(e.prefix);
      continue;
    }
    PrefixTrack& t = tracks[track];
    if (e.type != t.last_type ||
        (e.type == bgp::EventType::kAnnounce &&
         e.attrs.nexthop != events[t.last].attrs.nexthop)) {
      ++t.transitions;
      t.last_type = e.type;
    }
    t.last = idx;
    ++t.events;
  }
  // The sums below accumulate in prefix order.
  std::vector<std::uint32_t> order(tracks.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&prefixes](std::uint32_t a, std::uint32_t b) {
              return prefixes[a] < prefixes[b];
            });

  const double n = static_cast<double>(n_events);
  ev.withdraw_fraction = static_cast<double>(withdraws) / n;
  std::size_t busiest = 0;
  for (const std::size_t count : per_peer) busiest = std::max(busiest, count);
  ev.single_peer_fraction = static_cast<double>(busiest) / n;
  ev.med_present = med;

  double cycles = 0.0;
  double growth = 0.0;
  std::size_t restored = 0;
  std::size_t final_announce = 0;
  std::size_t busiest_prefix_events = 0;
  std::vector<bgp::AsNumber> initial_ases;
  std::vector<bgp::AsNumber> final_ases;
  for (const std::uint32_t i : order) {
    const PrefixTrack& t = tracks[i];
    const bgp::AsPath& first_path = events[t.first].attrs.as_path;
    const bgp::AsPath& last_path = events[t.last].attrs.as_path;
    if (t.events > busiest_prefix_events) ev.dominant_prefix = prefixes[i];
    cycles += static_cast<double>(t.transitions) / 2.0;
    growth += static_cast<double>(last_path.Length()) -
              static_cast<double>(first_path.Length());
    if (last_path == first_path) ++restored;
    if (t.last_type == bgp::EventType::kAnnounce) ++final_announce;
    busiest_prefix_events = std::max(busiest_prefix_events, t.events);
    initial_ases.insert(initial_ases.end(), first_path.asns().begin(),
                        first_path.asns().end());
    final_ases.insert(final_ases.end(), last_path.asns().begin(),
                      last_path.asns().end());
  }
  const double p = static_cast<double>(tracks.size());
  ev.cycles_per_prefix = cycles / p;
  ev.path_growth = growth / p;
  ev.restored_fraction = static_cast<double>(restored) / p;
  ev.final_announce_fraction = static_cast<double>(final_announce) / p;
  ev.dominant_prefix_fraction = static_cast<double>(busiest_prefix_events) / n;
  for (std::vector<bgp::AsNumber>* ases : {&initial_ases, &final_ases}) {
    std::sort(ases->begin(), ases->end());
    ases->erase(std::unique(ases->begin(), ases->end()), ases->end());
  }
  for (const bgp::AsNumber a : final_ases) {
    if (!std::binary_search(initial_ases.begin(), initial_ases.end(), a)) {
      ++ev.new_as_count;
    }
  }
  return ev;
}

}  // namespace sorted_reference

// Slides a 5-minute window over `stream` in 10 s ticks, as the live
// runner does, and checks every field of every component's evidence
// against the sorted oracle.  Returns the number of components checked.
std::size_t ExpectEvidenceMatchesSortedOnReplay(
    const collector::EventStream& stream) {
  std::vector<bgp::Event> events;
  for (const bgp::Event& e : stream.events()) {
    if (!bgp::IsMarker(e.type)) events.push_back(e);
  }
  if (events.empty()) return 0;
  stemming::StemmingOptions options;
  options.min_count = 1.0;  // also check the small components
  stemming::WindowStemmer stemmer(options);
  const util::SimDuration tick = 10 * kSecond;
  const util::SimDuration window = 5 * kMinute;
  std::size_t front = 0;
  std::size_t next = 0;
  std::size_t checked = 0;
  for (util::SimTime tick_end = events.front().time + tick;
       next < events.size(); tick_end += tick) {
    std::size_t evicted = 0;
    while (front < next && events[front].time < tick_end - window) {
      ++front;
      ++evicted;
    }
    const std::size_t arrivals = next;
    while (next < events.size() && events[next].time < tick_end) ++next;
    stemmer.PopFront(evicted);
    stemmer.PushBack(
        std::span<const bgp::Event>(events).subspan(arrivals, next - arrivals));
    const std::span<const bgp::Event> current =
        std::span<const bgp::Event>(events).subspan(front, next - front);
    for (const stemming::Component& c : stemmer.Extract().components) {
      const IncidentEvidence want =
          sorted_reference::ExtractEvidence(current, c);
      const IncidentEvidence got = Pipeline::ExtractEvidence(current, c);
      EXPECT_EQ(got.withdraw_fraction, want.withdraw_fraction);
      EXPECT_EQ(got.single_peer_fraction, want.single_peer_fraction);
      EXPECT_EQ(got.cycles_per_prefix, want.cycles_per_prefix);
      EXPECT_EQ(got.path_growth, want.path_growth);
      EXPECT_EQ(got.new_as_count, want.new_as_count);
      EXPECT_EQ(got.med_present, want.med_present);
      EXPECT_EQ(got.restored_fraction, want.restored_fraction);
      EXPECT_EQ(got.final_announce_fraction, want.final_announce_fraction);
      EXPECT_EQ(got.dominant_prefix_fraction, want.dominant_prefix_fraction);
      EXPECT_EQ(got.dominant_prefix, want.dominant_prefix);
      if (::testing::Test::HasFailure()) return checked;
      ++checked;
    }
  }
  return checked;
}

TEST(EvidenceTest, MatchesSortedOracleOnChurnReplay) {
  const auto internet = SmallInternet();
  workload::EventStreamGenerator gen(internet, 7);
  gen.SessionReset(0, 8 * kMinute, 30 * kSecond, 5 * kSecond);
  gen.SessionReset(1, 14 * kMinute, 30 * kSecond, 5 * kSecond);
  gen.SessionReset(2, 20 * kMinute, 30 * kSecond, 5 * kSecond);
  gen.Tier1Failover(0, 1, 25 * kMinute, 15 * kSecond);
  gen.PrefixOscillation(9, 0, 30 * kMinute, 20 * kSecond);
  gen.Churn(0, 30 * kMinute, 6000);
  EXPECT_GT(ExpectEvidenceMatchesSortedOnReplay(gen.Take()), 500u);
}

TEST(EvidenceTest, MatchesSortedOracleOnInternetScaleReplay) {
  workload::InternetScaleOptions options;
  options.as_count = 1200;
  options.tier1_count = 6;
  options.mid_tier_count = 100;
  options.prefix_count = 3000;
  options.monitored_peer_count = 3;
  options.table_dump_duration = 3 * kMinute;
  options.churn_duration = 8 * kMinute;
  options.threads = 1;
  std::string error;
  const auto built = workload::BuildInternetScale(options, &error);
  ASSERT_TRUE(built.has_value()) << error;
  EXPECT_GT(ExpectEvidenceMatchesSortedOnReplay(built->stream), 100u);
}

// The determinism contract at pipeline level: the threaded analysis
// (parallel spike windows + sharded stemming) must produce the same
// incidents as threads=1, byte for byte, on a stream mixing several
// anomaly kinds.
TEST(PipelineTest, ThreadedAnalysisMatchesSerial) {
  const auto internet = SmallInternet();
  workload::EventStreamGenerator gen(internet, 5);
  gen.Churn(0, 2 * util::kHour, 600);
  gen.SessionReset(0, 20 * kMinute, kMinute, 20 * kSecond);
  gen.SessionReset(2, 70 * kMinute, kMinute, 20 * kSecond);
  gen.Tier1Failover(0, 1, 100 * kMinute, kMinute);
  gen.PrefixOscillation(11, 0, 2 * util::kHour, 20 * kSecond);
  const auto stream = gen.Take();

  auto& registry = obs::MetricsRegistry::Global();
  PipelineOptions serial_options;
  serial_options.threads = 1;
  const Pipeline serial(serial_options);
  registry.Reset();
  const auto expected = serial.Analyze(stream);
  ASSERT_FALSE(expected.empty());
  const auto expected_metrics = DeterministicMetrics(registry.Snapshot());

  for (const std::size_t threads : {2u, 4u, 8u}) {
    PipelineOptions options;
    options.threads = threads;
    const Pipeline pipeline(options);
    registry.Reset();
    const auto actual = pipeline.Analyze(stream);
    ASSERT_EQ(actual.size(), expected.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].kind, expected[i].kind);
      EXPECT_EQ(actual[i].begin, expected[i].begin);
      EXPECT_EQ(actual[i].end, expected[i].end);
      EXPECT_EQ(actual[i].event_count, expected[i].event_count);
      EXPECT_EQ(actual[i].event_fraction, expected[i].event_fraction);
      EXPECT_EQ(actual[i].prefix_count, expected[i].prefix_count);
      EXPECT_EQ(actual[i].stem_key, expected[i].stem_key);
      EXPECT_EQ(actual[i].stem_label, expected[i].stem_label);
      EXPECT_EQ(actual[i].top_sequence, expected[i].top_sequence);
      EXPECT_EQ(actual[i].summary, expected[i].summary);
      EXPECT_EQ(actual[i].component.event_indices,
                expected[i].component.event_indices);
    }
    // The perf metrics flowed through the threaded path, and every
    // event-derived metric (counters and integer histograms; wall-clock
    // excluded) is bit-identical to the serial run.
    EXPECT_GT(registry.CounterValue("stemming_events_encoded_total"), 0u);
    EXPECT_EQ(DeterministicMetrics(registry.Snapshot()), expected_metrics)
        << "threads=" << threads;
  }
}

// Incidents for the same stem found by a spike window and the long
// window dedup on symbol identity, not on the formatted label.
TEST(PipelineTest, DedupKeysOnStemSymbolsAcrossWindows) {
  const auto internet = SmallInternet();
  workload::EventStreamGenerator gen(internet, 6);
  gen.Churn(0, 60 * kMinute, 200);
  gen.SessionReset(0, 30 * kMinute, kMinute, 20 * kSecond);
  const auto stream = gen.Take();

  const Pipeline pipeline;
  const auto incidents = pipeline.Analyze(stream);
  ASSERT_FALSE(incidents.empty());
  std::set<std::pair<std::uint64_t, std::uint64_t>> keys;
  for (const Incident& inc : incidents) {
    EXPECT_NE(inc.stem_key, (std::pair<std::uint64_t, std::uint64_t>{0, 0}));
    EXPECT_TRUE(keys.insert(inc.stem_key).second)
        << "duplicate stem " << inc.stem_label;
  }
}

}  // namespace
}  // namespace ranomaly::core
