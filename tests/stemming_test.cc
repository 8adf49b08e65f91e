#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <random>
#include <unordered_map>
#include <unordered_set>

#include "stemming/stemming.h"
#include "stemming/window_stemmer.h"
#include "util/thread_pool.h"
#include "workload/eventgen.h"

namespace ranomaly::stemming {
namespace {

using bgp::AsPath;
using bgp::Event;
using bgp::EventType;
using bgp::Ipv4Addr;
using bgp::Prefix;

Event MakeEvent(const char* peer, const char* nexthop, AsPath path,
                const char* prefix,
                EventType type = EventType::kWithdraw,
                util::SimTime t = 0) {
  Event e;
  e.time = t;
  e.peer = *Ipv4Addr::Parse(peer);
  e.type = type;
  e.prefix = *Prefix::Parse(prefix);
  e.attrs.nexthop = *Ipv4Addr::Parse(nexthop);
  e.attrs.as_path = std::move(path);
  return e;
}

// The paper's Figure 4: ten route withdrawals during an event spike at
// Berkeley.  Eight of the ten share 11423-209; the stem must be exactly
// that pair.
std::vector<Event> Figure4Events() {
  return {
      MakeEvent("128.32.1.3", "128.32.0.70", {11423, 209, 701, 1299, 5713},
                "192.96.10.0/24"),
      MakeEvent("128.32.1.3", "128.32.0.66", {11423, 11422, 209, 4519},
                "207.191.23.0/24"),
      MakeEvent("128.32.1.200", "128.32.0.90", {11423, 209, 701, 1299, 5713},
                "192.96.10.0/24"),
      MakeEvent("128.32.1.200", "128.32.0.90", {11423, 209, 1239, 3228, 21408},
                "212.22.132.0/23"),
      MakeEvent("128.32.1.3", "128.32.0.66", {11423, 209, 701, 705},
                "203.14.156.0/24"),
      MakeEvent("128.32.1.3", "128.32.0.66", {11423, 11422, 209, 1239, 3602},
                "209.5.188.0/24"),
      MakeEvent("128.32.1.3", "128.32.0.66", {11423, 209, 7018, 13606},
                "12.2.41.0/24"),
      MakeEvent("128.32.1.3", "128.32.0.66", {11423, 209, 7018, 13606},
                "12.96.77.0/24"),
      MakeEvent("128.32.1.3", "128.32.0.66", {11423, 209, 1239, 5400, 15410},
                "62.80.64.0/20"),
      MakeEvent("128.32.1.200", "128.32.0.90", {11423, 209, 1239, 5400, 15410},
                "62.80.64.0/20"),
  };
}

TEST(StemmingTest, Figure4ExampleFindsStem11423_209) {
  const auto events = Figure4Events();
  const StemmingResult result = Stem(events);
  ASSERT_FALSE(result.components.empty());
  const Component& top = result.components[0];

  // The stem is the 11423-209 AS edge, with count 8.
  EXPECT_EQ(result.symbols.KindOf(top.stem.first), SymbolKind::kAs);
  EXPECT_EQ(result.symbols.AsOf(top.stem.first), 11423u);
  EXPECT_EQ(result.symbols.AsOf(top.stem.second), 209u);
  EXPECT_DOUBLE_EQ(top.count, 8.0);
  EXPECT_EQ(result.StemLabel(top), "AS11423 - AS209");

  // P: the prefixes on sequences containing 11423-209 (6 unique: two
  // prefixes appear from two peers).
  EXPECT_EQ(top.prefixes.size(), 6u);
  // E: all events whose prefix is in P — here 8 events.
  EXPECT_EQ(top.event_indices.size(), 8u);
}

TEST(StemmingTest, Figure4SecondComponentIsCalren2) {
  // After removing the 11423-209 component, the two 11423-11422 events
  // remain and form the next component.
  const auto events = Figure4Events();
  const StemmingResult result = Stem(events);
  ASSERT_GE(result.components.size(), 2u);
  const Component& second = result.components[1];
  // The two CalREN-2 events share peer-nexthop-11423-11422-209; the stem
  // is the last adjacent pair, 11422-209.
  EXPECT_EQ(result.symbols.AsOf(second.stem.first), 11422u);
  EXPECT_EQ(result.symbols.AsOf(second.stem.second), 209u);
  EXPECT_EQ(second.event_indices.size(), 2u);
  EXPECT_EQ(result.residual_events, 0u);
}

TEST(StemmingTest, ExtendsToLongestSharedSequence) {
  // All events share the full path 1-2-3: s' should extend through it and
  // the stem is the last adjacent pair before the (distinct) prefixes.
  std::vector<Event> events;
  for (int i = 0; i < 5; ++i) {
    events.push_back(MakeEvent("10.0.0.1", "10.1.0.1", {1, 2, 3},
                               ("10." + std::to_string(i) + ".0.0/16").c_str()));
  }
  const StemmingResult result = Stem(events);
  ASSERT_FALSE(result.components.empty());
  const Component& top = result.components[0];
  // s' = peer nexthop 1 2 3 (count 5 each; prefixes differ so the prefix
  // element cannot extend it).
  ASSERT_EQ(top.top_sequence.size(), 5u);
  EXPECT_EQ(result.symbols.KindOf(top.top_sequence[0]), SymbolKind::kPeer);
  EXPECT_EQ(result.symbols.AsOf(top.stem.first), 2u);
  EXPECT_EQ(result.symbols.AsOf(top.stem.second), 3u);
  EXPECT_DOUBLE_EQ(top.count, 5.0);
}

TEST(StemmingTest, SinglePrefixOscillationDominatesLongWindow) {
  // Section III-B: a persistent single-prefix oscillation overwhelms
  // other correlations over a long window even without a rate spike.
  std::vector<Event> events;
  util::SimTime t = 0;
  // Background: 50 distinct one-off changes.
  for (int i = 0; i < 50; ++i) {
    events.push_back(MakeEvent("10.0.0.1", "10.1.0.1",
                               {static_cast<bgp::AsNumber>(100 + i)},
                               ("20." + std::to_string(i) + ".0.0/16").c_str(),
                               EventType::kAnnounce, t));
    t += util::kMinute;
  }
  // The oscillator: one prefix flapping 200 times.
  for (int i = 0; i < 200; ++i) {
    events.push_back(MakeEvent("10.0.0.2", "10.1.0.2", {7, 8}, "4.5.0.0/16",
                               i % 2 == 0 ? EventType::kWithdraw
                                          : EventType::kAnnounce,
                               t));
    t += util::kSecond;
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.time < b.time; });

  const StemmingResult result = Stem(events);
  ASSERT_FALSE(result.components.empty());
  const Component& top = result.components[0];
  ASSERT_EQ(top.prefixes.size(), 1u);
  EXPECT_EQ(top.prefixes[0], *Prefix::Parse("4.5.0.0/16"));
  EXPECT_EQ(top.event_indices.size(), 200u);
  // The oscillator's events are ~80% of the stream — the "95% of IBGP
  // traffic from one prefix" effect of Section IV-F.
  EXPECT_GT(static_cast<double>(top.event_indices.size()) /
                static_cast<double>(events.size()),
            0.75);
}

TEST(StemmingTest, TemporalIndependenceIgnoresOrder) {
  // Shuffling event order must not change the components (correlation is
  // time-scale free).
  auto events = Figure4Events();
  const StemmingResult before = Stem(events);
  std::rotate(events.begin(), events.begin() + 5, events.end());
  const StemmingResult after = Stem(events);
  ASSERT_EQ(before.components.size(), after.components.size());
  EXPECT_EQ(before.components[0].count, after.components[0].count);
  EXPECT_EQ(before.StemLabel(before.components[0]),
            after.StemLabel(after.components[0]));
}

TEST(StemmingTest, ComponentRemovalIsExhaustive) {
  const auto events = Figure4Events();
  const StemmingResult result = Stem(events);
  std::size_t claimed = result.residual_events;
  std::vector<bool> seen(events.size(), false);
  for (const auto& c : result.components) {
    claimed += c.event_indices.size();
    for (const std::size_t idx : c.event_indices) {
      EXPECT_FALSE(seen[idx]) << "event claimed twice";
      seen[idx] = true;
    }
  }
  EXPECT_EQ(claimed, events.size());
}

TEST(StemmingTest, MaxComponentsRespected) {
  std::vector<Event> events;
  // 10 independent 3-event groups.
  for (int g = 0; g < 10; ++g) {
    const std::string peer = "10.0." + std::to_string(g) + ".1";
    const std::string nexthop = "10.1." + std::to_string(g) + ".1";
    for (int i = 0; i < 3; ++i) {
      events.push_back(MakeEvent(
          peer.c_str(), nexthop.c_str(),
          {static_cast<bgp::AsNumber>(10 + g), static_cast<bgp::AsNumber>(100 + g)},
          ("30." + std::to_string(g) + "." + std::to_string(i) + ".0/24").c_str()));
    }
  }
  StemmingOptions options;
  options.max_components = 3;
  const StemmingResult result = Stem(events, options);
  EXPECT_EQ(result.components.size(), 3u);
  EXPECT_EQ(result.residual_events, 21u);
}

TEST(StemmingTest, MinCountStopsNoise) {
  std::vector<Event> events;
  events.push_back(MakeEvent("10.0.0.1", "10.1.0.1", {1, 2}, "10.0.0.0/16"));
  events.push_back(MakeEvent("10.0.0.1", "10.1.0.1", {3, 4}, "11.0.0.0/16"));
  StemmingOptions options;
  options.min_count = 3.0;  // nothing repeats 3 times
  const StemmingResult result = Stem(events, options);
  EXPECT_TRUE(result.components.empty());
  EXPECT_EQ(result.residual_events, 2u);
}

TEST(StemmingTest, WeightedStemmingPromotesElephants) {
  // Section III-D.2: two groups, the smaller one carrying elephant
  // traffic must win under traffic weighting.
  std::vector<Event> events;
  for (int i = 0; i < 10; ++i) {
    events.push_back(MakeEvent("10.0.0.1", "10.1.0.1", {1, 2},
                               ("40.0." + std::to_string(i) + ".0/24").c_str()));
  }
  for (int i = 0; i < 4; ++i) {
    events.push_back(MakeEvent("10.0.0.2", "10.1.0.2", {3, 4},
                               ("50.0." + std::to_string(i) + ".0/24").c_str()));
  }

  const StemmingResult unweighted = Stem(events);
  ASSERT_FALSE(unweighted.components.empty());
  EXPECT_EQ(unweighted.symbols.AsOf(unweighted.components[0].stem.first), 1u);

  StemmingOptions weighted;
  weighted.weight_fn = [](const Prefix& p) {
    return p.addr().value() >> 24 == 50 ? 100.0 : 1.0;  // 50.x are elephants
  };
  const StemmingResult result = Stem(events, weighted);
  ASSERT_FALSE(result.components.empty());
  EXPECT_EQ(result.symbols.AsOf(result.components[0].stem.first), 3u);
  EXPECT_DOUBLE_EQ(result.components[0].count, 400.0);
}

TEST(StemmingTest, EmptyStream) {
  const StemmingResult result = Stem({});
  EXPECT_TRUE(result.components.empty());
  EXPECT_EQ(result.total_events, 0u);
}

TEST(StemmingTest, PrependsCollapseInSequences) {
  // AS-path prepending must not manufacture a bogus "7-7" stem.
  std::vector<Event> events;
  for (int i = 0; i < 5; ++i) {
    events.push_back(MakeEvent("10.0.0.1", "10.1.0.1", {7, 7, 7, 9},
                               ("60.0." + std::to_string(i) + ".0/24").c_str()));
  }
  const StemmingResult result = Stem(events);
  ASSERT_FALSE(result.components.empty());
  const auto& seq = result.components[0].top_sequence;
  for (std::size_t i = 1; i < seq.size(); ++i) {
    EXPECT_NE(seq[i], seq[i - 1]);
  }
}

TEST(StemmingTest, TiesBreakOnRawValuesNotFirstSeenOrder) {
  // Two disjoint groups with identical counts and lengths tie on every
  // rank key; the pick must not depend on which group was seen first.
  std::vector<Event> b_group;
  std::vector<Event> a_group;
  for (int i = 0; i < 3; ++i) {
    b_group.push_back(MakeEvent("10.0.0.2", "10.1.0.2", {5, 6},
                                ("70.0." + std::to_string(i) + ".0/24").c_str()));
    a_group.push_back(MakeEvent("10.0.0.1", "10.1.0.1", {3, 4},
                                ("80.0." + std::to_string(i) + ".0/24").c_str()));
  }
  std::vector<Event> b_first = b_group;
  b_first.insert(b_first.end(), a_group.begin(), a_group.end());
  std::vector<Event> a_first = a_group;
  a_first.insert(a_first.end(), b_group.begin(), b_group.end());
  for (const auto* events : {&b_first, &a_first}) {
    const StemmingResult result = Stem(*events);
    ASSERT_EQ(result.components.size(), 2u);
    // Peer 10.0.0.1 has the smaller raw value, so its group ranks first.
    EXPECT_EQ(result.SequenceLabel(result.components[0]),
              "peer 10.0.0.1 nexthop 10.1.0.1 AS3 AS4");
    EXPECT_EQ(result.SequenceLabel(result.components[1]),
              "peer 10.0.0.2 nexthop 10.1.0.2 AS5 AS6");
  }
}

TEST(SymbolTableTest, RoundTripsAllKinds) {
  SymbolTable table;
  const auto peer = table.InternPeer(Ipv4Addr(1, 2, 3, 4));
  const auto nh = table.InternNexthop(Ipv4Addr(1, 2, 3, 4));
  const auto as = table.InternAs(11423);
  const auto pfx = table.InternPrefix(*Prefix::Parse("4.5.0.0/16"));
  EXPECT_NE(peer, nh);  // same address, different kinds
  EXPECT_EQ(table.KindOf(peer), SymbolKind::kPeer);
  EXPECT_EQ(table.AddrOf(nh), Ipv4Addr(1, 2, 3, 4));
  EXPECT_EQ(table.AsOf(as), 11423u);
  EXPECT_EQ(table.PrefixOf(pfx), *Prefix::Parse("4.5.0.0/16"));
  EXPECT_EQ(table.Name(peer), "peer 1.2.3.4");
  EXPECT_EQ(table.Name(as), "AS11423");
  EXPECT_EQ(table.Name(pfx), "4.5.0.0/16");
  EXPECT_THROW(table.AsOf(peer), std::logic_error);
  EXPECT_THROW(table.PrefixOf(as), std::logic_error);
}

// ---------------------------------------------------------------------------
// Equivalence suite: the arena-encoded, incrementally-counted, optionally
// sharded Stem must reproduce the original direct implementation exactly.
// `reference` below is a faithful copy of the pre-arena Stem (per-event
// SymbolId vectors, VecHash-keyed maps, full recount per iteration) kept
// as the oracle; any behavioural drift in the optimized path fails here.
// ---------------------------------------------------------------------------

namespace reference {

struct EncodedEvent {
  std::vector<SymbolId> seq;
  SymbolId prefix_symbol = 0;
  double weight = 1.0;
};

struct PairHash {
  std::size_t operator()(const std::pair<SymbolId, SymbolId>& p) const {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(p.first) << 32) | p.second);
  }
};

struct VecHash {
  std::size_t operator()(const std::vector<SymbolId>& v) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const SymbolId s : v) {
      h ^= s;
      h *= 0x100000001b3ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

constexpr double kCountEpsilon = 1e-9;

bool CountsEqual(double a, double b) {
  return std::fabs(a - b) <= kCountEpsilon * std::max(1.0, std::max(a, b));
}

std::optional<std::pair<std::vector<SymbolId>, double>> TopSubsequence(
    const std::vector<EncodedEvent>& events, const std::vector<bool>& active,
    const SymbolTable& symbols, double min_count) {
  std::unordered_map<std::pair<SymbolId, SymbolId>, double, PairHash> bigrams;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (!active[i]) continue;
    const auto& seq = events[i].seq;
    for (std::size_t j = 0; j + 1 < seq.size(); ++j) {
      bigrams[{seq[j], seq[j + 1]}] += events[i].weight;
    }
  }
  if (bigrams.empty()) return std::nullopt;

  double best_count = 0.0;
  for (const auto& [pair, count] : bigrams) {
    best_count = std::max(best_count, count);
  }
  if (best_count < min_count) return std::nullopt;

  std::unordered_set<std::vector<SymbolId>, VecHash> survivors;
  for (const auto& [pair, count] : bigrams) {
    if (CountsEqual(count, best_count)) {
      survivors.insert({pair.first, pair.second});
    }
  }

  std::unordered_set<std::vector<SymbolId>, VecHash> last_survivors =
      survivors;
  std::size_t k = 2;
  while (!survivors.empty()) {
    last_survivors = survivors;
    std::unordered_map<std::vector<SymbolId>, double, VecHash> extended;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (!active[i]) continue;
      const auto& seq = events[i].seq;
      if (seq.size() < k + 1) continue;
      std::vector<SymbolId> window;
      for (std::size_t j = 0; j + k < seq.size(); ++j) {
        window.assign(seq.begin() + static_cast<std::ptrdiff_t>(j),
                      seq.begin() + static_cast<std::ptrdiff_t>(j + k));
        if (!survivors.contains(window)) continue;
        window.push_back(seq[j + k]);
        extended[window] += events[i].weight;
      }
    }
    survivors.clear();
    for (const auto& [vec, count] : extended) {
      if (CountsEqual(count, best_count)) survivors.insert(vec);
    }
    ++k;
  }

  std::vector<SymbolId> best = *std::min_element(
      last_survivors.begin(), last_survivors.end(),
      [&symbols](const std::vector<SymbolId>& a,
                 const std::vector<SymbolId>& b) {
        return std::lexicographical_compare(
            a.begin(), a.end(), b.begin(), b.end(),
            [&symbols](SymbolId x, SymbolId y) {
              return symbols.Raw(x) < symbols.Raw(y);
            });
      });
  return std::make_pair(std::move(best), best_count);
}

bool ContainsSubsequence(const std::vector<SymbolId>& seq,
                         const std::vector<SymbolId>& sub) {
  if (sub.size() > seq.size()) return false;
  for (std::size_t j = 0; j + sub.size() <= seq.size(); ++j) {
    if (std::equal(sub.begin(), sub.end(),
                   seq.begin() + static_cast<std::ptrdiff_t>(j))) {
      return true;
    }
  }
  return false;
}

StemmingResult ReferenceStem(std::span<const bgp::Event> events,
                             const StemmingOptions& options = {}) {
  StemmingResult result;
  result.total_events = events.size();

  std::vector<EncodedEvent> encoded;
  encoded.reserve(events.size());
  for (const bgp::Event& e : events) {
    EncodedEvent ee;
    ee.seq.reserve(e.attrs.as_path.Length() + 3);
    ee.seq.push_back(result.symbols.InternPeer(e.peer));
    ee.seq.push_back(result.symbols.InternNexthop(e.attrs.nexthop));
    bgp::AsNumber last_as = 0;
    bool have_last = false;
    for (const bgp::AsNumber asn : e.attrs.as_path.asns()) {
      if (have_last && asn == last_as) continue;
      ee.seq.push_back(result.symbols.InternAs(asn));
      last_as = asn;
      have_last = true;
    }
    ee.prefix_symbol = result.symbols.InternPrefix(e.prefix);
    ee.seq.push_back(ee.prefix_symbol);
    ee.weight = options.weight_fn ? options.weight_fn(e.prefix) : 1.0;
    result.total_weight += ee.weight;
    encoded.push_back(std::move(ee));
  }

  std::vector<bool> active(encoded.size(), true);
  std::size_t active_count = encoded.size();

  while (result.components.size() < options.max_components &&
         active_count > 0) {
    const double min_count =
        std::max(options.min_count,
                 options.min_count_fraction * result.total_weight);
    auto top = TopSubsequence(encoded, active, result.symbols, min_count);
    if (!top) break;
    auto& [sequence, count] = *top;
    if (sequence.size() < options.min_subsequence_length) break;

    Component component;
    component.top_sequence = sequence;
    component.stem = {sequence[sequence.size() - 2], sequence.back()};
    component.count = count;

    std::unordered_set<SymbolId> prefix_symbols;
    for (std::size_t i = 0; i < encoded.size(); ++i) {
      if (!active[i]) continue;
      if (ContainsSubsequence(encoded[i].seq, sequence)) {
        prefix_symbols.insert(encoded[i].prefix_symbol);
      }
    }
    for (std::size_t i = 0; i < encoded.size(); ++i) {
      if (!active[i]) continue;
      if (prefix_symbols.contains(encoded[i].prefix_symbol)) {
        component.event_indices.push_back(i);
        component.event_weight += encoded[i].weight;
        active[i] = false;
        --active_count;
      }
    }
    component.prefixes.reserve(prefix_symbols.size());
    for (const SymbolId s : prefix_symbols) {
      component.prefixes.push_back(result.symbols.PrefixOf(s));
    }
    std::sort(component.prefixes.begin(), component.prefixes.end());

    result.components.push_back(std::move(component));
  }

  result.residual_events = active_count;
  return result;
}

}  // namespace reference

// Exact (bit-level) equality of two stemming results.  Counts are sums
// of per-event weights; for the unit-weight workloads below they are
// integers, so exact equality holds across implementations regardless of
// accumulation order, and the optimized path guarantees an accumulation
// order matching its serial self for any thread count.
void ExpectIdenticalResults(const StemmingResult& a, const StemmingResult& b) {
  EXPECT_EQ(a.total_events, b.total_events);
  EXPECT_EQ(a.total_weight, b.total_weight);
  EXPECT_EQ(a.residual_events, b.residual_events);
  // Interning order is part of the contract: components compare by
  // SymbolId below, which only means anything if the ids name the same
  // symbols on both sides.
  ASSERT_EQ(a.symbols.size(), b.symbols.size());
  for (SymbolId id = 0; id < static_cast<SymbolId>(a.symbols.size()); ++id) {
    ASSERT_EQ(a.symbols.Raw(id), b.symbols.Raw(id)) << "symbol " << id;
  }
  ASSERT_EQ(a.components.size(), b.components.size());
  for (std::size_t i = 0; i < a.components.size(); ++i) {
    const Component& ca = a.components[i];
    const Component& cb = b.components[i];
    EXPECT_EQ(ca.top_sequence, cb.top_sequence) << "component " << i;
    EXPECT_EQ(ca.stem, cb.stem) << "component " << i;
    EXPECT_EQ(ca.count, cb.count) << "component " << i;
    EXPECT_EQ(ca.prefixes, cb.prefixes) << "component " << i;
    EXPECT_EQ(ca.event_indices, cb.event_indices) << "component " << i;
    EXPECT_EQ(ca.event_weight, cb.event_weight) << "component " << i;
  }
}

// Seeded anomaly workloads mirroring the paper's case studies.
std::vector<Event> SessionResetWorkload() {
  workload::InternetOptions opt;
  opt.monitored_peers = 4;
  opt.prefix_count = 600;
  opt.origin_as_count = 80;
  opt.seed = 11;
  const workload::SyntheticInternet internet(opt);
  workload::EventStreamGenerator gen(internet, 101);
  gen.SessionReset(1, 10 * util::kMinute, util::kMinute,
                   30 * util::kSecond);
  gen.Churn(0, 30 * util::kMinute, 500);
  return gen.Take().events();
}

std::vector<Event> RouteLeakWorkload() {
  workload::InternetOptions opt;
  opt.monitored_peers = 4;
  opt.prefix_count = 600;
  opt.origin_as_count = 80;
  opt.seed = 13;
  const workload::SyntheticInternet internet(opt);
  workload::EventStreamGenerator gen(internet, 103);
  gen.Tier1Failover(0, 1, 12 * util::kMinute, util::kMinute);
  gen.Churn(0, 30 * util::kMinute, 500);
  return gen.Take().events();
}

std::vector<Event> OscillationWorkload() {
  workload::InternetOptions opt;
  opt.monitored_peers = 4;
  opt.prefix_count = 600;
  opt.origin_as_count = 80;
  opt.seed = 17;
  const workload::SyntheticInternet internet(opt);
  workload::EventStreamGenerator gen(internet, 107);
  gen.PrefixOscillation(42, 0, 2 * util::kHour, 30 * util::kSecond);
  gen.Churn(0, 2 * util::kHour, 400);
  return gen.Take().events();
}

class StemmingEquivalenceTest
    : public ::testing::TestWithParam<std::vector<Event> (*)()> {};

TEST_P(StemmingEquivalenceTest, ArenaMatchesReferenceImplementation) {
  const std::vector<Event> events = GetParam()();
  ASSERT_FALSE(events.empty());
  StemmingOptions options;
  const StemmingResult expected = reference::ReferenceStem(events, options);
  const StemmingResult actual = Stem(events, options);
  ExpectIdenticalResults(expected, actual);
  ASSERT_FALSE(actual.components.empty());
}

TEST_P(StemmingEquivalenceTest, ThreadPoolPathMatchesSerial) {
  const std::vector<Event> events = GetParam()();
  StemmingOptions serial;
  const StemmingResult expected = Stem(events, serial);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    util::ThreadPool pool(threads);
    StemmingOptions pooled;
    pooled.pool = &pool;
    const StemmingResult actual = Stem(events, pooled);
    ExpectIdenticalResults(expected, actual);
  }
}

// Shrunken grains force every parallel stage (sharded encode dedup,
// max-count and posting scans, subtract-on-removal) through
// genuinely multi-chunk execution on a test-sized window.  Unweighted
// counts are integer sums, so even a different chunking must reproduce
// the default configuration exactly — and the pooled runs must match
// the identically-chunked serial run byte for byte.
StemmingOptions TinyGrainOptions() {
  StemmingOptions options;
  options.encode_shard_events = 64;
  options.scan_grain = 16;
  options.candidate_grain = 8;
  options.removal_grain = 8;
  return options;
}

TEST_P(StemmingEquivalenceTest, MultiChunkGrainsMatchDefaultConfiguration) {
  const std::vector<Event> events = GetParam()();
  const StemmingResult expected = Stem(events, StemmingOptions{});
  StemmingOptions tiny = TinyGrainOptions();
  ExpectIdenticalResults(expected, Stem(events, tiny));
  for (const std::size_t threads : {2u, 4u, 8u}) {
    util::ThreadPool pool(threads);
    tiny.pool = &pool;
    const StemmingResult actual = Stem(events, tiny);
    ExpectIdenticalResults(expected, actual);
  }
}

TEST_P(StemmingEquivalenceTest, MultiChunkWeightedIsThreadCountInvariant) {
  // With non-integer weights the chunk split fixes the accumulation
  // order, so a tiny-grain run is its own serial baseline; the pooled
  // runs must still match it to the last bit at every thread count.
  const std::vector<Event> events = GetParam()();
  const auto weight = [](const bgp::Prefix& p) {
    return 1.0 + 0.125 * static_cast<double>(p.addr().value() % 7) + 1e-3;
  };
  StemmingOptions tiny = TinyGrainOptions();
  tiny.weight_fn = weight;
  const StemmingResult expected = Stem(events, tiny);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    util::ThreadPool pool(threads);
    StemmingOptions pooled = TinyGrainOptions();
    pooled.weight_fn = weight;
    pooled.pool = &pool;
    const StemmingResult actual = Stem(events, pooled);
    ExpectIdenticalResults(expected, actual);
  }
}

TEST_P(StemmingEquivalenceTest, WeightedCountsAreThreadCountInvariant) {
  // Non-integer weights make accumulation order observable in the last
  // FP bits; the fixed shard split plus shard-order merge must keep the
  // result bit-identical for every thread count.
  const std::vector<Event> events = GetParam()();
  const auto weight = [](const bgp::Prefix& p) {
    return 1.0 + 0.125 * static_cast<double>(p.addr().value() % 7) + 1e-3;
  };
  StemmingOptions serial;
  serial.weight_fn = weight;
  const StemmingResult expected = Stem(events, serial);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    util::ThreadPool pool(threads);
    StemmingOptions pooled;
    pooled.weight_fn = weight;
    pooled.pool = &pool;
    const StemmingResult actual = Stem(events, pooled);
    ExpectIdenticalResults(expected, actual);
  }
}

std::vector<std::uint64_t> RawSequence(const StemmingResult& result,
                                       const std::vector<SymbolId>& ids) {
  std::vector<std::uint64_t> raw;
  for (const SymbolId id : ids) raw.push_back(result.symbols.Raw(id));
  return raw;
}

// Metamorphic: stemming is a function of the event multiset.  A full
// shuffle of the window must yield the same components — compared by
// raw symbol values, since a shuffle changes first-seen SymbolIds — with
// every component claiming the permuted images of the same events.
TEST_P(StemmingEquivalenceTest, ShuffledWindowYieldsRawIdenticalComponents) {
  const std::vector<Event> events = GetParam()();
  std::vector<std::size_t> perm(events.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  std::mt19937_64 rng(7);
  std::shuffle(perm.begin(), perm.end(), rng);
  std::vector<Event> shuffled;
  for (const std::size_t i : perm) shuffled.push_back(events[i]);

  const StemmingResult a = Stem(events);
  const StemmingResult b = Stem(shuffled);
  ASSERT_FALSE(a.components.empty());
  EXPECT_EQ(a.residual_events, b.residual_events);
  ASSERT_EQ(a.components.size(), b.components.size());
  for (std::size_t c = 0; c < a.components.size(); ++c) {
    const Component& ca = a.components[c];
    const Component& cb = b.components[c];
    EXPECT_EQ(RawSequence(a, ca.top_sequence), RawSequence(b, cb.top_sequence))
        << "component " << c;
    EXPECT_EQ(a.symbols.Raw(ca.stem.first), b.symbols.Raw(cb.stem.first));
    EXPECT_EQ(a.symbols.Raw(ca.stem.second), b.symbols.Raw(cb.stem.second));
    EXPECT_EQ(ca.count, cb.count) << "component " << c;
    EXPECT_EQ(ca.prefixes, cb.prefixes) << "component " << c;
    EXPECT_EQ(ca.event_weight, cb.event_weight) << "component " << c;
    std::vector<std::size_t> mapped;
    for (const std::size_t i : cb.event_indices) mapped.push_back(perm[i]);
    std::sort(mapped.begin(), mapped.end());
    EXPECT_EQ(ca.event_indices, mapped) << "component " << c;
  }
}

// Metamorphic: k copies of the window scale every count by k and keep
// every stem (min_count scales with it, so the same components qualify).
TEST_P(StemmingEquivalenceTest, KFoldDuplicationScalesCountsAndKeepsStems) {
  const std::vector<Event> events = GetParam()();
  constexpr std::size_t kFold = 3;
  std::vector<Event> repeated;
  for (std::size_t copy = 0; copy < kFold; ++copy) {
    repeated.insert(repeated.end(), events.begin(), events.end());
  }
  const StemmingOptions once;
  StemmingOptions folded;
  folded.min_count = once.min_count * kFold;

  const StemmingResult a = Stem(events, once);
  const StemmingResult b = Stem(repeated, folded);
  ASSERT_FALSE(a.components.empty());
  EXPECT_EQ(a.residual_events * kFold, b.residual_events);
  ASSERT_EQ(a.components.size(), b.components.size());
  for (std::size_t c = 0; c < a.components.size(); ++c) {
    const Component& ca = a.components[c];
    const Component& cb = b.components[c];
    EXPECT_EQ(RawSequence(a, ca.top_sequence), RawSequence(b, cb.top_sequence))
        << "component " << c;
    EXPECT_EQ(ca.count * kFold, cb.count) << "component " << c;
    EXPECT_EQ(ca.event_weight * kFold, cb.event_weight) << "component " << c;
    EXPECT_EQ(ca.prefixes, cb.prefixes) << "component " << c;
    std::vector<std::size_t> expected;
    for (std::size_t copy = 0; copy < kFold; ++copy) {
      for (const std::size_t i : ca.event_indices) {
        expected.push_back(i + copy * events.size());
      }
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(expected, cb.event_indices) << "component " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, StemmingEquivalenceTest,
                         ::testing::Values(&SessionResetWorkload,
                                           &RouteLeakWorkload,
                                           &OscillationWorkload),
                         [](const auto& info) {
                           switch (info.index) {
                             case 0: return "SessionReset";
                             case 1: return "RouteLeak";
                             default: return "Oscillation";
                           }
                         });

TEST(StemmingEquivalenceTest, Figure4MatchesReference) {
  const auto events = Figure4Events();
  ExpectIdenticalResults(reference::ReferenceStem(events), Stem(events));
}

// ---------------------------------------------------------------------------
// Randomized oracle for the top-sub-sequence search.  The arena path
// lengthens a max-count bigram by one walk of its posting list (the
// longest continuation common to every occurrence) and skips bigrams
// inside an earlier chain; the reference re-counts every level.  Windows
// over a four-AS alphabet make that walk's edge cases common: max-count
// bigrams whose occurrences end their class, AS loops whose repeats
// overlap (1 2 1 2), equally long chains that tie, and chains whose
// interior bigram got a lower entry id (in an earlier, since removed or
// expired, class) than the chain's leading bigram.
// ---------------------------------------------------------------------------

Event SmallEvent(std::uint32_t peer, std::uint32_t nexthop,
                 std::vector<bgp::AsNumber> path, std::uint32_t prefix) {
  Event e;
  e.peer = Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(peer));
  e.type = EventType::kWithdraw;
  e.prefix = Prefix(Ipv4Addr(20, 0, static_cast<std::uint8_t>(prefix), 0), 24);
  e.attrs.nexthop = Ipv4Addr(10, 1, 0, static_cast<std::uint8_t>(nexthop));
  e.attrs.as_path = AsPath(std::move(path));
  return e;
}

// Motifs (a random path repeated over random prefixes) plant max-count
// chains and ties; short noise paths over the same alphabet put their
// bigrams elsewhere, often first.
std::vector<Event> RandomSmallAlphabetWindow(std::mt19937_64& rng) {
  const auto pick = [&rng](std::uint32_t n) {
    return static_cast<std::uint32_t>(rng() % n);
  };
  const auto path = [&pick](std::size_t len) {
    std::vector<bgp::AsNumber> asns;
    for (std::size_t i = 0; i < len; ++i) asns.push_back(1 + pick(4));
    return asns;
  };
  std::vector<Event> events;
  const std::size_t motifs = 1 + pick(3);
  for (std::size_t m = 0; m < motifs; ++m) {
    const std::vector<bgp::AsNumber> motif = path(2 + pick(5));
    const std::uint32_t peer = 1 + pick(2);
    const std::uint32_t nexthop = 1 + pick(2);
    const std::size_t reps = 2 + pick(4);
    for (std::size_t r = 0; r < reps; ++r) {
      events.push_back(SmallEvent(peer, nexthop, motif, pick(6)));
    }
  }
  const std::size_t noise = pick(10);
  for (std::size_t i = 0; i < noise; ++i) {
    events.push_back(
        SmallEvent(1 + pick(2), 1 + pick(2), path(1 + pick(6)), pick(6)));
  }
  std::shuffle(events.begin(), events.end(), rng);
  return events;
}

// Components compared through raw symbol values: a window stemmer's
// result names its own (re-homed) symbol table.
void ExpectSameRawComponents(const StemmingResult& want,
                             const StemmingResult& got) {
  EXPECT_EQ(want.total_events, got.total_events);
  EXPECT_EQ(want.total_weight, got.total_weight);
  EXPECT_EQ(want.residual_events, got.residual_events);
  ASSERT_EQ(want.components.size(), got.components.size());
  for (std::size_t c = 0; c < want.components.size(); ++c) {
    const Component& a = want.components[c];
    const Component& b = got.components[c];
    EXPECT_EQ(RawSequence(want, a.top_sequence),
              RawSequence(got, b.top_sequence))
        << "component " << c;
    EXPECT_EQ(a.count, b.count) << "component " << c;
    EXPECT_EQ(a.prefixes, b.prefixes) << "component " << c;
    EXPECT_EQ(a.event_indices, b.event_indices) << "component " << c;
    EXPECT_EQ(a.event_weight, b.event_weight) << "component " << c;
  }
}

// Checks `window` against the reference: the batch Stem serially and on
// 2/4/8-thread pools with every grain shrunk, and a window stemmer that
// first held (and expired) `expired`, so dead classes own the lowest
// class and entry ids.
void ExpectWindowMatchesReference(const std::vector<Event>& expired,
                                  const std::vector<Event>& window,
                                  std::size_t max_components,
                                  std::span<util::ThreadPool* const> pools) {
  StemmingOptions options = TinyGrainOptions();
  options.max_components = max_components;
  const StemmingResult expected = reference::ReferenceStem(window, options);
  {
    SCOPED_TRACE("serial Stem");
    ExpectIdenticalResults(expected, Stem(window, options));
  }
  for (util::ThreadPool* pool : pools) {
    SCOPED_TRACE("Stem on " + std::to_string(pool->threads()) + " threads");
    StemmingOptions pooled = options;
    pooled.pool = pool;
    ExpectIdenticalResults(expected, Stem(window, pooled));
  }
  {
    SCOPED_TRACE("WindowStemmer");
    WindowStemmer stemmer(options);
    stemmer.PushBack(expired);
    stemmer.PushBack(window);
    stemmer.PopFront(expired.size());
    ExpectSameRawComponents(expected, stemmer.Extract());
  }
  // Integer weights (zero included) keep every count exact, so the
  // weighted batch path must match the reference bit for bit too.
  SCOPED_TRACE("weighted Stem");
  options.weight_fn = [](const Prefix& p) {
    return static_cast<double>((p.addr().value() >> 8) % 3);
  };
  ExpectIdenticalResults(reference::ReferenceStem(window, options),
                         Stem(window, options));
}

class StemmingOracleTest : public ::testing::Test {
 protected:
  util::ThreadPool pool2_{2};
  util::ThreadPool pool4_{4};
  util::ThreadPool pool8_{8};
  std::vector<util::ThreadPool*> pools_{&pool2_, &pool4_, &pool8_};
};

TEST_F(StemmingOracleTest, RandomSmallAlphabetWindowsMatchReference) {
  std::mt19937_64 rng(20051);
  for (int round = 0; round < 300; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::vector<Event> expired = RandomSmallAlphabetWindow(rng);
    const std::vector<Event> window = RandomSmallAlphabetWindow(rng);
    const std::size_t max_components = 1 + rng() % 8;
    ExpectWindowMatchesReference(expired, window, max_components, pools_);
    if (HasFatalFailure() || HasNonfatalFailure()) return;
  }
}

TEST_F(StemmingOracleTest, BigramEndingItsClassMatchesReference) {
  // (AS2, prefix 1) is the max-count bigram; every occurrence is the
  // last pair of its class, so the walk starts from an empty
  // continuation.
  const std::vector<Event> window = {
      SmallEvent(1, 1, {1, 2}, 1), SmallEvent(2, 2, {3, 2}, 1),
      SmallEvent(1, 2, {4, 2}, 1), SmallEvent(2, 1, {1, 3}, 2)};
  const StemmingResult result = Stem(window);
  ASSERT_FALSE(result.components.empty());
  EXPECT_EQ(result.components[0].top_sequence.size(), 2u);
  ExpectWindowMatchesReference({}, window, 8, pools_);
}

TEST_F(StemmingOracleTest, OverlappingAsLoopsMatchReference) {
  // 1 2 1 2 holds (1, 2) twice, overlapping its own continuation.
  const std::vector<Event> window = {
      SmallEvent(1, 1, {1, 2, 1, 2}, 1), SmallEvent(1, 1, {1, 2, 1, 2}, 2),
      SmallEvent(1, 1, {1, 2, 1, 2, 3}, 3), SmallEvent(2, 1, {2, 1, 2}, 4),
      SmallEvent(2, 2, {1, 2, 1}, 5)};
  ExpectWindowMatchesReference({}, window, 8, pools_);
}

TEST_F(StemmingOracleTest, InteriorBigramWithLowerEntryIdMatchesReference) {
  // (3, 4) is first seen in events of prefix 9, which either expire or
  // fall with the first component (peer 3's chain, also on prefix 9).
  // What remains of (3, 4) is interior to peer 1's chain
  // peer-1 nexthop-1 AS2 AS3 AS4, with a lower entry id than its start.
  const Event early = SmallEvent(2, 2, {3, 4}, 9);
  const std::vector<Event> later = {
      SmallEvent(3, 3, {7, 8}, 9), SmallEvent(3, 3, {7, 8}, 9),
      SmallEvent(3, 3, {7, 8}, 9), SmallEvent(3, 3, {7, 8}, 9),
      SmallEvent(3, 3, {7, 8}, 9), SmallEvent(3, 3, {7, 8}, 9),
      SmallEvent(1, 1, {2, 3, 4}, 1), SmallEvent(1, 1, {2, 3, 4}, 2),
      SmallEvent(1, 1, {2, 3, 4}, 3), SmallEvent(1, 2, {6}, 4)};
  std::vector<Event> window = {early, early};
  window.insert(window.end(), later.begin(), later.end());
  const StemmingResult result = Stem(window);
  ASSERT_EQ(result.components.size(), 2u);
  EXPECT_EQ(result.components[1].top_sequence.size(), 5u);
  ExpectWindowMatchesReference({}, window, 8, pools_);
  ExpectWindowMatchesReference({early, early}, later, 8, pools_);
}

TEST_F(StemmingOracleTest, BigramAfterAChainStartsItsOwnChain) {
  // AS10 1 2 is a chain (its occurrences then part ways); (2, 5), the
  // bigram after it in its first occurrence, ties its count and starts
  // the longer chain AS2 5 6 7.  Only interior bigrams may be skipped.
  const std::vector<Event> window = {
      SmallEvent(1, 1, {10, 1, 2, 5, 6, 7}, 1),
      SmallEvent(2, 2, {10, 1, 2, 8}, 2),
      SmallEvent(3, 3, {10, 1, 2, 9}, 3),
      SmallEvent(4, 4, {10, 1, 2, 4}, 4),
      SmallEvent(5, 5, {3, 2, 5, 6, 7}, 5),
      SmallEvent(6, 6, {4, 2, 5, 6, 7}, 6),
      SmallEvent(7, 7, {8, 2, 5, 6, 7}, 7)};
  const StemmingResult result = Stem(window);
  ASSERT_FALSE(result.components.empty());
  EXPECT_EQ(result.SequenceLabel(result.components[0]), "AS2 AS5 AS6 AS7");
  ExpectWindowMatchesReference({}, window, 8, pools_);
}

TEST_F(StemmingOracleTest, TiedLongestChainsPickSmallestRawValues) {
  // Two disjoint chains of the same count and length.  Peer 2's chain is
  // seen first (lower ids) but peer 1's has the smaller raw values.
  const std::vector<Event> window = {
      SmallEvent(2, 2, {4, 3}, 1), SmallEvent(2, 2, {4, 3}, 2),
      SmallEvent(2, 2, {4, 3}, 3), SmallEvent(1, 1, {1, 2}, 4),
      SmallEvent(1, 1, {1, 2}, 5), SmallEvent(1, 1, {1, 2}, 6)};
  const StemmingResult result = Stem(window);
  ASSERT_EQ(result.components.size(), 2u);
  EXPECT_EQ(result.symbols.Name(result.components[0].top_sequence[0]),
            "peer 10.0.0.1");
  EXPECT_EQ(result.components[0].top_sequence.size(), 4u);
  ExpectWindowMatchesReference({}, window, 8, pools_);
}

}  // namespace
}  // namespace ranomaly::stemming
