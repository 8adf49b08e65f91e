// stemming::WindowStemmer against its oracle: at every tick of a sliding
// replay, Extract() over the incrementally maintained window must equal a
// from-scratch Stem of the same window — ids compared through their raw
// tagged values — across random tick/window geometries, compactions, a
// mid-replay rebuild (the checkpoint-restore path) and pool sizes.
#include "stemming/window_stemmer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/thread_pool.h"
#include "workload/eventgen.h"
#include "workload/internet.h"
#include "workload/internet_scale.h"

namespace ranomaly::stemming {
namespace {

using bgp::Event;
using util::kMinute;
using util::kSecond;

std::vector<Event> RoutingOnly(const collector::EventStream& stream) {
  std::vector<Event> events;
  for (const Event& e : stream.events()) {
    if (!bgp::IsMarker(e.type)) events.push_back(e);
  }
  return events;
}

std::vector<Event> ChurnSlice() {
  workload::InternetOptions options;
  options.monitored_peers = 4;
  options.prefix_count = 500;
  options.origin_as_count = 70;
  options.seed = 5;
  const workload::SyntheticInternet internet(options);
  workload::EventStreamGenerator gen(internet, 9);
  gen.SessionReset(1, 8 * kMinute, kMinute, 20 * kSecond);
  gen.Tier1Failover(0, 2, 14 * kMinute, kMinute);
  gen.PrefixOscillation(17, 0, 25 * kMinute, 30 * kSecond);
  gen.Churn(0, 25 * kMinute, 900);
  return RoutingOnly(gen.Take());
}

std::vector<Event> InternetSlice() {
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
  const auto result = workload::BuildInternetScale(options, &error);
  EXPECT_TRUE(result.has_value()) << error;
  return result.has_value() ? RoutingOnly(result->stream)
                            : std::vector<Event>{};
}

std::vector<std::uint64_t> Raw(const StemmingResult& result,
                               const std::vector<SymbolId>& ids) {
  std::vector<std::uint64_t> raw;
  for (const SymbolId id : ids) raw.push_back(result.symbols.Raw(id));
  return raw;
}

// Field-by-field equality, SymbolIds mapped through Raw.
void ExpectSameComponents(const StemmingResult& want,
                          const StemmingResult& got, const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(want.total_events, got.total_events);
  EXPECT_EQ(want.total_weight, got.total_weight);
  EXPECT_EQ(want.residual_events, got.residual_events);
  ASSERT_EQ(want.components.size(), got.components.size());
  for (std::size_t c = 0; c < want.components.size(); ++c) {
    const Component& a = want.components[c];
    const Component& b = got.components[c];
    EXPECT_EQ(Raw(want, a.top_sequence), Raw(got, b.top_sequence))
        << "component " << c;
    EXPECT_EQ(want.symbols.Raw(a.stem.first), got.symbols.Raw(b.stem.first))
        << "component " << c;
    EXPECT_EQ(want.symbols.Raw(a.stem.second), got.symbols.Raw(b.stem.second))
        << "component " << c;
    EXPECT_EQ(a.count, b.count) << "component " << c;
    EXPECT_EQ(a.prefixes, b.prefixes) << "component " << c;
    EXPECT_EQ(a.event_indices, b.event_indices) << "component " << c;
    EXPECT_EQ(a.event_weight, b.event_weight) << "component " << c;
  }
}

struct ReplayReport {
  std::size_t ticks = 0;
  std::size_t compactions = 0;  // ticks on which the class count fell
  std::size_t components = 0;
};

// Slides a `window`-wide window over `events` in `tick` steps (evict by
// time, then append the tick's arrivals, as the live runner does) and
// checks the oracle at every tick.  With rebuild_at_tick > 0 the stemmer
// is replaced at that tick by one rebuilt from the current window.
ReplayReport Replay(const std::vector<Event>& events, util::SimDuration tick,
                    util::SimDuration window, const StemmingOptions& options,
                    std::size_t rebuild_at_tick = 0) {
  ReplayReport report;
  if (events.empty()) return report;
  WindowStemmer stemmer(options);
  std::size_t front = 0;  // first event still in the window
  std::size_t next = 0;   // first event not yet ingested
  std::size_t last_classes = 0;
  for (util::SimTime tick_end = events.front().time + tick;
       next < events.size() || front < next; tick_end += tick) {
    std::size_t evicted = 0;
    while (front < next && events[front].time < tick_end - window) {
      ++front;
      ++evicted;
    }
    const std::size_t arrivals_begin = next;
    while (next < events.size() && events[next].time < tick_end) ++next;
    stemmer.PopFront(evicted);
    if (stemmer.classes() < last_classes) ++report.compactions;
    stemmer.PushBack(std::span<const Event>(events).subspan(
        arrivals_begin, next - arrivals_begin));
    const std::span<const Event> current =
        std::span<const Event>(events).subspan(front, next - front);
    ++report.ticks;
    if (rebuild_at_tick != 0 && report.ticks == rebuild_at_tick) {
      stemmer = WindowStemmer(options);
      stemmer.PushBack(current);
    }
    last_classes = stemmer.classes();
    EXPECT_EQ(stemmer.size(), current.size());
    if (current.empty()) continue;
    const StemmingResult want = Stem(current, options);
    const StemmingResult got = stemmer.Extract();
    report.components += want.components.size();
    ExpectSameComponents(want, got,
                         "tick " + std::to_string(report.ticks));
    if (::testing::Test::HasFailure()) break;
  }
  return report;
}

TEST(WindowStemmerTest, MatchesFromScratchStemOnRandomChurnGeometries) {
  const std::vector<Event> events = ChurnSlice();
  ASSERT_FALSE(events.empty());
  std::mt19937_64 rng(2024);
  for (int g = 0; g < 3; ++g) {
    const util::SimDuration tick =
        std::uniform_int_distribution<int>(2, 60)(rng) * kSecond;
    const util::SimDuration window =
        tick * std::uniform_int_distribution<int>(1, 40)(rng);
    for (const std::size_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("tick " + std::to_string(tick / kSecond) + "s window " +
                   std::to_string(window / kSecond) + "s threads " +
                   std::to_string(threads));
      util::ThreadPool pool(threads);
      StemmingOptions options;
      options.pool = &pool;
      const ReplayReport report = Replay(events, tick, window, options);
      EXPECT_GT(report.ticks, 10u);
      EXPECT_GT(report.components, 0u);
    }
  }
}

TEST(WindowStemmerTest, MatchesFromScratchStemOnInternetScaleSlice) {
  const std::vector<Event> events = InternetSlice();
  ASSERT_FALSE(events.empty());
  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    util::ThreadPool pool(threads);
    StemmingOptions options;
    options.pool = &pool;
    const ReplayReport report =
        Replay(events, 10 * kSecond, 2 * kMinute, options);
    EXPECT_GT(report.components, 0u);
    // The table dump expires as a block: tombstones outnumber the live
    // classes and the state is rebuilt.
    EXPECT_GT(report.compactions, 0u);
  }
}

TEST(WindowStemmerTest, CompactionAndMultiChunkGrainsKeepTheOracle) {
  // Shrunken grains push every extraction stage through multi-chunk
  // execution; a short window over a long replay compacts repeatedly.
  const std::vector<Event> events = ChurnSlice();
  util::ThreadPool pool(4);
  StemmingOptions options;
  options.pool = &pool;
  options.scan_grain = 16;
  options.candidate_grain = 8;
  options.removal_grain = 8;
  const ReplayReport report =
      Replay(events, 5 * kSecond, 45 * kSecond, options);
  EXPECT_GT(report.compactions, 3u);
  EXPECT_GT(report.components, 0u);
}

TEST(WindowStemmerTest, RebuildFromWindowMidReplayMatches) {
  // The checkpoint-restore path: a stemmer rebuilt from the restored
  // window carries on exactly like the one that saw the whole replay.
  const std::vector<Event> events = ChurnSlice();
  for (const std::size_t threads : {1u, 2u, 4u}) {
    util::ThreadPool pool(threads);
    StemmingOptions options;
    options.pool = &pool;
    const ReplayReport report = Replay(events, 10 * kSecond, 5 * kMinute,
                                       options, /*rebuild_at_tick=*/40);
    EXPECT_GT(report.ticks, 40u);
  }
}

TEST(WindowStemmerTest, RejectsWeightsAndOverlongExpiry) {
  StemmingOptions weighted;
  weighted.weight_fn = [](const bgp::Prefix&) { return 2.0; };
  EXPECT_THROW(WindowStemmer{weighted}, std::invalid_argument);

  WindowStemmer stemmer;
  EXPECT_THROW(stemmer.PopFront(1), std::out_of_range);
  EXPECT_EQ(stemmer.Extract().components.size(), 0u);
}

// A long replay whose prefixes keep rotating: every class dies a window
// after it is born.  Tombstones are reclaimed, so the held classes and
// bytes stay within twice the largest live window's.
TEST(WindowStemmerTest, MemoryStaysBoundedOverRotatingPrefixes) {
  constexpr util::SimDuration kTick = 5 * kSecond;
  constexpr util::SimDuration kWindow = kMinute;
  constexpr int kWindows = 25;
  constexpr int kPerSecond = 20;
  std::vector<Event> events;
  for (int s = 0; s < kWindows * 60; ++s) {
    for (int i = 0; i < kPerSecond; ++i) {
      const std::uint32_t n = static_cast<std::uint32_t>(s * kPerSecond + i);
      Event e;
      e.time = s * kSecond;
      e.type = i % 3 == 0 ? bgp::EventType::kWithdraw
                          : bgp::EventType::kAnnounce;
      e.peer = bgp::Ipv4Addr(10, 0, 0, static_cast<std::uint8_t>(1 + i % 4));
      e.attrs.nexthop = bgp::Ipv4Addr(10, 1, 0, 1);
      e.attrs.as_path = bgp::AsPath({100, 200 + n % 7, 3000 + n % 50});
      e.prefix = bgp::Prefix(bgp::Ipv4Addr(20 + (n >> 16) % 200,
                                           (n >> 8) & 0xff, n & 0xff, 0),
                             24);
      events.push_back(e);
    }
  }

  WindowStemmer stemmer;
  std::size_t front = 0;
  std::size_t next = 0;
  std::size_t max_live_classes = 0;
  std::size_t max_fresh_bytes = 0;
  std::size_t max_classes = 0;
  std::size_t max_bytes = 0;
  for (util::SimTime tick_end = kTick; next < events.size();
       tick_end += kTick) {
    std::size_t evicted = 0;
    while (front < next && events[front].time < tick_end - kWindow) {
      ++front;
      ++evicted;
    }
    const std::size_t begin = next;
    while (next < events.size() && events[next].time < tick_end) ++next;
    stemmer.PopFront(evicted);
    max_classes = std::max(max_classes, stemmer.classes());
    max_bytes = std::max(max_bytes, stemmer.Bytes());
    stemmer.PushBack(
        std::span<const Event>(events).subspan(begin, next - begin));
    max_classes = std::max(max_classes, stemmer.classes());
    max_bytes = std::max(max_bytes, stemmer.Bytes());

    // The same window encoded from scratch: the live-window footprint.
    WindowStemmer fresh;
    fresh.PushBack(std::span<const Event>(events).subspan(front, next - front));
    max_live_classes = std::max(max_live_classes, fresh.classes());
    max_fresh_bytes = std::max(max_fresh_bytes, fresh.Bytes());
    ASSERT_LE(stemmer.classes(), 2 * max_live_classes)
        << "at " << tick_end / kSecond << "s";
    ASSERT_LE(stemmer.Bytes(), 2 * max_fresh_bytes)
        << "at " << tick_end / kSecond << "s";
  }
  EXPECT_GE(events.back().time, kWindows * kWindow - kSecond);
  EXPECT_GT(max_live_classes, 0u);
  EXPECT_LE(max_classes, 2 * max_live_classes);
  EXPECT_LE(max_bytes, 2 * max_fresh_bytes);
}

}  // namespace
}  // namespace ranomaly::stemming
