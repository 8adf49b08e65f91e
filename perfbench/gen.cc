// Generator step of the repo benchmark: writes one workload's RNE1
// capture for a seed, and prints the capture's facts as one JSON line.
//
//   perfbench_gen --workload replay_internet --seed 7 --scale full
//                 --out capture.rne1
//
// The measured process (run.cc) only loads the file this writes, so it
// never holds the generator's state.  The output is a pure function of
// (workload, seed, scale): run.py writes it twice and checks the two
// files are byte-identical.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "collector/binary_io.h"
#include "collector/event_stream.h"
#include "util/time.h"
#include "workload/eventgen.h"
#include "workload/internet.h"
#include "workload/internet_scale.h"

namespace {

using namespace ranomaly;
using util::kMinute;
using util::kSecond;

struct Args {
  std::string workload;
  std::string scale = "full";
  std::string out;
  std::uint64_t seed = 1;
};

std::optional<Args> Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--scale") {
      args.scale = value;
    } else if (key == "--out") {
      args.out = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else {
      return std::nullopt;
    }
  }
  if (args.workload.empty() || args.out.empty() ||
      (args.scale != "full" && args.scale != "tiny")) {
    return std::nullopt;
  }
  return args;
}

std::optional<collector::EventStream> InternetScale(std::size_t ases,
                                                    std::size_t prefixes,
                                                    std::uint64_t seed) {
  workload::InternetScaleOptions options;
  options.as_count = ases;
  options.prefix_count = prefixes;
  options.monitored_peer_count = 5;
  options.seed = seed;
  options.threads = 4;
  if (ases < 5'000) {
    options.tier1_count = 6;
    options.mid_tier_count = ases / 20;
  }
  std::string error;
  auto built = workload::BuildInternetScale(options, &error);
  if (!built) {
    std::fprintf(stderr, "BuildInternetScale: %s\n", error.c_str());
    return std::nullopt;
  }
  return std::move(built->stream);
}

// The bench_throughput churn stream: three staggered session resets and
// a tier-1 failover over steady single-prefix churn in 30 minutes.
collector::EventStream Churn(std::size_t prefixes, std::size_t churn_events,
                             std::uint64_t seed) {
  workload::InternetOptions options;
  options.monitored_peers = 5;
  options.prefix_count = prefixes;
  options.origin_as_count = prefixes / 10;
  options.seed = seed;
  const workload::SyntheticInternet internet(options);
  workload::EventStreamGenerator gen(internet, seed + 1);
  gen.SessionReset(0, 8 * kMinute, 30 * kSecond, 5 * kSecond);
  gen.SessionReset(1, 14 * kMinute, 30 * kSecond, 5 * kSecond);
  gen.SessionReset(2, 20 * kMinute, 30 * kSecond, 5 * kSecond);
  gen.Tier1Failover(0, 1, 25 * kMinute, 15 * kSecond);
  gen.Churn(0, 30 * kMinute, churn_events);
  return gen.Take();
}

std::optional<collector::EventStream> Generate(const Args& args) {
  const bool full = args.scale == "full";
  if (args.workload == "replay_internet") {
    return full ? InternetScale(8'000, 50'000, args.seed)
                : InternetScale(1'500, 6'000, args.seed);
  }
  if (args.workload == "serve_churn") {
    return full ? Churn(4'000, 200'000, args.seed)
                : Churn(1'000, 20'000, args.seed);
  }
  if (args.workload == "batch_full") {
    return full ? InternetScale(32'000, 210'000, args.seed)
                : InternetScale(3'000, 12'000, args.seed);
  }
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return std::nullopt;
}

// Prefixes that still have a route at the end of the capture: what a
// TAMP picture of the whole capture counts as its total.
std::size_t RoutedPrefixesAtEnd(const collector::EventStream& stream) {
  // prefix -> peers currently announcing it (a handful per prefix).
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> routes;
  for (const bgp::Event& e : stream.events()) {
    if (e.type != bgp::EventType::kAnnounce &&
        e.type != bgp::EventType::kWithdraw) {
      continue;
    }
    const std::uint64_t prefix =
        (std::uint64_t{e.prefix.addr().value()} << 8) | e.prefix.length();
    std::vector<std::uint32_t>& peers = routes[prefix];
    const auto it = std::find(peers.begin(), peers.end(), e.peer.value());
    if (e.type == bgp::EventType::kAnnounce && it == peers.end()) {
      peers.push_back(e.peer.value());
    } else if (e.type == bgp::EventType::kWithdraw && it != peers.end()) {
      peers.erase(it);
    }
  }
  std::size_t routed = 0;
  for (const auto& [prefix, peers] : routes) routed += !peers.empty();
  return routed;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = Parse(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench_gen --workload W --seed N "
                 "[--scale full|tiny] --out FILE\n");
    return 2;
  }
  const auto stream = Generate(*args);
  if (!stream) return 1;
  {
    std::ofstream os(args->out, std::ios::binary | std::ios::trunc);
    if (!os || !collector::SaveBinary(*stream, os) || !os.flush()) {
      std::fprintf(stderr, "cannot write %s\n", args->out.c_str());
      return 1;
    }
  }
  std::size_t routing = 0;
  for (const bgp::Event& e : stream->events()) {
    routing += e.type == bgp::EventType::kAnnounce ||
               e.type == bgp::EventType::kWithdraw;
  }
  std::printf(
      "{\"events\": %zu, \"routing_events\": %zu, \"routed_prefixes\": %zu, "
      "\"sim_seconds\": %.3f}\n",
      stream->size(), routing, RoutedPrefixesAtEnd(*stream),
      util::ToSeconds(stream->TimeRange()));
  return 0;
}
