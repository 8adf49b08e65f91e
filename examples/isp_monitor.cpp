// A real-time-style monitoring loop at a Tier-1 ISP (the deployment shape
// of paper Section V): capture 35 minutes of the network, replay the
// capture through the live runner in 5-minute ticks that each analyze
// the events that arrived during that tick, print incidents as they are
// detected, and drill down into the IGP log (Section III-D.3) around
// anything suspicious.
//
// Injected behind the scenes: the IV-E flapping customer and one IGP
// metric change, to give the monitor something to find.
//
// Build & run:  ./build/examples/isp_monitor
// Exits 0 only if the flapping customer's prefix is identified.
#include <cstdio>

#include "collector/collector.h"
#include "core/correlate.h"
#include "core/live.h"
#include "igp/lsa.h"
#include "workload/ispanon.h"

using namespace ranomaly;
using util::kMinute;
using util::kSecond;

int main() {
  workload::IspAnonOptions options;
  options.pop_count = 4;
  options.customers_per_pop = 4;
  options.with_med_scenario = false;
  workload::IspAnonNet net = workload::BuildIspAnon(options);
  net::Simulator sim(net.topology, 8);
  collector::Collector rex;
  rex.AttachTo(sim, net.core_rrs);
  net.SeedRoutes(sim);
  sim.Start();
  sim.RunToQuiescence(5 * kMinute);
  std::printf("ISP monitor up: %zu core reflectors, %zu prefixes\n\n",
              net.core_rrs.size(), rex.PrefixCount());

  // The synchronized IGP feed (paper: REX holds passive IGP adjacencies).
  igp::LsaLog lsa_log;
  igp::LinkStateDb lsdb;
  auto record_lsa = [&](util::SimTime t, const igp::Lsa& lsa) {
    lsa_log.Record(t, lsa, lsdb.Install(lsa));
  };
  // Baseline IGP: a ring over the PoP reflectors.
  for (std::uint32_t r = 0; r < 4; ++r) {
    record_lsa(sim.now(), igp::Lsa{r + 1, 0, 1,
                                   {{(r + 1) % 4 + 1, 10}, {(r + 3) % 4 + 1, 10}}});
  }

  // Trouble starts at +10 min: the IV-E customer flap, plus an IGP metric
  // change at +12 min that REX should surface during drill-down.
  const util::SimTime t0 = sim.now();
  InjectCustomerFlaps(sim, net, t0 + 10 * kMinute, 20 * kMinute,
                      10 * kSecond, 50 * kSecond);
  sim.Run(t0 + 35 * kMinute);
  record_lsa(t0 + 12 * kMinute,
             igp::Lsa{1, 0, 2, {{2, 500}, {4, 10}}});  // metric change

  // The live runner is the operations loop: with tick = window, each
  // tick stems exactly the events that arrived during it, and each stem
  // is reported once, so the persistent flap pages the operator once.
  core::LiveOptions live;
  live.tick = 5 * kMinute;
  live.window = 5 * kMinute;
  core::IncidentLog log;
  core::LiveRunner runner(live, nullptr, &log);

  bool found_flap = false;
  std::uint64_t seen = 0;
  std::uint64_t ingested = 0;
  const core::LiveStats stats = runner.Run(
      rex.events(), nullptr, [&](const core::LiveStats& s) {
        std::printf("[t=%4.0f min] %llu new events",
                    util::ToSeconds(s.clock - t0) / 60.0,
                    static_cast<unsigned long long>(s.events_ingested -
                                                    ingested));
        ingested = s.events_ingested;
        const auto alerts = log.Since(seen);
        seen = log.size();
        if (alerts.empty()) {
          std::printf(" - quiet\n");
          return;
        }
        std::printf("\n");
        for (const core::IncidentLog::Entry& entry : alerts) {
          const core::Incident& incident = entry.incident;
          std::printf("    ALERT %s\n", incident.summary.c_str());
          for (const auto& p : incident.component.prefixes) {
            if (p == net.flap_prefix) found_flap = true;
          }
          // D.3: anything happening in the IGP around this incident?
          const auto igp_corr = core::CorrelateIgp(incident, lsa_log, kMinute);
          if (igp_corr.igp_active) {
            std::printf("      IGP drill-down: %zu LSA event(s) near the "
                        "incident — check interior routing too\n",
                        igp_corr.lsa_events.size());
          }
        }
      });

  std::printf("\nmonitor: %llu ticks, %llu alerts raised\n",
              static_cast<unsigned long long>(stats.ticks),
              static_cast<unsigned long long>(stats.incidents));
  std::printf("persistent customer flap (%s) identified: %s\n",
              net.flap_prefix.ToString().c_str(),
              found_flap ? "YES" : "no");
  return found_flap ? 0 : 1;
}
