// Property-style parameterized suites: invariants that must hold across
// parameter sweeps (scheduler types, network fan-in, RNG seeds, archive
// configurations).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>

#include "batch/scheduler.h"
#include "net/network.h"
#include "sim/simulation.h"
#include "util/rng.h"
#include "util/rrd.h"
#include "util/timeseries.h"

namespace grid3 {
namespace {

// ---------------------------------------------------------------------
// Property: every scheduler conserves jobs -- each submission reaches
// exactly one terminal state, and CPU charged never exceeds slot-time.
// ---------------------------------------------------------------------
enum class Lrms { kCondor, kPbs, kLsf };

struct SchedulerCase {
  Lrms lrms;
  int slots;
  int jobs;
  std::uint64_t seed;
};

class SchedulerConservation
    : public ::testing::TestWithParam<SchedulerCase> {};

std::unique_ptr<batch::BatchScheduler> make(sim::Simulation& sim,
                                            const SchedulerCase& c) {
  batch::SchedulerConfig cfg;
  cfg.site_name = "P";
  cfg.slots = c.slots;
  cfg.max_walltime = Time::hours(50);
  switch (c.lrms) {
    case Lrms::kCondor:
      return std::make_unique<batch::CondorScheduler>(sim, cfg);
    case Lrms::kPbs:
      return std::make_unique<batch::PbsScheduler>(sim, cfg);
    case Lrms::kLsf:
      return std::make_unique<batch::LsfScheduler>(sim, cfg);
  }
  return nullptr;
}

TEST_P(SchedulerConservation, EveryJobTerminatesExactlyOnce) {
  const auto c = GetParam();
  sim::Simulation sim;
  auto sched = make(sim, c);
  util::Rng rng{c.seed};

  int terminal = 0;
  double cpu_hours = 0.0;
  const Time horizon = Time::days(30);
  for (int i = 0; i < c.jobs; ++i) {
    batch::JobRequest req;
    req.vo = "vo" + std::to_string(i % 3);
    const double runtime = rng.uniform(0.1, 20.0);
    req.actual_runtime = Time::hours(runtime);
    req.requested_walltime = Time::hours(rng.uniform(runtime, 40.0));
    req.priority = rng.chance(0.1) ? -1 : 0;
    const Time submit_at = Time::hours(rng.uniform(0.0, 100.0));
    sim.schedule_at(submit_at, [&, req] {
      sched->submit(req, [&](const batch::JobOutcome& o) {
        ++terminal;
        cpu_hours += o.cpu_used().to_hours();
      });
    });
  }
  sim.run_until(horizon);
  sim.run();  // drain
  EXPECT_EQ(terminal, c.jobs);
  // CPU charged cannot exceed slots * makespan.
  EXPECT_LE(cpu_hours, c.slots * sim.now().to_hours() + 1e-6);
  EXPECT_EQ(sched->busy_slots(), 0);
  EXPECT_EQ(sched->queued_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, SchedulerConservation,
    ::testing::Values(
        SchedulerCase{Lrms::kCondor, 4, 50, 1},
        SchedulerCase{Lrms::kCondor, 16, 200, 2},
        SchedulerCase{Lrms::kPbs, 4, 50, 3},
        SchedulerCase{Lrms::kPbs, 16, 200, 4},
        SchedulerCase{Lrms::kLsf, 4, 50, 5},
        SchedulerCase{Lrms::kLsf, 16, 200, 6},
        SchedulerCase{Lrms::kCondor, 1, 30, 7},
        SchedulerCase{Lrms::kPbs, 1, 30, 8},
        SchedulerCase{Lrms::kLsf, 1, 30, 9}));

// ---------------------------------------------------------------------
// Property: the per-VO running/queued counters equal a brute-force scan
// of the scheduler's live jobs after every step of a seeded random
// sequence of submits (some rejected), cancels, kills, resizes, drains
// and natural completions.
// ---------------------------------------------------------------------
struct VoCountCase {
  Lrms lrms;
  std::uint64_t seed;
};

std::string vo_count_case_name(const VoCountCase& c) {
  static constexpr const char* kLrms[] = {"condor", "pbs", "lsf"};
  return std::string{kLrms[static_cast<int>(c.lrms)]} + "_seed" +
         std::to_string(c.seed);
}

// Keeps ctest names free of gtest's byte dump (which shows padding).
void PrintTo(const VoCountCase& c, std::ostream* os) {
  *os << vo_count_case_name(c);
}

class SchedulerVoCounts : public ::testing::TestWithParam<VoCountCase> {};

TEST_P(SchedulerVoCounts, MatchBruteForceScanAfterEveryStep) {
  const auto c = GetParam();
  sim::Simulation sim;
  batch::SchedulerConfig cfg;
  cfg.site_name = "P";
  cfg.slots = 4;
  cfg.max_walltime = Time::hours(24);
  // Closed shares: "ivdgl" has none here, so its submits are refused.
  cfg.vo_shares = {{"usatlas", 2.0}, {"uscms", 1.0}, {"sdss", 0.5},
                   {"local", 1.0}};
  cfg.closed_shares = true;
  std::unique_ptr<batch::BatchScheduler> sched;
  switch (c.lrms) {
    case Lrms::kCondor:
      sched = std::make_unique<batch::CondorScheduler>(sim, cfg);
      break;
    case Lrms::kPbs:
      sched = std::make_unique<batch::PbsScheduler>(sim, cfg);
      break;
    case Lrms::kLsf:
      sched = std::make_unique<batch::LsfScheduler>(sim, cfg);
      break;
  }
  util::Rng rng{c.seed};
  const std::vector<std::string> vos = {"usatlas", "uscms", "sdss", "local",
                                        "ivdgl"};
  // Each job's user DN carries its id, so a scan can find one job.
  std::vector<batch::LocalJobId> accepted;
  int rejected_share = 0, rejected_walltime = 0, cancelled_queued = 0,
      cancelled_running = 0, killed = 0, completed = 0;
  bool shrunk = false;

  auto state_of = [&](batch::LocalJobId id) {
    std::optional<batch::JobState> out;
    const std::string dn = "/CN=" + std::to_string(id);
    sched->for_each_job([&](const batch::JobRequest& r, batch::JobState s) {
      if (r.user_dn == dn) out = s;
    });
    return out;
  };
  auto check = [&](int step) {
    std::map<std::string, std::pair<int, std::size_t>> scan;
    sched->for_each_job([&](const batch::JobRequest& r, batch::JobState s) {
      auto& [running, queued] = scan[r.vo];
      if (s == batch::JobState::kRunning) {
        ++running;
      } else {
        ++queued;
      }
    });
    for (const std::string& vo : vos) {
      EXPECT_EQ(sched->running_for_vo(vo), scan[vo].first)
          << "step " << step << ", vo " << vo;
      EXPECT_EQ(sched->queued_for_vo(vo), scan[vo].second)
          << "step " << step << ", vo " << vo;
    }
  };

  for (int step = 0; step < 600; ++step) {
    switch (rng.index(8)) {
      case 0:
      case 1:
      case 2: {  // submit; walltimes above 24 h are refused on PBS/LSF
        batch::JobRequest req;
        req.vo = vos[rng.index(vos.size())];
        // Ids count accepted submits from 1: the id this job would get.
        req.user_dn = "/CN=" + std::to_string(accepted.size() + 1);
        const double runtime = rng.uniform(0.1, 8.0);
        req.actual_runtime = Time::hours(runtime);
        req.requested_walltime = Time::hours(rng.uniform(runtime, 30.0));
        req.priority = static_cast<int>(rng.uniform_int(-1, 2));
        const auto r = sched->submit(req, [&](const batch::JobOutcome& o) {
          if (o.state == batch::JobState::kCompleted) ++completed;
        });
        if (r.accepted) {
          EXPECT_EQ(r.id, accepted.size() + 1);
          accepted.push_back(r.id);
        } else if (req.vo == "ivdgl") {
          ++rejected_share;
        } else {
          ++rejected_walltime;
        }
        break;
      }
      case 3: {  // cancel a queued, running or already finished job
        if (accepted.empty()) break;
        const batch::LocalJobId id = accepted[rng.index(accepted.size())];
        const auto before = state_of(id);
        const bool ok = sched->cancel(id);
        EXPECT_EQ(ok, before.has_value());
        if (before == batch::JobState::kQueued) ++cancelled_queued;
        if (before == batch::JobState::kRunning) ++cancelled_running;
        break;
      }
      case 4:
        killed += static_cast<int>(sched->kill_running(0.3, rng));
        break;
      case 5:  // shrink, then grow back on the next resize
        sched->resize(shrunk ? 4 : static_cast<int>(rng.uniform_int(1, 2)),
                      rng);
        shrunk = !shrunk;
        break;
      case 6:
        if (rng.chance(0.5)) {
          sched->drain();
        } else {
          sched->resume();
        }
        break;
      case 7:
        sim.run_until(sim.now() + Time::minutes(rng.uniform(1.0, 240.0)));
        break;
    }
    check(step);
  }
  // Every kind of step actually happened.
  EXPECT_GT(rejected_share, 0);
  EXPECT_EQ(rejected_walltime > 0, sched->enforces_walltime());
  EXPECT_GT(cancelled_queued, 0);
  EXPECT_GT(cancelled_running, 0);
  EXPECT_GT(killed, 0);
  EXPECT_GT(completed, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, SchedulerVoCounts,
    ::testing::Values(VoCountCase{Lrms::kCondor, 31},
                      VoCountCase{Lrms::kCondor, 32},
                      VoCountCase{Lrms::kPbs, 33}, VoCountCase{Lrms::kPbs, 34},
                      VoCountCase{Lrms::kLsf, 35}, VoCountCase{Lrms::kLsf, 36}),
    [](const ::testing::TestParamInfo<VoCountCase>& info) {
      return vo_count_case_name(info.param);
    });

// ---------------------------------------------------------------------
// Property: network byte conservation -- completed flows deliver exactly
// the requested bytes regardless of fan-in/fan-out shape.
// ---------------------------------------------------------------------
struct NetCase {
  int sources;
  int flows_per_source;
  double sink_mbps;
  std::uint64_t seed;
};

class NetworkConservation : public ::testing::TestWithParam<NetCase> {};

TEST_P(NetworkConservation, BytesDeliveredMatchRequested) {
  const auto c = GetParam();
  sim::Simulation sim;
  net::Network net{sim};
  const auto sink = net.add_node({"sink", Bandwidth::mbps(c.sink_mbps),
                                  Bandwidth::mbps(c.sink_mbps), true});
  util::Rng rng{c.seed};
  std::int64_t requested = 0;
  std::int64_t delivered = 0;
  int completions = 0;
  for (int s = 0; s < c.sources; ++s) {
    const auto src = net.add_node({"s" + std::to_string(s),
                                   Bandwidth::mbps(100),
                                   Bandwidth::mbps(100), true});
    for (int f = 0; f < c.flows_per_source; ++f) {
      const Bytes size = Bytes::mb(rng.uniform(1.0, 50.0));
      requested += size.count();
      sim.schedule_at(Time::seconds(rng.uniform(0.0, 30.0)), [&, src, size] {
        net.start_flow(src, sink, size, [&](const net::FlowResult& r) {
          if (r.ok()) {
            ++completions;
            delivered += r.transferred.count();
          }
        });
      });
    }
  }
  sim.run();
  EXPECT_EQ(completions, c.sources * c.flows_per_source);
  EXPECT_EQ(delivered, requested);
  EXPECT_EQ(net.active_flows(), 0u);
  // Sink byte counter within rounding of the requested total.
  EXPECT_NEAR(static_cast<double>(net.bytes_received(sink).count()),
              static_cast<double>(requested),
              static_cast<double>(c.sources * c.flows_per_source) * 4.0);
}

INSTANTIATE_TEST_SUITE_P(
    FanInShapes, NetworkConservation,
    ::testing::Values(NetCase{1, 5, 100, 11}, NetCase{4, 5, 100, 12},
                      NetCase{8, 3, 50, 13}, NetCase{16, 2, 622, 14},
                      NetCase{2, 20, 10, 15}));

// ---------------------------------------------------------------------
// Property: RRD consolidated averages match the exact series average for
// aligned windows, at every level, for any seed.
// ---------------------------------------------------------------------
class RrdConsistency : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RrdConsistency, ConsolidatedAverageTracksExactSeries) {
  util::Rng rng{GetParam()};
  util::RoundRobinArchive rra{
      {{Time::minutes(5), 1000}, {Time::hours(1), 1000}},
      util::Consolidation::kAverage};
  // Regular 1-minute samples over 6 hours.
  std::vector<double> values;
  for (int i = 0; i < 360; ++i) {
    const double v = rng.uniform(0.0, 100.0);
    values.push_back(v);
    rra.update(Time::minutes(i), v);
  }
  rra.update(Time::minutes(360), 0.0);  // flush the pending slot
  // Each 5-minute slot equals the average of its 5 samples.
  for (int slot = 0; slot < 71; ++slot) {
    const auto got = rra.read(Time::minutes(slot * 5 + 2));
    ASSERT_TRUE(got.has_value()) << slot;
    double expect = 0.0;
    for (int k = 0; k < 5; ++k) {
      expect += values[static_cast<std::size_t>(slot * 5 + k)];
    }
    expect /= 5.0;
    EXPECT_NEAR(*got, expect, 1e-9) << slot;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RrdConsistency,
                         ::testing::Values(21u, 22u, 23u, 24u, 25u));

// ---------------------------------------------------------------------
// Property: time-series integration is additive over adjacent windows.
// ---------------------------------------------------------------------
class SeriesAdditivity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeriesAdditivity, IntegralSplitsAcrossWindows) {
  util::Rng rng{GetParam()};
  util::TimeSeries ts;
  Time t;
  for (int i = 0; i < 200; ++i) {
    t += Time::seconds(rng.uniform(1.0, 100.0));
    ts.append(t, rng.uniform(0.0, 50.0));
  }
  const Time lo = Time::seconds(100);
  const Time hi = t;
  const Time mid = Time::seconds((lo.to_seconds() + hi.to_seconds()) / 2);
  const double whole = ts.integrate(lo, hi);
  const double parts = ts.integrate(lo, mid) + ts.integrate(mid, hi);
  EXPECT_NEAR(whole, parts, 1e-6 * std::max(1.0, whole));
  // Average of binned averages weighted equally = window average.
  const auto bins = ts.binned_average(lo, hi, 8);
  const double avg =
      std::accumulate(bins.begin(), bins.end(), 0.0) / 8.0;
  EXPECT_NEAR(avg, ts.time_average(lo, hi), 0.5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeriesAdditivity,
                         ::testing::Values(31u, 32u, 33u, 34u));

}  // namespace
}  // namespace grid3
