// One benchmark pass over one catalog workload: set-up, the simulated
// horizon stepped one hour at a time, finish(), and the readout pass of
// the paper's figure and table queries.  Every timing is taken here,
// around calls into each layer's public functions; the program itself
// carries no instrumentation.  perfbench/run.py launches one process per
// pass (peak RSS is per process) and aggregates the passes.
//
//   grid3_perfbench --workload NAME [--seed N] [--sizing bench|manifest]
//                   [--stepping hourly|single] [--trace 0|1]
//                   [--trace-file PATH] --out PATH
//
// `--out` receives one JSON object (schema perfbench-pass-v1).  With
// `--trace 1` the pass also times probes into batch, mds and rls, records
// per-hour count deltas, and writes every span to `--trace-file`.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/grid3.h"
#include "util/calendar.h"
#include "workload/catalog.h"

namespace {

using namespace grid3;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : (n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2);
}

// ---------------------------------------------------------------------------
// Workloads

/// A catalog entry at its quick sizing, optionally overridden.
struct Sizing {
  std::string scenario;  ///< catalog entry
  int months = 0;        ///< quick_months override (0 = catalog value)
  double job_scale = 0;  ///< quick_job_scale override (0 = catalog value)
  double days = 0;       ///< horizon in days (0 = the whole sized run)
};

/// `bench` is the sizing the benchmark measures; `manifest` is the sizing
/// bench/CATALOG_MANIFEST.json pins (used by the self-test).
bool sizing_for(const std::string& workload, const std::string& mode,
                Sizing& out) {
  const bool manifest = mode == "manifest";
  if (workload == "grid30") {
    out = manifest ? Sizing{"grid30-2month"}
                   : Sizing{"grid30-2month", 1, 2.0, 3.0};
  } else if (workload == "atlas-dc2") {
    out = manifest ? Sizing{"atlas-dc2"}
                   : Sizing{"atlas-dc2", 1, 2.0};
  } else if (workload == "sc2003-demo") {
    out = manifest ? Sizing{"sc2003-demo"}
                   : Sizing{"sc2003-demo", 2, 0.15};
  } else if (workload == "calib-month") {
    out = manifest ? Sizing{"calib-month"}
                   : Sizing{"calib-month", 1, 3.0};
  } else {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Spans and JSON output

struct Span {
  std::string name;
  double start_ms = 0;
  double end_ms = 0;
  int parent = -1;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_{on}, t0_{Clock::now()} {}
  [[nodiscard]] bool on() const { return on_; }

  int open(const std::string& name, int parent) {
    if (!on_) return -1;
    spans_.push_back({name, now_ms(), 0.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ms = now_ms();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  [[nodiscard]] double now_ms() const { return seconds_since(t0_) * 1e3; }
  bool on_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

/// Minimal JSON object writer: keys in insertion order, numbers with all
/// their digits.
class JsonObject {
 public:
  JsonObject& num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(k, buf);
  }
  JsonObject& str(const std::string& k, const std::string& v) {
    return raw(k, "\"" + v + "\"");
  }
  JsonObject& list(const std::string& k, const std::vector<double>& v) {
    std::string s = "[";
    char buf[64];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? ", " : "", v[i]);
      s += buf;
    }
    return raw(k, s + "]");
  }
  JsonObject& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + k + "\": ") + v;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// Layer accessors (public API only)

const std::vector<std::string>& vos() { return core::canonical_vos(); }

/// The counts a traced pass samples at every simulated-hour boundary.
struct HourCounts {
  double events = 0, bus_published = 0, registrations = 0, matches = 0,
         holds = 0;
};

HourCounts hour_counts(workload::CatalogRun& run) {
  core::Grid3& grid = run.scenario().grid();
  HourCounts c;
  c.events = static_cast<double>(run.sim().executed());
  c.bus_published = static_cast<double>(grid.igoc().bus().published());
  for (const std::string& vo : vos()) {
    if (rls::ReplicaLocationService* r = grid.rls(vo)) {
      c.registrations += static_cast<double>(r->journal().size());
    }
    if (const broker::ResourceBroker* b = grid.broker(vo)) {
      c.matches += static_cast<double>(b->matches());
      c.holds += static_cast<double>(b->holds());
    }
  }
  return c;
}

/// Every LRC site of a VO's RLS: registrations are the only path that
/// creates a catalog, and the journal keeps every intent.
std::set<std::string> lrc_sites(const rls::ReplicaLocationService& r) {
  std::set<std::string> sites;
  for (const rls::JournalEntry& e : r.journal().entries()) sites.insert(e.site);
  return sites;
}

/// End-of-run per-layer counts from public accessors.
void layer_counts(workload::CatalogRun& run, const workload::RunResult& res,
                  double events_in_run, JsonObject& out) {
  core::Grid3& grid = run.scenario().grid();
  sim::Simulation& sim = run.sim();

  const double cal = static_cast<double>(sim.calendar_scheduled());
  const double heap = static_cast<double>(sim.heap_scheduled());
  out.num("sim.events", events_in_run)
      .num("sim.calendar_share", cal + heap > 0 ? cal / (cal + heap) : 0.0)
      .num("sim.pending_end", static_cast<double>(sim.pending()));

  const net::Network& net = grid.network();
  const double reallocs = static_cast<double>(net.reallocs());
  const double links = static_cast<double>(net.links_solved());
  out.num("net.reallocs", reallocs)
      .num("net.links_solved", links)
      .num("net.links_per_realloc", reallocs > 0 ? links / reallocs : 0.0);

  double ftp_bytes = 0, busy = 0, queued = 0, peak_load = 0, peak_arr = 0,
         managed = 0;
  for (const auto& site : grid.sites()) {
    ftp_bytes += static_cast<double>(site->ftp().bytes_in().count() +
                                     site->ftp().bytes_out().count());
    busy += site->scheduler().busy_slots();
    queued += static_cast<double>(site->scheduler().queued_count());
    const gram::Gatekeeper& gk = site->gatekeeper();
    peak_load = std::max(peak_load, gk.peak_one_minute_load());
    peak_arr = std::max(peak_arr,
                        static_cast<double>(gk.peak_one_minute_arrivals()));
    managed += static_cast<double>(gk.managed_jobs());
  }
  out.num("gridftp.bytes_moved", ftp_bytes)
      .num("batch.busy_slots_end", busy)
      .num("batch.queued_end", queued)
      .num("gram.peak_load_max", peak_load)
      .num("gram.peak_arrivals_max", peak_arr)
      .num("gram.managed_end", managed);

  double matches = 0, holds = 0, rebinds = 0, stale = 0, gangs = 0;
  double leases_active = 0, leased_bytes = 0;
  double lfns = 0, replicas = 0, indexed = 0, pending = 0, lost = 0;
  for (const std::string& vo : vos()) {
    if (const broker::ResourceBroker* b = grid.broker(vo)) {
      matches += static_cast<double>(b->matches());
      holds += static_cast<double>(b->holds());
      rebinds += static_cast<double>(b->rebinds());
      stale += static_cast<double>(b->stale_matches());
      gangs += static_cast<double>(b->gang_matches());
    }
    if (const placement::PlacementLedger* p = grid.placement(vo)) {
      leases_active += static_cast<double>(p->active());
      leased_bytes += static_cast<double>(p->leased_bytes().count());
    }
    if (const rls::ReplicaLocationService* r = grid.rls(vo)) {
      for (const std::string& site : lrc_sites(*r)) {
        if (const rls::LocalReplicaCatalog* lrc = r->find_lrc(site)) {
          lfns += static_cast<double>(lrc->lfn_count());
          replicas += static_cast<double>(lrc->replica_count());
        }
      }
      indexed += static_cast<double>(r->rli().indexed_lfns());
      pending += static_cast<double>(r->journal().pending());
      lost += static_cast<double>(r->lost_registrations());
    }
  }
  out.num("broker.matches", matches)
      .num("broker.holds", holds)
      .num("broker.rebinds", rebinds)
      .num("broker.stale_matches", stale)
      .num("broker.gang_matches", gangs)
      .num("broker.matches_per_completed",
           res.completed > 0 ? matches / static_cast<double>(res.completed)
                             : 0.0)
      .num("placement.active_end", leases_active)
      .num("placement.leased_bytes_end", leased_bytes)
      .num("health.breaker_events",
           grid.health() != nullptr
               ? static_cast<double>(grid.health()->events().size())
               : 0.0);

  const monitoring::MetricBus& bus = grid.igoc().bus();
  double points = 0;
  for (const monitoring::MetricKey& k : bus.keys_with_prefix("")) {
    points += static_cast<double>(bus.series(k.site, k.name).size());
  }
  out.num("monitoring.bus_published", static_cast<double>(bus.published()))
      .num("monitoring.bus_keys", static_cast<double>(bus.key_count()))
      .num("monitoring.bus_points", points)
      .num("monitoring.monalisa_archived_keys",
           static_cast<double>(grid.igoc().ml_repository().archived_keys()))
      .num("monitoring.acdc_records",
           static_cast<double>(grid.igoc().job_db().size()))
      .num("rls.lfns", lfns)
      .num("rls.replicas", replicas)
      .num("rls.indexed_lfns", indexed)
      .num("rls.journal_pending_end", pending)
      .num("rls.lost_registrations", lost)
      .num("workflow.launched", static_cast<double>(res.workflows));
}

// ---------------------------------------------------------------------------
// Readout pass: the paper's figure and table series over the run window

class Checksum {
 public:
  void add(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g;", v);
    h_ = workload::fnv1a64(buf, h_);
  }
  void add(const std::string& s) { h_ = workload::fnv1a64(s + ";", h_); }
  [[nodiscard]] std::string hex() const { return workload::digest_hex(h_); }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Query {
  const char* name;
  std::function<void(Checksum&)> fn;
};

/// `fig6_total` receives the Figure 6 sum, which must equal the run's
/// completed-job count.
std::vector<Query> readout_queries(workload::CatalogRun& run, Time end,
                                   int months, std::size_t* fig6_total) {
  core::Grid3& grid = run.scenario().grid();
  const monitoring::MdViewer viewer = run.scenario().viewer();
  const monitoring::JobDatabase& db = grid.igoc().job_db();
  const Time from = Time::zero();
  const auto days = static_cast<std::size_t>(std::max(1.0, end.to_days()));
  return {
      {"fig2",
       [=](Checksum& c) {
         for (const auto& [vo, d] : viewer.integrated_cpu_days_by_vo(from, end)) {
           c.add(vo);
           c.add(d);
         }
       }},
      {"fig3",
       [=](Checksum& c) {
         for (const auto& [vo, bins] :
              viewer.differential_cpu_by_vo(from, end, days)) {
           c.add(vo);
           for (double b : bins) c.add(b);
         }
       }},
      {"fig4",
       [=](Checksum& c) {
         for (const std::string& vo : vos()) {
           for (const auto& [site, d] : viewer.cpu_days_by_site(vo, from, end)) {
             c.add(site);
             c.add(d);
           }
         }
       }},
      {"fig5",
       [=](Checksum& c) {
         for (const auto& [vo, b] : viewer.data_consumed_by_vo(from, end)) {
           c.add(vo);
           c.add(static_cast<double>(b.first.count()));
           c.add(static_cast<double>(b.second.count()));
         }
       }},
      {"fig6",
       [=](Checksum& c) {
         *fig6_total = 0;
         for (std::size_t n : viewer.jobs_by_month(months)) {
           c.add(static_cast<double>(n));
           *fig6_total += n;
         }
       }},
      {"table1",
       [&db, from, end](Checksum& c) {
         for (const std::string& vo : vos()) {
           const monitoring::VoJobStats s = db.stats_for(vo, from, end);
           c.add(static_cast<double>(s.jobs));
           c.add(s.total_cpu_days);
           c.add(s.max_runtime_hours);
           c.add(static_cast<double>(s.peak_resources));
         }
       }},
      {"utilization",
       [=](Checksum& c) { c.add(viewer.utilization_from_ganglia(from, end)); }},
      {"crosscheck",
       [=](Checksum& c) { c.add(viewer.crosscheck_divergence(from, end)); }},
      {"broker_counter",
       [=](Checksum& c) {
         for (const std::string& vo : vos()) {
           for (const char* m : {broker::metric::kMatches,
                                 broker::metric::kHolds,
                                 broker::metric::kRebinds}) {
             const util::TimeSeries& s = viewer.broker_counter(vo, m);
             double sum = 0;
             for (const util::TimePoint& p : s.points()) sum += p.value;
             c.add(sum);
           }
         }
       }},
  };
}

// ---------------------------------------------------------------------------
// Traced probes into layers at end-of-run state

/// Mean wall time of one call to `fn`, repeated until `min_s` has passed.
double mean_call_s(const std::function<void()>& fn, double min_s) {
  std::size_t calls = 0;
  const Clock::time_point t0 = Clock::now();
  do {
    fn();
    ++calls;
  } while (seconds_since(t0) < min_s);
  return seconds_since(t0) / static_cast<double>(calls);
}

void traced_probes(workload::CatalogRun& run, Time end, Tracer& tracer,
                   int root, JsonObject& out) {
  core::Grid3& grid = run.scenario().grid();
  volatile std::size_t sink = 0;

  int span = tracer.open("probe.batch", root);
  const double sweep = mean_call_s(
      [&] {
        for (const auto& site : grid.sites()) {
          for (const std::string& vo : vos()) {
            sink = sink + static_cast<std::size_t>(
                              site->scheduler().running_for_vo(vo)) +
                   site->scheduler().queued_for_vo(vo);
          }
        }
      },
      0.05);
  tracer.close(span);
  out.num("batch.per_vo_count_ns",
          sweep * 1e9 / static_cast<double>(grid.sites().size() * vos().size()));

  span = tracer.open("probe.mds", root);
  const mds::Giis& top = grid.igoc().top_giis();
  const std::vector<std::string> giis_sites = top.sites();
  const double lookups = mean_call_s(
      [&] {
        for (const std::string& s : giis_sites) {
          sink = sink + (top.lookup(s, end).has_value() ? 1u : 0u);
        }
      },
      0.05);
  tracer.close(span);
  out.num("mds.lookup_us",
          giis_sites.empty()
              ? 0.0
              : lookups * 1e6 / static_cast<double>(giis_sites.size()));

  // RLS: locate every registered LFN (capped), then the soft-state
  // refresh.  The refresh writes the index, so it runs last.
  span = tracer.open("probe.rls.locate", root);
  std::vector<std::pair<rls::ReplicaLocationService*, std::string>> lfns;
  for (const std::string& vo : vos()) {
    rls::ReplicaLocationService* r = grid.rls(vo);
    if (r == nullptr) continue;
    for (const rls::JournalEntry& e : r->journal().entries()) {
      if (lfns.size() >= 4096) break;
      lfns.emplace_back(r, e.lfn);
    }
  }
  const double locate = lfns.empty() ? 0.0 : mean_call_s(
      [&] {
        for (const auto& [r, lfn] : lfns) sink = sink + r->locate(lfn, end).size();
      },
      0.05);
  tracer.close(span);
  out.num("rls.locate_us",
          lfns.empty() ? 0.0
                       : locate * 1e6 / static_cast<double>(lfns.size()));

  span = tracer.open("probe.rls.refresh_all", root);
  const Clock::time_point t0 = Clock::now();
  for (const std::string& vo : vos()) {
    if (rls::ReplicaLocationService* r = grid.rls(vo)) r->refresh_all(end);
  }
  out.num("rls.refresh_all_ms", seconds_since(t0) * 1e3);
  tracer.close(span);
}

void write_trace(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<std::string>& hours) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "grid3_perfbench: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\"schema\": \"perfbench-trace-v1\", \"spans\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"start_ms\": %.6f, \"end_ms\": %.6f}%s\n",
                 i, spans[i].name.c_str(), spans[i].parent, spans[i].start_ms,
                 spans[i].end_ms, i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "], \"hours\": [\n");
  for (std::size_t i = 0; i < hours.size(); ++i) {
    std::fprintf(f, "  %s%s\n", hours[i].c_str(),
                 i + 1 < hours.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 20031025;
  std::string sizing = "bench";
  bool hourly = true;
  bool trace = false;
  std::string out;
  std::string trace_file;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--sizing") a.sizing = v;
    else if (k == "--stepping") a.hourly = v == "hourly";
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--out") a.out = v;
    else if (k == "--trace-file") a.trace_file = v;
    else return false;
  }
  return (argc % 2) == 1 && !a.workload.empty() && !a.out.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  Sizing sz;
  if (!parse(argc, argv, args) || !sizing_for(args.workload, args.sizing, sz)) {
    std::fprintf(stderr,
                 "usage: grid3_perfbench --workload grid30|atlas-dc2|"
                 "sc2003-demo|calib-month [--seed N] [--sizing bench|manifest]"
                 " [--stepping hourly|single] [--trace 0|1]"
                 " [--trace-file PATH] --out PATH\n");
    return 2;
  }

  workload::ScenarioSpec spec = workload::ScenarioCatalog::get(sz.scenario,
                                                               args.seed);
  if (sz.months > 0) spec.quick_months = sz.months;
  if (sz.job_scale > 0) spec.quick_job_scale = sz.job_scale;
  const workload::StackConfig stack = workload::modern_stack();

  Tracer tracer{args.trace};
  const int root = tracer.open("pass", -1);
  JsonObject out;

  int span = tracer.open("setup.assemble", root);
  Clock::time_point t0 = Clock::now();
  workload::CatalogRun run{spec, true, stack};
  const double assemble_s = seconds_since(t0);
  tracer.close(span);
  span = tracer.open("setup.start", root);
  t0 = Clock::now();
  run.start();
  const double start_s = seconds_since(t0);
  tracer.close(span);

  const int months = run.options().months;
  const Time horizon = util::month_start(months);
  const Time end = sz.days > 0 ? std::min(horizon, Time::days(sz.days))
                               : horizon;

  // The simulated horizon, one hour per timed slice.
  std::vector<double> hour_ms;
  std::vector<std::string> hour_rows;
  const std::uint64_t events0 = run.sim().executed();
  const int run_span = tracer.open("run", root);
  t0 = Clock::now();
  if (args.hourly) {
    HourCounts prev = tracer.on() ? hour_counts(run) : HourCounts{};
    for (Time t = Time::zero(); t < end;) {
      t = std::min(end, t + Time::hours(1));
      const int hs = tracer.open("run.hour", run_span);
      const Clock::time_point h0 = Clock::now();
      run.run_until(t);
      hour_ms.push_back(seconds_since(h0) * 1e3);
      tracer.close(hs);
      if (tracer.on()) {
        const HourCounts now = hour_counts(run);
        std::ostringstream row;
        row.precision(17);
        row << "{\"hour\": " << hour_ms.size() - 1
            << ", \"ms\": " << hour_ms.back()
            << ", \"events\": " << now.events - prev.events
            << ", \"bus_published\": " << now.bus_published - prev.bus_published
            << ", \"registrations\": " << now.registrations - prev.registrations
            << ", \"broker_matches\": " << now.matches - prev.matches
            << ", \"broker_holds\": " << now.holds - prev.holds << "}";
        hour_rows.push_back(row.str());
        prev = now;
      }
    }
  } else {
    run.run_until(end);
  }
  const double run_s = seconds_since(t0);
  tracer.close(run_span);
  const double events = static_cast<double>(run.sim().executed() - events0);

  span = tracer.open("finish", root);
  t0 = Clock::now();
  const workload::RunResult res = run.finish();
  const double finish_s = seconds_since(t0);
  tracer.close(span);

  // The readout is read-only, so it repeats (at least kMinReadouts times,
  // until kReadoutBudgetS has passed) and reports medians; every
  // repetition must produce the same checksum.
  constexpr int kMinReadouts = 3;
  constexpr int kMaxReadouts = 50;
  constexpr double kReadoutBudgetS = 0.3;
  std::size_t fig6_total = 0;
  const std::vector<Query> queries =
      readout_queries(run, end, months, &fig6_total);
  std::vector<std::vector<double>> query_s(queries.size());
  std::vector<double> readout_reps;
  std::string readout_digest;
  const Clock::time_point readout0 = Clock::now();
  for (int rep = 0; rep < kMaxReadouts; ++rep) {
    if (rep >= kMinReadouts && seconds_since(readout0) >= kReadoutBudgetS) {
      break;
    }
    Checksum sum;
    double total = 0;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      span = tracer.open(std::string("readout.") + queries[i].name, root);
      t0 = Clock::now();
      queries[i].fn(sum);
      const double s = seconds_since(t0);
      tracer.close(span);
      query_s[i].push_back(s);
      total += s;
    }
    readout_reps.push_back(total);
    if (rep == 0) readout_digest = sum.hex();
    if (sum.hex() != readout_digest) readout_digest = "unstable";
  }
  JsonObject readout;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    readout.num(std::string("readout.") + queries[i].name + "_ms",
                median(query_s[i]) * 1e3);
  }
  const double readout_s = median(readout_reps);

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  out.str("schema", "perfbench-pass-v1")
      .str("workload", args.workload)
      .str("scenario", sz.scenario)
      .str("sizing", args.sizing)
      .num("seed", static_cast<double>(args.seed))
      .num("sim_days", end.to_days())
      .str("digest", res.digest)
      .str("readout_digest", readout_digest)
      .num("jobs", static_cast<double>(res.jobs))
      .num("completed", static_cast<double>(res.completed))
      .num("failed", static_cast<double>(res.failed))
      .num("fig6_completed", static_cast<double>(fig6_total))
      .num("assemble_s", assemble_s)
      .num("start_s", start_s)
      .num("run_s", run_s)
      .num("finish_s", finish_s)
      .num("readout_s", readout_s)
      .num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0)
      .list("hour_ms", hour_ms)
      .raw("readout", readout.str());

  JsonObject layers;
  layer_counts(run, res, events, layers);
  layers.num("sim.events_per_s", run_s > 0 ? events / run_s : 0.0);
  if (tracer.on()) traced_probes(run, end, tracer, root, layers);
  out.raw("layers", layers.str());
  tracer.close(root);

  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "grid3_perfbench: cannot write %s\n",
                 args.out.c_str());
    return 1;
  }
  std::fprintf(f, "%s\n", out.str().c_str());
  std::fclose(f);
  if (tracer.on() && !args.trace_file.empty()) {
    write_trace(args.trace_file, tracer.spans(), hour_rows);
  }
  return 0;
}
