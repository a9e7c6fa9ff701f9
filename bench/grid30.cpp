// "Grid30": the Grid2003 fabric at 10x scale -- 270 sites, ~29k CPUs,
// six VOs -- proving the interned-id hot paths and the broker's
// incremental rank maintenance at a scale the 27-site reproduction
// never stresses.  Three phases:
//
//  1. Match-cycle microbenchmark: two brokers over the same 270-site
//     GIIS view -- one serving ranks from the incremental cache, one
//     forced to the full per-match rescore -- each driven through
//     repeated choose() passes.  The ratio is the incremental engine's
//     speedup; the acceptance floor is 5x.
//  2. Equivalence: the same seeded multi-VO campaign run twice, once
//     per rank mode, and the per-VO match logs diffed byte-for-byte.
//     The cache must never change a decision, only its cost.
//  3. Campaign: the incremental run doubles as the throughput probe
//     (simulator events/sec, completed jobs) and emits Table-1- and
//     Figure-2-shaped per-VO outputs at the 10x scale.
//  4. Kernel equivalence: the same campaign re-run on the legacy kernel
//     (pure-heap event queue + full-graph fair-share re-solve,
//     docs/KERNEL.md) and its match logs diffed byte-for-byte against
//     the calendar/partial run.
//
// `grid30 --snapshot PATH` additionally writes the measured rates as a
// JSON snapshot (the committed bench/BENCH_grid30.json records the
// acceptance numbers); the same fields are always printed on the
// `result-json:` line for scripts/check_bench.py.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "broker/broker.h"
#include "broker/job_spec.h"
#include "broker/rank_policy.h"
#include "core/grid3.h"
#include "core/roster.h"
#include "monitoring/mdviewer.h"
#include "workload/catalog.h"

namespace {

using namespace grid3;

constexpr int kReplicas = 10;  // 27 templates x 10 = 270 sites

struct MicrobenchResult {
  std::size_t sites = 0;
  int total_cpus = 0;
  double cycles_per_sec_full = 0.0;
  double cycles_per_sec_incremental = 0.0;
  bool same_choice = true;

  [[nodiscard]] double speedup() const {
    return cycles_per_sec_full > 0.0
               ? cycles_per_sec_incremental / cycles_per_sec_full
               : 0.0;
  }
};

/// Wall-clock choose() cycle rate: repeated passes over the same view
/// until `min_seconds` elapsed (the view TTL never expires because the
/// simulation clock does not advance between calls).
double measure_cycles(broker::ResourceBroker& b, const broker::JobSpec& spec,
                      Time now, double min_seconds) {
  (void)b.choose(spec, now);  // warm: view refresh + cache fill
  const std::uint64_t before = b.match_cycles();
  const auto start = std::chrono::steady_clock::now();
  std::chrono::duration<double> elapsed{0.0};
  do {
    for (int i = 0; i < 200; ++i) {
      (void)b.choose(spec, now);
    }
    elapsed = std::chrono::steady_clock::now() - start;
  } while (elapsed.count() < min_seconds);
  return static_cast<double>(b.match_cycles() - before) / elapsed.count();
}

MicrobenchResult run_microbench() {
  std::cout << "[microbench] assembling the 270-site fabric ... "
            << std::flush;
  sim::Simulation sim;
  core::Grid3 grid{sim, bench::seed()};
  core::AssembleOptions ao;
  ao.roster_replicas = kReplicas;
  ao.add_users = false;
  core::assemble_grid3(grid, ao);

  broker::BrokerConfig inc_cfg;
  inc_cfg.incremental_rank = true;
  broker::BrokerConfig full_cfg;
  full_cfg.incremental_rank = false;
  broker::ResourceBroker& inc = grid.attach_broker(
      "usatlas", broker::PolicyKind::kQueueDepth, inc_cfg);
  broker::ResourceBroker& full = grid.attach_broker(
      "uscms", broker::PolicyKind::kQueueDepth, full_cfg);
  sim.run_until(Time::minutes(6));  // let every GRIS publish a snapshot

  MicrobenchResult out;
  out.sites = grid.sites().size();
  for (const auto& site : grid.sites()) out.total_cpus += site->cpus();
  std::cout << "done (" << out.sites << " sites, " << out.total_cpus
            << " CPUs)\n";

  // One spec class, installed fabric-wide (the entrada demonstrator
  // lands on every roster site), so a full rescore walks all 270 sites.
  broker::JobSpec spec;
  spec.app = "grid30-probe";
  spec.required_app = core::app::kEntrada;
  spec.runtime = Time::hours(2);
  const Time now = sim.now();
  spec.vo = "usatlas";
  const std::optional<std::string> inc_pick = inc.choose(spec, now);
  spec.vo = "uscms";
  const std::optional<std::string> full_pick = full.choose(spec, now);
  out.same_choice = inc_pick == full_pick;

  const double min_seconds = bench::quick_or(0.4, 0.15);
  spec.vo = "uscms";
  out.cycles_per_sec_full = measure_cycles(full, spec, now, min_seconds);
  spec.vo = "usatlas";
  out.cycles_per_sec_incremental =
      measure_cycles(inc, spec, now, min_seconds);
  std::cout << "[microbench] full rescore "
            << static_cast<long>(out.cycles_per_sec_full)
            << " cycles/s, incremental "
            << static_cast<long>(out.cycles_per_sec_incremental)
            << " cycles/s (" << util::AsciiTable::num(out.speedup(), 1)
            << "x)\n\n";
  return out;
}

struct CampaignResult {
  std::string match_log;     ///< per-VO match logs, concatenated
  std::size_t jobs = 0;      ///< accounted job records
  double events_per_sec = 0.0;
  std::uint64_t match_cycles = 0;
  std::uint64_t rank_evals = 0;
  std::uint64_t rank_cache_hits = 0;
  double wall_seconds = 0.0;
};

CampaignResult run_campaign(bool incremental, bool print_tables,
                            bool legacy_kernel = false) {
  // The campaign is the catalog's grid30-2month entry: the paper's full
  // job volume (scale 1.0) on the 10x fabric for two months -- heavy
  // enough to exercise tens of thousands of match cycles per campaign
  // while keeping the two-run equivalence diff inside the bench
  // catalogue's wall-clock budget.  Only the equivalence knobs under
  // test (rank mode, kernel) are overridden here.
  workload::ScenarioSpec spec =
      workload::ScenarioCatalog::get("grid30-2month", bench::seed());
  spec.base.job_scale *= bench::job_scale();
  spec.base.cpu_scale = bench::cpu_scale();
  workload::StackConfig stack = workload::modern_stack();
  stack.incremental_rank = incremental;
  stack.health_breakers = false;
  // Legacy kernel: pure-heap event queue + full-graph fair-share
  // re-solve -- the pre-calendar baseline the campaign diff certifies
  // the fast kernel against, byte for byte.
  stack.legacy_kernel = legacy_kernel;
  const workload::ScenarioOptions opts = spec.options(bench::quick());
  std::cout << "[campaign " << (incremental ? "incremental" : "full-rescore")
            << (legacy_kernel ? ", legacy kernel" : "")
            << "] months=" << opts.months << " job_scale=" << opts.job_scale
            << " replicas=" << kReplicas << " ... " << std::flush;

  const auto start = std::chrono::steady_clock::now();
  workload::CatalogRun run{spec, bench::quick(), stack};
  run.run();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  const sim::Simulation& sim = run.sim();
  workload::Scenario& scenario = run.scenario();

  CampaignResult out;
  out.wall_seconds = elapsed.count();
  out.events_per_sec =
      static_cast<double>(sim.executed()) / elapsed.count();
  auto& grid = scenario.grid();
  out.jobs = grid.igoc().job_db().size();
  for (const std::string& vo : core::canonical_vos()) {
    if (const broker::ResourceBroker* b = grid.broker(vo)) {
      out.match_log += "== " + vo + " ==\n" + b->serialize_match_log();
      out.match_cycles += b->match_cycles();
      out.rank_evals += b->rank_evals();
      out.rank_cache_hits += b->rank_cache_hits();
    }
  }
  std::cout << "done (" << sim.executed() << " events, " << out.jobs
            << " jobs, " << util::AsciiTable::num(out.wall_seconds, 1)
            << "s wall)\n";

  if (print_tables) {
    using util::AsciiTable;
    const auto& db = grid.igoc().job_db();
    const Time to = sim.now();
    std::cout << "\nTable 1 (shape) at 10x scale:\n";
    AsciiTable table{{"VO", "jobs", "cpu-days", "sites used", "avg hrs"}};
    for (const std::string& vo : db.vos()) {
      const auto stats = db.stats_for(vo, Time::zero(), to);
      table.add_row({vo,
                     AsciiTable::integer(static_cast<long>(stats.jobs)),
                     AsciiTable::num(stats.total_cpu_days, 1),
                     AsciiTable::integer(
                         static_cast<long>(stats.sites_used)),
                     AsciiTable::num(stats.avg_runtime_hours, 2)});
    }
    table.print(std::cout);

    std::cout << "\nFigure 2 (shape): integrated CPU-days by VO:\n";
    const monitoring::MdViewer viewer = scenario.viewer();
    for (const auto& [vo, days] :
         viewer.integrated_cpu_days_by_vo(Time::zero(), to)) {
      std::cout << "  " << vo << ": " << AsciiTable::num(days, 1) << "\n";
    }
  }
  return out;
}

int write_snapshot(const char* path, const MicrobenchResult& micro,
                   bool identical, bool kernel_identical,
                   const CampaignResult& campaign) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "grid30: cannot write %s\n", path);
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"schema\": \"grid3-bench-grid30-v2\",\n"
               "  \"sites\": %zu,\n"
               "  \"total_cpus\": %d,\n"
               "  \"jobs\": %zu,\n"
               "  \"events_per_sec\": %.0f,\n"
               "  \"match_cycles_per_sec_full\": %.0f,\n"
               "  \"match_cycles_per_sec_incremental\": %.0f,\n"
               "  \"match_speedup\": %.2f,\n"
               "  \"identical_decisions\": %s,\n"
               "  \"kernel_identical\": %s\n"
               "}\n",
               micro.sites, micro.total_cpus, campaign.jobs,
               campaign.events_per_sec, micro.cycles_per_sec_full,
               micro.cycles_per_sec_incremental, micro.speedup(),
               identical ? "true" : "false",
               kernel_identical ? "true" : "false");
  std::fclose(out);
  std::printf("grid30 snapshot -> %s\n", path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* snapshot_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--snapshot") == 0 && i + 1 < argc) {
      snapshot_path = argv[i + 1];
    }
  }
  grid3::bench::header(
      "Grid30: interned-id hot paths + incremental matchmaking at 10x",
      "section 7 scale milestones, pushed to a 270-site fabric");

  const MicrobenchResult micro = run_microbench();

  // Equivalence: identical seeded campaign, the only difference being
  // the rank-maintenance mode.  The incremental run doubles as the
  // throughput/Table-1 probe.
  const CampaignResult inc_run =
      run_campaign(/*incremental=*/true, /*print_tables=*/true);
  const CampaignResult full_run =
      run_campaign(/*incremental=*/false, /*print_tables=*/false);
  const bool identical = inc_run.match_log == full_run.match_log;

  // Kernel equivalence: the same incremental campaign on the legacy
  // kernel (pure-heap queue, full-graph fair-share re-solve).  The
  // calendar queue and the partial re-solve may only change the cost of
  // a run, never a decision, so the logs must match byte for byte.
  const CampaignResult legacy_run = run_campaign(
      /*incremental=*/true, /*print_tables=*/false, /*legacy_kernel=*/true);
  const bool kernel_identical = inc_run.match_log == legacy_run.match_log;

  using grid3::util::AsciiTable;
  const double hit_rate =
      inc_run.rank_evals + inc_run.rank_cache_hits > 0
          ? static_cast<double>(inc_run.rank_cache_hits) /
                static_cast<double>(inc_run.rank_evals +
                                    inc_run.rank_cache_hits)
          : 0.0;
  std::cout << "\ncampaign: " << inc_run.match_cycles << " match cycles, "
            << inc_run.rank_cache_hits << " cache hits / "
            << inc_run.rank_evals << " fresh evals ("
            << AsciiTable::percent(hit_rate) << " hit rate), "
            << static_cast<long>(inc_run.events_per_sec)
            << " events/s\n";

  const bool fast_enough = micro.speedup() >= 5.0;
  std::cout << "\nacceptance: incremental "
            << static_cast<long>(micro.cycles_per_sec_incremental)
            << " cycles/s vs full "
            << static_cast<long>(micro.cycles_per_sec_full) << " cycles/s at "
            << micro.sites << " sites -> "
            << AsciiTable::num(micro.speedup(), 1) << "x "
            << (fast_enough ? "(>= 5x)" : "(BELOW the 5x floor)") << '\n';
  std::cout << "acceptance: incremental vs full-rescore match decisions ("
            << inc_run.jobs << " jobs) -> "
            << (identical ? "IDENTICAL" : "DIVERGED")
            << (micro.same_choice ? "" : "; microbench picks DIVERGED too")
            << '\n';
  std::cout << "acceptance: calendar/partial kernel vs legacy "
               "heap/full-resolve campaign logs -> "
            << (kernel_identical ? "IDENTICAL" : "DIVERGED") << '\n';

  std::printf(
      "result-json: {\"sites\": %zu, \"total_cpus\": %d, \"jobs\": %zu, "
      "\"events_per_sec\": %.0f, \"match_cycles_per_sec_full\": %.0f, "
      "\"match_cycles_per_sec_incremental\": %.0f, \"match_speedup\": %.2f, "
      "\"identical_decisions\": %s, \"kernel_identical\": %s}\n",
      micro.sites, micro.total_cpus, inc_run.jobs, inc_run.events_per_sec,
      micro.cycles_per_sec_full, micro.cycles_per_sec_incremental,
      micro.speedup(), identical ? "true" : "false",
      kernel_identical ? "true" : "false");

  if (snapshot_path != nullptr &&
      write_snapshot(snapshot_path, micro, identical, kernel_identical,
                     inc_run) != 0) {
    return 1;
  }
  grid3::bench::scale_note();
  return (fast_enough && identical && kernel_identical && micro.same_choice)
             ? 0
             : 1;
}
