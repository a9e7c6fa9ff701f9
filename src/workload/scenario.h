// The Grid2003 operations scenario: October 2003 through April 2004.
//
// Composes the full fabric (27 sites, 6 VOs, users, failure injection,
// shared-site CPU fluctuation) under a policy stack, builds the seven
// historical application demonstrators calibrated to Table 1 when the
// catalog entry has no campaigns of its own, and exposes the analysis
// windows the paper's figures use.  Only workload::CatalogRun builds
// one (see catalog.h); it also owns the simulation clock.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "apps/atlas.h"
#include "apps/btev.h"
#include "apps/cms.h"
#include "apps/entrada.h"
#include "apps/exerciser.h"
#include "apps/ivdgl.h"
#include "apps/ligo.h"
#include "apps/sdss.h"
#include "broker/rank_policy.h"
#include "core/grid3.h"
#include "core/roster.h"
#include "monitoring/mdviewer.h"

namespace grid3::workload {

struct ScenarioOptions {
  /// Scale site CPU counts (1.0 = the ~2800-CPU roster).
  double cpu_scale = 1.0;
  /// Scale workload volumes (1.0 = the 291k-job accounting sample).
  double job_scale = 1.0;
  int months = 7;  ///< Oct 2003 .. Apr 2004
  std::uint64_t seed = 20031025;
  /// Fabric replication factor (see core::AssembleOptions): 1 = the
  /// historical 27-site roster, 10 = the "Grid30" 270-site fabric.
  int roster_replicas = 1;
};

/// A policy stack: the placement/resilience feature set a scenario runs
/// under.  The catalog comparison pits `modern_stack()` (incremental
/// broker + leases + breakers) against `legacy_stack()` (the paper's
/// favorite-sites status quo: no broker, no breakers).
struct StackConfig {
  std::string name = "modern";
  /// kNone = planner-side favorite sites, no broker.  Anything else
  /// attaches a per-VO resource broker with that ranking policy before
  /// the application drivers are built.
  broker::PolicyKind policy = broker::PolicyKind::kQueueDepth;
  /// With a broker: serve rank scores from the incremental cache.
  /// False forces the full per-match rescore (grid30's equivalence
  /// baseline).
  bool incremental_rank = true;
  /// With a broker: acquire stage-out leases before binding.
  bool placement_leases = true;
  bool health_breakers = true;
  /// Pure-heap event queue + full-graph fair-share re-solve: the
  /// pre-calendar kernel grid30 certifies the fast one against.
  bool legacy_kernel = false;
};

[[nodiscard]] StackConfig modern_stack();
[[nodiscard]] StackConfig legacy_stack();

struct Window {
  Time from;
  Time to;
};

/// SC2003 analysis window: 30 days from October 25, 2003 (Figures 2/3/5).
[[nodiscard]] Window sc2003_window();
/// Table 1 accounting window: Oct 23, 2003 - Apr 23, 2004.
[[nodiscard]] Window table1_window();
/// CMS 150-day window from November 2003 (Figure 4).
[[nodiscard]] Window cms150_window();

class Scenario {
 public:
  ~Scenario();
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Start resource fluctuation and the demonstrators (idempotent).
  void start();

  [[nodiscard]] core::Grid3& grid() { return *grid_; }
  [[nodiscard]] const ScenarioOptions& options() const { return opts_; }
  /// Assembly outputs (per-VO user credentials): campaign drivers wire
  /// their submitter populations from here.
  [[nodiscard]] const core::Assembled& assembled() const { return assembled_; }
  [[nodiscard]] monitoring::MdViewer viewer() const {
    return {grid_->igoc().job_db(), grid_->igoc().bus()};
  }
  /// Whether the historical application demonstrators were built.
  [[nodiscard]] bool demonstrators() const { return atlas_ != nullptr; }

 private:
  friend class CatalogRun;
  Scenario(sim::Simulation& sim, const ScenarioOptions& opts,
           const StackConfig& stack, bool demonstrators);
  void build_demonstrators();

  sim::Simulation& sim_;
  ScenarioOptions opts_;
  std::unique_ptr<core::Grid3> grid_;
  core::Assembled assembled_;
  std::unique_ptr<apps::AtlasGce> atlas_;
  std::unique_ptr<apps::CmsMop> cms_;
  std::unique_ptr<apps::SdssCoadd> sdss_;
  std::unique_ptr<apps::LigoPulsar> ligo_;
  std::unique_ptr<apps::BtevSim> btev_;
  std::unique_ptr<apps::IvdglApps> ivdgl_;
  std::unique_ptr<apps::CondorExerciser> exerciser_;
  std::unique_ptr<apps::EntradaDemo> entrada_;
  std::unique_ptr<sim::PeriodicProcess> fluctuation_;
  std::vector<int> base_cpus_;
  util::Rng fluct_rng_{1};
  bool started_ = false;
};

}  // namespace grid3::workload
