#include "workload/scenario.h"

#include "util/calendar.h"

namespace grid3::workload {

StackConfig modern_stack() { return {}; }

StackConfig legacy_stack() {
  StackConfig s;
  s.name = "legacy";
  s.policy = broker::PolicyKind::kNone;
  s.health_breakers = false;
  return s;
}

Window sc2003_window() {
  const Time from = util::time_of({2003, 10, 25});
  return {from, from + Time::days(30)};
}

Window table1_window() {
  return {util::time_of({2003, 10, 23}), util::time_of({2004, 4, 23})};
}

Window cms150_window() {
  const Time from = util::time_of({2003, 11, 1});
  return {from, from + Time::days(150)};
}

namespace {

/// Users registered for a VO during assembly.
const core::VoUsers* users_for(const core::Assembled& assembled,
                               const std::string& vo) {
  for (const auto& vu : assembled.users) {
    if (vu.vo == vo) return &vu;
  }
  return nullptr;
}

void wire_users(apps::AppBase& app, const core::Assembled& assembled,
                const std::string& vo) {
  if (const core::VoUsers* vu = users_for(assembled, vo)) {
    app.set_users(vu->app_admins, vu->users);
  }
}

/// A demonstrator sized to the scenario's job scale and horizon.
template <typename App>
std::unique_ptr<App> make_app(core::Grid3& grid, const ScenarioOptions& opts) {
  typename App::Options o;
  o.job_scale = opts.job_scale;
  o.months = opts.months;
  return std::make_unique<App>(grid, o);
}

}  // namespace

Scenario::Scenario(sim::Simulation& sim, const ScenarioOptions& opts,
                   const StackConfig& stack, bool demonstrators)
    : sim_{sim}, opts_{opts} {
  grid_ = std::make_unique<core::Grid3>(sim, opts.seed);
  grid_->network().set_partial_reallocate(!stack.legacy_kernel);
  core::AssembleOptions ao;
  ao.cpu_scale = opts.cpu_scale;
  ao.roster_replicas = opts.roster_replicas;
  assembled_ = core::assemble_grid3(*grid_, ao);

  // Brokers must exist before the apps: each AppBase binds its planner
  // to its VO's broker at construction.
  if (stack.policy != broker::PolicyKind::kNone) {
    broker::BrokerConfig bcfg;
    bcfg.placement_leases = stack.placement_leases;
    bcfg.incremental_rank = stack.incremental_rank;
    for (const std::string& vo : core::canonical_vos()) {
      grid_->attach_broker(vo, stack.policy, bcfg);
    }
  }

  // A campaign scenario drives its own workload: it skips the historical
  // demonstrators entirely (their RNG forks included, so campaign
  // streams do not depend on them).
  if (demonstrators) build_demonstrators();
  if (stack.health_breakers) grid_->attach_health();
}

void Scenario::build_demonstrators() {
  // Construction order is part of the determinism contract: each driver
  // forks the grid RNG when it is built.
  atlas_ = make_app<apps::AtlasGce>(*grid_, opts_);
  wire_users(*atlas_, assembled_, "usatlas");
  cms_ = make_app<apps::CmsMop>(*grid_, opts_);
  wire_users(*cms_, assembled_, "uscms");
  cms_->register_pileup_dataset();
  sdss_ = make_app<apps::SdssCoadd>(*grid_, opts_);
  wire_users(*sdss_, assembled_, "sdss");
  sdss_->register_survey_segments(8);
  ligo_ = make_app<apps::LigoPulsar>(*grid_, opts_);
  wire_users(*ligo_, assembled_, "ligo");
  btev_ = make_app<apps::BtevSim>(*grid_, opts_);
  wire_users(*btev_, assembled_, "btev");
  ivdgl_ = make_app<apps::IvdglApps>(*grid_, opts_);
  exerciser_ = make_app<apps::CondorExerciser>(*grid_, opts_);

  // Table 1 user split inside the iVDGL VO: 24 members ran SnB/GADU, a
  // separate 3-identity Condor-group pool ran the exerciser; the rest
  // are authorized but idle.
  if (const core::VoUsers* iv = users_for(assembled_, "ivdgl")) {
    std::vector<vo::Certificate> snb_users{
        iv->users.begin(),
        iv->users.begin() +
            std::min<std::size_t>(22, iv->users.size())};
    ivdgl_->set_users(iv->app_admins, snb_users);
    std::vector<vo::Certificate> probe_users{
        iv->users.end() - std::min<std::size_t>(3, iv->users.size()),
        iv->users.end()};
    exerciser_->set_users(probe_users, {});
  }

  entrada_ = make_app<apps::EntradaDemo>(*grid_, opts_);
  if (const core::VoUsers* iv = users_for(assembled_, "ivdgl")) {
    entrada_->set_users(iv->app_admins, {});
  }
}

Scenario::~Scenario() = default;

void Scenario::start() {
  if (started_) return;
  started_ = true;
  // Shared sites introduce and withdraw worker nodes over time (the
  // section 7 CPU-count fluctuation); dedicated sites stay fixed.
  fluct_rng_ = util::Rng{opts_.seed ^ 0xf1c7u};
  for (const auto& site : grid_->sites()) {
    base_cpus_.push_back(site->cpus());
  }
  // Every two weeks, shared sites resize within 80-105% of their base
  // capacity (withdrawing nodes kills the jobs on them, as the paper's
  // disk/node replacements did at unlucky sites).
  fluctuation_ = std::make_unique<sim::PeriodicProcess>(
      sim_, Time::days(14), [this] {
        const auto& sites = grid_->sites();
        for (std::size_t i = 0; i < sites.size(); ++i) {
          if (sites[i]->config().policy.dedicated) continue;
          const int target = std::max(
              2, static_cast<int>(base_cpus_[i] *
                                  fluct_rng_.uniform(0.80, 1.05)));
          sites[i]->scheduler().resize(target, fluct_rng_);
        }
        return true;
      });
  fluctuation_->start(Time::days(10));
  if (!demonstrators()) return;
  // The SC2003 conference demonstration (paper section 7: "On Nov. 20,
  // 2003 there were sustained periods when over 1300 jobs ran
  // simultaneously"): a coordinated push that floods the grid with
  // medium-length jobs for a day.  Sized to capacity, not to workload.
  if (opts_.months >= 2) {
    const int burst_jobs = static_cast<int>(1400 * opts_.cpu_scale);
    if (burst_jobs > 0) {
      ivdgl_->demo_burst(util::time_of({2003, 11, 20}), burst_jobs);
    }
  }
  atlas_->start();
  cms_->start();
  sdss_->start();
  ligo_->start();
  btev_->start();
  ivdgl_->start();
  exerciser_->start();
  entrada_->start();
}

}  // namespace grid3::workload
