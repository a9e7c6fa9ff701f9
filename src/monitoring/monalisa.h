// MonALISA: agent-based monitoring (paper section 5.2).
//
// Site agents watch local sources (GRAM logs, job queues, Ganglia
// metrics) and stream VO-tagged activity to the central repository at
// the iGOC, which stores everything in a round-robin database and serves
// web queries.  The repository path is deliberately *redundant* with the
// Ganglia/ACDC paths -- "permitting crosschecks on the data collected".
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "monitoring/bus.h"
#include "util/rrd.h"
#include "util/units.h"

namespace grid3::monitoring {

/// VO-activity metric names MonALISA agents derive at sites.
namespace mlmetric {
inline constexpr const char* kVoJobsRunning = "monalisa.vo_jobs_running";
inline constexpr const char* kVoJobsQueued = "monalisa.vo_jobs_queued";
inline constexpr const char* kGatekeeperLoad = "monalisa.gatekeeper_load";
inline constexpr const char* kIoMbps = "monalisa.io_mbps";
}  // namespace mlmetric

/// Compose a per-VO metric key name, e.g. "monalisa.vo_jobs_running.usatlas".
[[nodiscard]] std::string vo_metric(const char* base, const std::string& vo);

/// A metric an agent reports every round: its name plus the bus handle,
/// resolved at the first report made while the agent is up (so a key
/// never appears on the bus without a sample).
struct AgentMetric {
  std::string name;
  MetricHandle handle;
};

/// Site-resident agent: re-publishes selected local metrics onto the bus
/// under MonALISA names and forwards them to the central repository.
class MonalisaAgent {
 public:
  MonalisaAgent(std::string site, MetricBus& bus)
      : site_{std::move(site)}, bus_{bus} {}

  [[nodiscard]] const std::string& site() const { return site_; }

  /// Report one observation (called by the site model's sampling loop).
  void report(AgentMetric& metric, Time now, double value);
  /// One-off report by name.
  void report(const std::string& metric, Time now, double value) {
    AgentMetric m{metric, {}};
    report(m, now, value);
  }

  void set_available(bool up) { up_ = up; }
  [[nodiscard]] bool available() const { return up_; }
  [[nodiscard]] std::uint64_t reports() const { return reports_; }

 private:
  std::string site_;
  MetricBus& bus_;
  bool up_ = true;
  std::uint64_t reports_ = 0;
};

/// Central repository: subscribes to MonALISA metrics on the bus and
/// persists them into bounded round-robin archives, one per key.
class MonalisaRepository {
 public:
  explicit MonalisaRepository(MetricBus& bus);
  ~MonalisaRepository();
  MonalisaRepository(const MonalisaRepository&) = delete;
  MonalisaRepository& operator=(const MonalisaRepository&) = delete;

  /// Consolidated value for (site, metric) covering time t, if retained.
  [[nodiscard]] std::optional<double> read(const std::string& site,
                                           const std::string& metric,
                                           Time t) const;

  /// Sum across sites of the consolidated values covering time t.
  [[nodiscard]] double grid_total(const std::string& metric, Time t) const;

  [[nodiscard]] std::size_t archived_keys() const { return archived_; }
  [[nodiscard]] std::uint64_t updates() const { return updates_; }

  /// Collector outage: a down repository answers no reads and drops
  /// incoming updates (the gap stays in the archive -- history lost
  /// while down is not back-filled on recovery, just as a real
  /// collector's round-robin archives would show a hole).  Consumers
  /// already treat "no value" as a degraded default (the broker ranks
  /// load-blind via value_or(0)).
  void set_available(bool up) { up_ = up; }
  [[nodiscard]] bool available() const { return up_; }
  /// Updates dropped while the collector was down.
  [[nodiscard]] std::uint64_t dropped_updates() const { return dropped_; }

 private:
  void ingest(MetricHandle h, Time t, double value);
  [[nodiscard]] const util::RoundRobinArchive* archive(MetricHandle h) const;
  [[nodiscard]] static util::RoundRobinArchive make_archive();

  MetricBus& bus_;
  bool up_ = true;
  std::vector<SubscriptionId> subs_;
  /// Indexed by bus handle; null = no sample ingested for that key.
  std::vector<std::unique_ptr<util::RoundRobinArchive>> by_handle_;
  std::size_t archived_ = 0;
  std::uint64_t updates_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace grid3::monitoring
