#include "monitoring/ganglia.h"

namespace grid3::monitoring {
namespace {

/// Publish order of one sampling round (and the index into handles_).
constexpr std::array<const char*, 7> kRound = {
    gmetric::kCpuLoad,    gmetric::kCpusTotal,  gmetric::kCpusBusy,
    gmetric::kDiskFreeGb, gmetric::kNetInMbps,  gmetric::kNetOutMbps,
    gmetric::kHeartbeat};

}  // namespace

void GangliaGmond::sample(Time now) {
  if (!up_) return;
  ++samples_;
  const HostMetrics m = source_();
  const std::array<double, kRound.size()> values = {
      m.load_one,
      static_cast<double>(m.cpus_total),
      static_cast<double>(m.cpus_busy),
      m.disk_free_gb,
      m.net_in_mbps,
      m.net_out_mbps,
      1.0};
  static_assert(kRound.size() == std::tuple_size_v<decltype(handles_)>);
  for (std::size_t i = 0; i < kRound.size(); ++i) {
    if (!handles_[i].valid()) handles_[i] = bus_.handle(site_, kRound[i]);
    bus_.publish(handles_[i], now, values[i]);
  }
}

GangliaGmetad::GridSummary GangliaGmetad::summarize(Time now) const {
  GridSummary s;
  for (const std::string& site : bus_.sites_for(gmetric::kHeartbeat)) {
    const auto beat = bus_.latest(site, gmetric::kHeartbeat);
    if (!beat.has_value() || now - beat->t > stale_after_) {
      s.missing_sites.push_back(site);
      continue;
    }
    ++s.sites_reporting;
    if (auto v = bus_.latest(site, gmetric::kCpusTotal)) {
      s.cpus_total += static_cast<int>(v->value);
    }
    if (auto v = bus_.latest(site, gmetric::kCpusBusy)) {
      s.cpus_busy += static_cast<int>(v->value);
    }
    if (auto v = bus_.latest(site, gmetric::kCpuLoad)) {
      s.load_sum += v->value;
    }
    if (auto v = bus_.latest(site, gmetric::kDiskFreeGb)) {
      s.disk_free_gb += v->value;
    }
  }
  return s;
}

}  // namespace grid3::monitoring
