#include "monitoring/monalisa.h"

namespace grid3::monitoring {

std::string vo_metric(const char* base, const std::string& vo) {
  return std::string{base} + "." + vo;
}

void MonalisaAgent::report(AgentMetric& metric, Time now, double value) {
  if (!up_) return;
  ++reports_;
  if (!metric.handle.valid()) metric.handle = bus_.handle(site_, metric.name);
  bus_.publish(metric.handle, now, value);
}

util::RoundRobinArchive MonalisaRepository::make_archive() {
  // 5-minute primary slots for two days, hourly for two weeks, daily for
  // a year -- ample for the 7-month scenario while staying bounded.
  return util::RoundRobinArchive{
      {{Time::minutes(5), 576}, {Time::hours(1), 336}, {Time::days(1), 366}},
      util::Consolidation::kAverage};
}

MonalisaRepository::MonalisaRepository(MetricBus& bus) : bus_{bus} {
  // One prefix subscription covers the fixed names and every per-VO key
  // agents mint later.
  subs_.push_back(bus_.subscribe(
      "*", "monalisa.*",
      [this](MetricHandle h, const MetricKey&, Time t, double value) {
        ingest(h, t, value);
      }));
}

MonalisaRepository::~MonalisaRepository() {
  for (SubscriptionId id : subs_) bus_.unsubscribe(id);
}

void MonalisaRepository::ingest(MetricHandle h, Time t, double value) {
  if (!up_) {
    ++dropped_;
    return;
  }
  if (h.value() >= by_handle_.size()) by_handle_.resize(h.value() + 1);
  auto& slot = by_handle_[h.value()];
  if (!slot) {
    slot = std::make_unique<util::RoundRobinArchive>(make_archive());
    ++archived_;
  }
  slot->update(t, value);
  ++updates_;
}

const util::RoundRobinArchive* MonalisaRepository::archive(
    MetricHandle h) const {
  return h.valid() && h.value() < by_handle_.size()
             ? by_handle_[h.value()].get()
             : nullptr;
}

std::optional<double> MonalisaRepository::read(const std::string& site,
                                               const std::string& metric,
                                               Time t) const {
  if (!up_) return std::nullopt;
  const util::RoundRobinArchive* a = archive(bus_.find(site, metric));
  if (a == nullptr) return std::nullopt;
  return a->read(t);
}

double MonalisaRepository::grid_total(const std::string& metric,
                                      Time t) const {
  if (!up_) return 0.0;
  // Sum in site-name order: the floating-point total must not depend on
  // the order in which keys were first published.
  double total = 0.0;
  for (const std::string& site : bus_.sites_for(metric)) {
    if (const util::RoundRobinArchive* a = archive(bus_.find(site, metric))) {
      if (auto v = a->read(t)) total += *v;
    }
  }
  return total;
}

}  // namespace grid3::monitoring
