#include "monitoring/bus.h"

#include <algorithm>
#include <cassert>

namespace grid3::monitoring {
namespace {

bool name_matches(const std::string& pattern, const std::string& name) {
  if (!pattern.empty() && pattern.back() == '*') {
    return name.compare(0, pattern.size() - 1, pattern, 0,
                        pattern.size() - 1) == 0;
  }
  return pattern == name;
}

std::uint64_t composite(core::SiteId site, core::ServiceId name) {
  return (static_cast<std::uint64_t>(site.value()) << 32) | name.value();
}

}  // namespace

MetricHandle MetricBus::handle(const std::string& site,
                               const std::string& name) {
  const auto key =
      composite(site_ids_.intern(site), name_ids_.intern(name));
  const MetricHandle next{static_cast<std::uint32_t>(entries_.size())};
  const auto [it, inserted] = index_.try_emplace(key, next);
  if (inserted) entries_.emplace_back().key = {site, name};
  return it->second;
}

MetricHandle MetricBus::find(const std::string& site,
                             const std::string& name) const {
  const core::SiteId s = site_ids_.find(site);
  const core::ServiceId n = name_ids_.find(name);
  if (!s.valid() || !n.valid()) return MetricHandle::invalid();
  auto it = index_.find(composite(s, n));
  return it == index_.end() ? MetricHandle::invalid() : it->second;
}

const MetricBus::Entry* MetricBus::find_entry(const std::string& site,
                                              const std::string& name) const {
  const MetricHandle h = find(site, name);
  return h.valid() ? &entries_[h.value()] : nullptr;
}

void MetricBus::rebuild_fanout(Entry& e) const {
  e.fanout.clear();
  for (const Subscriber& s : subscribers_) {
    if (s.cb && name_matches(s.name, e.key.name) &&
        (s.site == "*" || s.site == e.key.site)) {
      e.fanout.push_back(&s);
    }
  }
  e.sub_epoch = sub_epoch_;
}

void MetricBus::publish(MetricHandle h, Time t, double value) {
  assert(h.valid() && h.value() < entries_.size());
  ++published_;
  Entry& e = entries_[h.value()];
  e.series.append(t, value);
  if (e.sub_epoch != sub_epoch_) rebuild_fanout(e);
  for (const Subscriber* s : e.fanout) {
    // A tombstoned subscriber may linger until the next rebuild.
    if (s->cb) s->cb(h, e.key, t, value);
  }
}

SubscriptionId MetricBus::subscribe(const std::string& site,
                                    const std::string& name,
                                    MetricCallback cb) {
  const SubscriptionId id = next_sub_++;
  subscribers_.push_back({id, site, name, std::move(cb)});
  ++sub_epoch_;
  return id;
}

void MetricBus::unsubscribe(SubscriptionId id) {
  for (Subscriber& s : subscribers_) {
    if (s.id == id) s.cb = nullptr;
  }
  ++sub_epoch_;
}

std::optional<util::TimePoint> MetricBus::latest(
    const std::string& site, const std::string& name) const {
  const Entry* e = find_entry(site, name);
  if (e == nullptr || e->series.empty()) return std::nullopt;
  return e->series.points().back();
}

const util::TimeSeries& MetricBus::series(const std::string& site,
                                          const std::string& name) const {
  const Entry* e = find_entry(site, name);
  return e == nullptr ? empty_ : e->series;
}

std::vector<MetricKey> MetricBus::keys_with_prefix(
    const std::string& prefix) const {
  std::vector<MetricKey> out;
  for (const Entry& e : entries_) {
    if (e.key.name.compare(0, prefix.size(), prefix) == 0) {
      out.push_back(e.key);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> MetricBus::sites_for(const std::string& name) const {
  std::vector<std::string> out;
  for (const Entry& e : entries_) {
    if (e.key.name == name) out.push_back(e.key.site);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace grid3::monitoring
