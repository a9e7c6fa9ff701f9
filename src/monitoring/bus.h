// The producer/intermediary/consumer metric fabric of Figure 1.
//
// "Information producers collect information close to its source, a
// common intermediary defines a uniform representation and access
// methods, and information is centrally collected..."  The MetricBus is
// that common intermediary: producers publish (site, metric, t, value)
// tuples; consumers either subscribe for streams or poll for the latest
// value / full series.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/ids.h"
#include "util/timeseries.h"
#include "util/units.h"

namespace grid3::monitoring {

struct MetricKey {
  std::string site;
  std::string name;
  auto operator<=>(const MetricKey&) const = default;
};

struct MetricTag {};
/// Dense id of one (site, name) key on its bus, in first-resolve order.
/// Valid for the bus's lifetime.
using MetricHandle = core::InternedId<MetricTag>;

/// Fan-out callback: the sample's handle and key (the key reference is
/// bus-owned and lives as long as the bus), then the sample itself.
using MetricCallback =
    std::function<void(MetricHandle, const MetricKey&, Time, double)>;
using SubscriptionId = std::uint64_t;

class MetricBus {
 public:
  /// Handle of (site, name), registering the key if unseen.  A
  /// registered key is visible to sites_for/keys_with_prefix/key_count,
  /// so a periodic producer resolves at its first publish and reuses
  /// the handle for every later sample.
  MetricHandle handle(const std::string& site, const std::string& name);
  /// Handle of an already registered key; invalid otherwise.
  [[nodiscard]] MetricHandle find(const std::string& site,
                                  const std::string& name) const;
  /// The key `h` was resolved from; the reference lives as long as the bus.
  [[nodiscard]] const MetricKey& key(MetricHandle h) const {
    return entries_[h.value()].key;
  }

  /// Publish a sample.  Fans out to matching subscribers synchronously.
  void publish(MetricHandle h, Time t, double value);
  /// Publish by name: resolves the key on every call (one-off callers).
  void publish(const std::string& site, const std::string& name, Time t,
               double value) {
    publish(handle(site, name), t, value);
  }

  /// Subscribe to a metric name; `site` may be "*" for all sites, and a
  /// `name` ending in '*' matches by prefix (e.g. "monalisa.*").
  SubscriptionId subscribe(const std::string& site, const std::string& name,
                           MetricCallback cb);
  void unsubscribe(SubscriptionId id);

  /// Latest sample for a key.
  [[nodiscard]] std::optional<util::TimePoint> latest(
      const std::string& site, const std::string& name) const;

  /// Full retained series (empty series when unknown).
  [[nodiscard]] const util::TimeSeries& series(const std::string& site,
                                               const std::string& name) const;

  /// All sites that ever published a given metric name, sorted by name
  /// (the order the old sorted-map storage yielded for free).
  [[nodiscard]] std::vector<std::string> sites_for(
      const std::string& name) const;

  /// All (site, name) keys whose name starts with `prefix`, sorted by
  /// (site, name).
  [[nodiscard]] std::vector<MetricKey> keys_with_prefix(
      const std::string& prefix) const;

  [[nodiscard]] std::size_t key_count() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t published() const { return published_; }

 private:
  struct Subscriber {
    SubscriptionId id;
    std::string site;  // "*" = wildcard
    std::string name;
    MetricCallback cb;  // null = unsubscribed tombstone
  };

  /// One (site, name) series plus its cached subscriber fan-out.  The
  /// fan-out list is rebuilt lazily when the subscription epoch moved,
  /// so steady-state publishes skip the per-publish pattern scan the
  /// old bus paid for every sample.
  struct Entry {
    MetricKey key;
    util::TimeSeries series;
    std::uint64_t sub_epoch = 0;  ///< 0 = fan-out never built
    std::vector<const Subscriber*> fanout;
  };

  [[nodiscard]] const Entry* find_entry(const std::string& site,
                                        const std::string& name) const;
  void rebuild_fanout(Entry& e) const;

  /// Private interners for bus keys (sites here include non-fabric
  /// labels like VO names, so the bus does not share the grid registry).
  core::Interner<core::SiteId> site_ids_;
  core::Interner<core::ServiceId> name_ids_;
  /// (site id << 32 | name id) -> handle.
  std::unordered_map<std::uint64_t, MetricHandle> index_;
  /// Entries indexed by handle; a deque so growth never invalidates
  /// the entry and key references held across a fan-out.
  std::deque<Entry> entries_;
  std::deque<Subscriber> subscribers_;  ///< stable; tombstoned, not erased
  SubscriptionId next_sub_ = 1;
  /// Bumped on subscribe/unsubscribe; entries with an older stamp
  /// rebuild their fan-out on next publish.
  std::uint64_t sub_epoch_ = 1;
  std::uint64_t published_ = 0;
  util::TimeSeries empty_;
};

}  // namespace grid3::monitoring
