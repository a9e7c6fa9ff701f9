#include "rls/rls.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <iterator>

namespace grid3::rls {

std::uint64_t LocalReplicaCatalog::LogId::next() {
  static std::atomic<std::uint64_t> counter{0};
  return ++counter;
}

void LocalReplicaCatalog::add(const std::string& lfn, Replica replica) {
  auto [entry, first] = map_.try_emplace(lfn);
  if (first) changes_.push_back({lfn, true});
  auto& replicas = entry->second;
  auto it = std::find_if(replicas.begin(), replicas.end(),
                         [&](const Replica& r) { return r.pfn == replica.pfn; });
  if (it != replicas.end()) {
    *it = std::move(replica);
  } else {
    replicas.push_back(std::move(replica));
  }
}

bool LocalReplicaCatalog::remove(const std::string& lfn,
                                 const std::string& pfn) {
  auto it = map_.find(lfn);
  if (it == map_.end()) return false;
  auto& replicas = it->second;
  const auto before = replicas.size();
  replicas.erase(std::remove_if(replicas.begin(), replicas.end(),
                                [&](const Replica& r) { return r.pfn == pfn; }),
                 replicas.end());
  const bool removed = replicas.size() != before;
  if (replicas.empty()) {
    changes_.push_back({lfn, false});
    map_.erase(it);
  }
  return removed;
}

std::size_t LocalReplicaCatalog::remove_lfn(const std::string& lfn) {
  auto it = map_.find(lfn);
  if (it == map_.end()) return 0;
  const std::size_t n = it->second.size();
  changes_.push_back({lfn, false});
  map_.erase(it);
  return n;
}

std::vector<Replica> LocalReplicaCatalog::lookup(const std::string& lfn) const {
  if (!up_) return {};
  auto it = map_.find(lfn);
  return it == map_.end() ? std::vector<Replica>{} : it->second;
}

bool LocalReplicaCatalog::has(const std::string& lfn) const {
  return up_ && map_.contains(lfn);
}

std::size_t LocalReplicaCatalog::replica_count() const {
  std::size_t n = 0;
  for (const auto& [lfn, replicas] : map_) n += replicas.size();
  return n;
}

void ReplicaLocationIndex::update_from(const LocalReplicaCatalog& lrc,
                                       Time now) {
  if (!up_) return;  // a down index drops digests; soft state re-heals
  auto [slot_it, first] = slots_.try_emplace(
      lrc.site(), static_cast<std::uint32_t>(digests_.size()));
  const std::uint32_t slot = slot_it->second;
  if (first) digests_.push_back({lrc.site(), now, lrc.log_id(), 0});
  SiteDigest& d = digests_[slot];
  if (d.log_id != lrc.log_id()) {
    // A catalog this index has not consumed under the site name: drop
    // the site's old contribution, then replay the whole new log.
    for (auto it = index_.begin(); it != index_.end();) {
      std::erase(it->second, slot);
      it = it->second.empty() ? index_.erase(it) : std::next(it);
    }
    d.log_id = lrc.log_id();
    d.cursor = 0;
  }
  const std::vector<LfnChange>& log = lrc.changes();
  for (; d.cursor < log.size(); ++d.cursor) apply(log[d.cursor], slot);
  d.refreshed = now;
}

void ReplicaLocationIndex::apply(const LfnChange& change, std::uint32_t slot) {
  auto it = change.present ? index_.try_emplace(change.lfn).first
                           : index_.find(change.lfn);
  if (it == index_.end()) return;
  auto& sites = it->second;
  auto pos = std::lower_bound(
      sites.begin(), sites.end(), digests_[slot].site,
      [this](std::uint32_t s, const std::string& name) {
        return digests_[s].site < name;
      });
  const bool listed = pos != sites.end() && *pos == slot;
  if (change.present && !listed) sites.insert(pos, slot);
  if (!change.present && listed) sites.erase(pos);
  if (sites.empty()) index_.erase(it);
}

std::vector<std::string> ReplicaLocationIndex::sites_with(
    const std::string& lfn, Time now) const {
  std::vector<std::string> out;
  if (!up_) return out;
  auto it = index_.find(lfn);
  if (it == index_.end()) return out;
  for (const std::uint32_t slot : it->second) {
    const SiteDigest& d = digests_[slot];
    if (now - d.refreshed <= ttl_) out.push_back(d.site);
  }
  return out;
}

bool ReplicaLocationIndex::knows(const std::string& lfn,
                                 const std::string& site, Time now) const {
  if (!up_) return false;
  auto it = index_.find(lfn);
  if (it == index_.end()) return false;
  for (const std::uint32_t slot : it->second) {
    const SiteDigest& d = digests_[slot];
    if (d.site == site) return now - d.refreshed <= ttl_;
  }
  return false;
}

LocalReplicaCatalog& ReplicaLocationService::lrc_for(const std::string& site) {
  auto it = lrcs_.find(site);
  if (it == lrcs_.end()) {
    it = lrcs_.emplace(site, LocalReplicaCatalog{site}).first;
  }
  return it->second;
}

const LocalReplicaCatalog* ReplicaLocationService::find_lrc(
    const std::string& site) const {
  auto it = lrcs_.find(site);
  return it == lrcs_.end() ? nullptr : &it->second;
}

JournalEntry& RegistrationJournal::log(std::string site, std::string lfn,
                                       Replica replica, Time now) {
  JournalEntry e;
  e.id = ++next_id_;
  e.site = std::move(site);
  e.lfn = std::move(lfn);
  e.replica = std::move(replica);
  e.logged = now;
  entries_.push_back(std::move(e));
  JournalEntry& ref = entries_.back();
  if (audit_) audit_(ref, "log");
  return ref;
}

void RegistrationJournal::mark_applied(JournalEntry& e, const char* event) {
  assert(!e.applied && "journal entries are applied exactly once");
  e.applied = true;
  ++applied_count_;
  if (event != nullptr && event[0] == 'r') ++replayed_;
  if (audit_) audit_(e, event);
}

void ReplicaLocationService::apply(JournalEntry& e, Time now,
                                   const char* event) {
  LocalReplicaCatalog& lrc = lrc_for(e.site);
  lrc.add(e.lfn, e.replica);  // idempotent: upserts by PFN
  rli_.update_from(lrc, now);  // dropped while the RLI is down; the
                               // next refresh_all re-advertises it
  journal_.mark_applied(e, event);
}

void ReplicaLocationService::register_replica(const std::string& site,
                                              const std::string& lfn,
                                              Replica replica, Time now) {
  const bool reachable = available_ && lrc_for(site).available();
  if (journal_enabled_) {
    // Write-ahead: log the intent first, then attempt the write.  A
    // down endpoint or LRC leaves the entry pending for replay().
    JournalEntry& e = journal_.log(site, lfn, std::move(replica), now);
    if (reachable) apply(e, now, "apply");
    return;
  }
  // Naive baseline: the registration script fails against the down
  // service and the mapping is gone.
  if (!reachable) {
    ++lost_registrations_;
    return;
  }
  LocalReplicaCatalog& lrc = lrc_for(site);
  lrc.add(lfn, std::move(replica));
  rli_.update_from(lrc, now);
}

std::size_t ReplicaLocationService::replay(Time now) {
  if (!journal_enabled_ || !available_ || journal_.pending() == 0) return 0;
  std::size_t applied = 0;
  for (JournalEntry& e : journal_.entries()) {
    if (e.applied) continue;
    if (!lrc_for(e.site).available()) continue;  // still down: keep pending
    apply(e, now, "replay");
    ++applied;
  }
  return applied;
}

std::vector<std::pair<std::string, Replica>> ReplicaLocationService::locate(
    const std::string& lfn, Time now) const {
  std::vector<std::pair<std::string, Replica>> out;
  if (!rli_.available()) {
    // RLI outage: fall back to a direct scan of the authoritative LRCs
    // (the map is name-ordered, so results stay deterministic).
    for (const auto& [site, lrc] : lrcs_) {
      for (const Replica& r : lrc.lookup(lfn)) out.emplace_back(site, r);
    }
    return out;
  }
  for (const std::string& site : rli_.sites_with(lfn, now)) {
    auto it = lrcs_.find(site);
    if (it == lrcs_.end()) continue;
    for (const Replica& r : it->second.lookup(lfn)) {
      out.emplace_back(site, r);
    }
  }
  return out;
}

bool ReplicaLocationService::has_replica_at(const std::string& lfn,
                                            const std::string& site,
                                            Time now) const {
  if (!rli_.available()) {
    const LocalReplicaCatalog* lrc = find_lrc(site);
    return lrc != nullptr && lrc->has(lfn);
  }
  if (!rli_.knows(lfn, site, now)) return false;
  // Mirror locate()'s LRC check: a stale index entry whose catalog
  // dropped the mapping (or whose LRC is down) yields no replicas.
  const LocalReplicaCatalog* lrc = find_lrc(site);
  return lrc != nullptr && lrc->has(lfn);
}

void ReplicaLocationService::refresh_all(Time now) {
  // The ops loop doubles as the recovery replay trigger: pending
  // journal entries drain as soon as their targets are reachable again.
  replay(now);
  for (auto& [site, lrc] : lrcs_) {
    if (lrc.available()) rli_.update_from(lrc, now);
  }
}

}  // namespace grid3::rls
