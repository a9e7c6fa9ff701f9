// Replica Location Service, after the Giggle framework (paper ref [18]).
//
// Two tiers: per-site Local Replica Catalogs (LRC) map logical file
// names to physical locations; Replica Location Indices (RLI) answer
// "which LRCs know this LFN".  LRCs push soft-state digests to their
// RLIs on a period, so the index can lag the catalogs -- consumers must
// tolerate a bounded staleness window, and the tests pin that behaviour.
//
// Delta digests: a digest means "this is the LRC's full state now", but
// the index applies it as a delta.  Each LRC keeps an append-only log of
// LFN membership changes; the index keeps, per site, the time of the
// last accepted digest and a cursor into that site's log, and a digest
// applies only the log entries past the cursor.  A digest therefore
// costs O(membership changes since the site's last accepted digest),
// and its result equals a wipe-and-rebuild of the site's contribution.
//
// Outage degradation: the service endpoint and the RLI each carry an
// availability flag.  Registrations attempted while the endpoint (or
// the target LRC) is down land in a per-VO write-ahead journal -- the
// intent is logged before the catalog write is attempted -- and are
// replayed exactly once on recovery; LRC::add upserts by PFN, so
// re-registration is idempotent.  Lookups during an RLI outage fall
// back to a direct scan of the authoritative LRCs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/units.h"

namespace grid3::rls {

struct Replica {
  std::string pfn;  ///< physical file name: "gsiftp://<site>/<path>"
  Bytes size;
  Time registered;
};

/// One LFN membership change in an LRC: the LFN gained its first replica
/// (`present`) or lost its last one.
struct LfnChange {
  std::string lfn;
  bool present = false;
};

/// Local Replica Catalog: authoritative per-site LFN -> PFN mappings.
class LocalReplicaCatalog {
 public:
  explicit LocalReplicaCatalog(std::string site) : site_{std::move(site)} {}

  [[nodiscard]] const std::string& site() const { return site_; }

  void add(const std::string& lfn, Replica replica);
  bool remove(const std::string& lfn, const std::string& pfn);
  /// Remove every mapping for an LFN; returns replicas removed.
  std::size_t remove_lfn(const std::string& lfn);

  [[nodiscard]] std::vector<Replica> lookup(const std::string& lfn) const;
  [[nodiscard]] bool has(const std::string& lfn) const;
  [[nodiscard]] std::size_t lfn_count() const { return map_.size(); }
  [[nodiscard]] std::size_t replica_count() const;

  /// LFN membership changes in the order they happened: the digest
  /// payload for RLI soft-state updates.  Append-only, so a reader's
  /// position in it stays valid; replaying it from the start rebuilds
  /// the current LFN set.
  [[nodiscard]] const std::vector<LfnChange>& changes() const {
    return changes_;
  }
  /// Process-unique id of this object's change log.  A copy starts a new
  /// log id; a move hands the id over and gives the source a new one.
  [[nodiscard]] std::uint64_t log_id() const { return log_id_.value; }

  void set_available(bool up) { up_ = up; }
  [[nodiscard]] bool available() const { return up_; }

 private:
  struct LogId {
    static std::uint64_t next();
    std::uint64_t value = next();
    LogId() = default;
    LogId(const LogId& /*other*/) {}
    LogId(LogId&& other) noexcept : value{other.value} {
      other.value = next();
    }
    LogId& operator=(const LogId& other) {
      if (this != &other) value = next();
      return *this;
    }
    LogId& operator=(LogId&& other) noexcept {
      if (this != &other) {
        value = other.value;
        other.value = next();
      }
      return *this;
    }
  };

  std::string site_;
  bool up_ = true;
  std::map<std::string, std::vector<Replica>> map_;
  std::vector<LfnChange> changes_;
  LogId log_id_;
};

/// Replica Location Index: LFN -> set of LRC sites, fed by soft-state.
class ReplicaLocationIndex {
 public:
  explicit ReplicaLocationIndex(std::string name) : name_{std::move(name)} {}

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Accept a digest from one LRC.  The result is that of a full-state
  /// digest -- the site's previous contribution is replaced by the LRC's
  /// current LFN set, all stamped `now` -- but the cost is O(membership
  /// changes since the site's last accepted digest): a registration of a
  /// new LFN is one O(log n) insert, a refresh of an unchanged LRC O(1).
  /// An LRC object not consumed before under its site name (a new
  /// catalog for a known site) replays its whole log after the site's old
  /// entries are dropped.  Entries expire after `ttl` without refresh.
  void update_from(const LocalReplicaCatalog& lrc, Time now);

  /// Sites whose LRC advertised the LFN at last refresh and whose entry
  /// has not expired.
  [[nodiscard]] std::vector<std::string> sites_with(const std::string& lfn,
                                                    Time now) const;

  /// O(1)-ish membership: did `site` advertise `lfn` and is the entry
  /// still fresh?  The allocation-free form of sites_with for callers
  /// that test one site (rank policies probing data locality).
  [[nodiscard]] bool knows(const std::string& lfn, const std::string& site,
                           Time now) const;

  [[nodiscard]] Time ttl() const { return ttl_; }
  void set_ttl(Time ttl) { ttl_ = ttl; }

  /// A down index answers nothing and drops incoming digests, leaving
  /// each site's log cursor where it was (soft state heals itself: the
  /// first digest after recovery applies every change since the site's
  /// last accepted one).
  void set_available(bool up) { up_ = up; }
  [[nodiscard]] bool available() const { return up_; }

  [[nodiscard]] std::size_t indexed_lfns() const { return index_.size(); }

 private:
  std::string name_;
  bool up_ = true;
  Time ttl_ = Time::minutes(30);
  // A full-state digest stamps every LFN of a site with the same time,
  // so freshness is one `refreshed` time per site.
  struct SiteDigest {
    std::string site;
    Time refreshed;
    std::uint64_t log_id = 0;  ///< the LRC whose log `cursor` points into
    std::size_t cursor = 0;    ///< log entries already applied
  };
  void apply(const LfnChange& change, std::uint32_t slot);

  std::vector<SiteDigest> digests_;                       // by slot
  std::unordered_map<std::string, std::uint32_t> slots_;  // site -> slot
  // lfn -> slots of the sites that advertised it at their last accepted
  // digest, in site-name order so sites_with returns name-sorted sites.
  // The outer index is unordered (hot lookups hash once).
  std::unordered_map<std::string, std::vector<std::uint32_t>> index_;
};

/// One logged registration intent.  Write-ahead: the entry exists
/// before the catalog write is attempted, so a crash/outage between the
/// two loses nothing.
struct JournalEntry {
  std::uint64_t id = 0;  ///< monotone log order
  std::string site;
  std::string lfn;
  Replica replica;
  Time logged;
  bool applied = false;  ///< reached the authoritative LRC
};

/// Per-VO write-ahead journal for replica registrations.  Append-only;
/// an entry is applied exactly once (immediately when the service is
/// up, or by replay on recovery).  The audit tap exposes every
/// transition to the model checker's journal invariant.
class RegistrationJournal {
 public:
  /// Fires per transition with event "log", "apply" (immediate path)
  /// or "replay" (recovery path).
  using AuditFn = std::function<void(const JournalEntry&, const char* event)>;
  void set_audit(AuditFn fn) { audit_ = std::move(fn); }

  JournalEntry& log(std::string site, std::string lfn, Replica replica,
                    Time now);
  /// Flip an entry to applied (must not already be; the invariant's
  /// exactly-once guarantee rests here).
  void mark_applied(JournalEntry& e, const char* event);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  /// Entries logged but not yet applied (a down target is holding them).
  [[nodiscard]] std::size_t pending() const {
    return entries_.size() - applied_count_;
  }
  /// Entries applied via the recovery path.
  [[nodiscard]] std::size_t replayed() const { return replayed_; }
  [[nodiscard]] const std::vector<JournalEntry>& entries() const {
    return entries_;
  }
  [[nodiscard]] std::vector<JournalEntry>& entries() { return entries_; }

 private:
  std::vector<JournalEntry> entries_;
  std::uint64_t next_id_ = 0;
  std::size_t applied_count_ = 0;
  std::size_t replayed_ = 0;
  AuditFn audit_;
};

/// Convenience façade binding LRCs and an RLI into one service endpoint,
/// as the VOs deployed it (one RLS per VO).
class ReplicaLocationService {
 public:
  explicit ReplicaLocationService(std::string vo)
      : vo_{std::move(vo)}, rli_{vo_ + "-rli"} {}

  [[nodiscard]] const std::string& vo() const { return vo_; }

  LocalReplicaCatalog& lrc_for(const std::string& site);
  [[nodiscard]] const LocalReplicaCatalog* find_lrc(
      const std::string& site) const;

  /// Register a replica and immediately refresh that LRC's digest (Grid3
  /// registration scripts did both in one step).  The intent is journaled
  /// first; when the endpoint or the target LRC is down the entry stays
  /// pending and replay() applies it on recovery.  With the journal
  /// disabled (the naive baseline) such registrations are simply lost
  /// and counted.
  void register_replica(const std::string& site, const std::string& lfn,
                        Replica replica, Time now);

  /// Query: all replicas of an LFN across sites the RLI knows about.
  /// During an RLI outage, degrades to a direct scan of the
  /// authoritative LRCs (slower in real life; never wrong).
  [[nodiscard]] std::vector<std::pair<std::string, Replica>> locate(
      const std::string& lfn, Time now) const;

  /// True iff locate(lfn, now) would list `site` -- the RLI entry is
  /// fresh AND the site's LRC still holds the mapping -- without
  /// materialising the replica list.
  [[nodiscard]] bool has_replica_at(const std::string& lfn,
                                    const std::string& site, Time now) const;

  /// Periodic soft-state refresh of every LRC digest.  Also drains the
  /// journal first, so the standard ops loop doubles as the recovery
  /// replay trigger.
  void refresh_all(Time now);

  /// Apply every pending journal entry whose target LRC is reachable.
  /// Exactly-once: applied entries are skipped; idempotent because
  /// LRC::add upserts by PFN.  Returns entries applied.
  std::size_t replay(Time now);

  /// Registration-endpoint availability (the write path; queries keep
  /// answering from the RLI/LRCs).  Down -> registrations journal.
  void set_available(bool up) { available_ = up; }
  [[nodiscard]] bool available() const { return available_; }

  /// False = the naive pre-journal baseline: registrations against a
  /// down endpoint/LRC are dropped and counted in lost_registrations().
  void set_journal_enabled(bool on) { journal_enabled_ = on; }
  [[nodiscard]] bool journal_enabled() const { return journal_enabled_; }
  [[nodiscard]] std::size_t lost_registrations() const {
    return lost_registrations_;
  }

  [[nodiscard]] RegistrationJournal& journal() { return journal_; }
  [[nodiscard]] const RegistrationJournal& journal() const { return journal_; }

  [[nodiscard]] ReplicaLocationIndex& rli() { return rli_; }
  [[nodiscard]] const ReplicaLocationIndex& rli() const { return rli_; }
  [[nodiscard]] std::size_t lrc_count() const { return lrcs_.size(); }

 private:
  void apply(JournalEntry& e, Time now, const char* event);

  std::string vo_;
  bool available_ = true;
  bool journal_enabled_ = true;
  std::size_t lost_registrations_ = 0;
  std::map<std::string, LocalReplicaCatalog> lrcs_;
  ReplicaLocationIndex rli_;
  RegistrationJournal journal_;
};

}  // namespace grid3::rls
