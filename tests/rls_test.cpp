// Unit tests for the replica location service: LRC, RLI soft-state,
// staleness windows, and delta digests checked against the
// wipe-and-rebuild index they replaced.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rls/rls.h"
#include "util/rng.h"

namespace grid3::rls {
namespace {

TEST(Lrc, AddLookupRemove) {
  LocalReplicaCatalog lrc{"BNL"};
  lrc.add("lfn1", {"gsiftp://BNL/lfn1", Bytes::gb(2), Time::zero()});
  lrc.add("lfn1", {"gsiftp://BNL/copy2", Bytes::gb(2), Time::zero()});
  EXPECT_TRUE(lrc.has("lfn1"));
  EXPECT_EQ(lrc.lookup("lfn1").size(), 2u);
  EXPECT_EQ(lrc.replica_count(), 2u);
  EXPECT_TRUE(lrc.remove("lfn1", "gsiftp://BNL/copy2"));
  EXPECT_EQ(lrc.lookup("lfn1").size(), 1u);
  EXPECT_EQ(lrc.remove_lfn("lfn1"), 1u);
  EXPECT_FALSE(lrc.has("lfn1"));
}

TEST(Lrc, DuplicatePfnUpdatesInPlace) {
  LocalReplicaCatalog lrc{"BNL"};
  lrc.add("lfn", {"pfn", Bytes::gb(1), Time::zero()});
  lrc.add("lfn", {"pfn", Bytes::gb(3), Time::seconds(5)});
  const auto replicas = lrc.lookup("lfn");
  ASSERT_EQ(replicas.size(), 1u);
  EXPECT_EQ(replicas[0].size, Bytes::gb(3));
}

TEST(Lrc, DownCatalogAnswersNothing) {
  LocalReplicaCatalog lrc{"BNL"};
  lrc.add("lfn", {"pfn", Bytes::gb(1), Time::zero()});
  lrc.set_available(false);
  EXPECT_FALSE(lrc.has("lfn"));
  EXPECT_TRUE(lrc.lookup("lfn").empty());
}

TEST(Rli, SoftStateExpiry) {
  LocalReplicaCatalog lrc{"BNL"};
  lrc.add("lfn", {"pfn", Bytes::gb(1), Time::zero()});
  ReplicaLocationIndex rli{"rli"};
  rli.set_ttl(Time::minutes(30));
  rli.update_from(lrc, Time::zero());
  EXPECT_EQ(rli.sites_with("lfn", Time::minutes(10)).size(), 1u);
  // Without refresh the entry lapses.
  EXPECT_TRUE(rli.sites_with("lfn", Time::hours(1)).empty());
  rli.update_from(lrc, Time::hours(1));
  EXPECT_EQ(rli.sites_with("lfn", Time::hours(1)).size(), 1u);
}

TEST(Rli, FullStateDigestDropsRemovedEntries) {
  LocalReplicaCatalog lrc{"BNL"};
  lrc.add("old", {"pfn", Bytes::gb(1), Time::zero()});
  ReplicaLocationIndex rli{"rli"};
  rli.update_from(lrc, Time::zero());
  lrc.remove_lfn("old");
  lrc.add("new", {"pfn2", Bytes::gb(1), Time::zero()});
  rli.update_from(lrc, Time::seconds(10));
  EXPECT_TRUE(rli.sites_with("old", Time::seconds(10)).empty());
  EXPECT_EQ(rli.sites_with("new", Time::seconds(10)).size(), 1u);
}

TEST(Rls, RegisterAndLocateAcrossSites) {
  ReplicaLocationService rls{"usatlas"};
  rls.register_replica("BNL", "dataset1",
                       {"gsiftp://BNL/d1", Bytes::gb(2), Time::zero()},
                       Time::zero());
  rls.register_replica("UC_ATLAS", "dataset1",
                       {"gsiftp://UC/d1", Bytes::gb(2), Time::zero()},
                       Time::zero());
  const auto located = rls.locate("dataset1", Time::minutes(1));
  EXPECT_EQ(located.size(), 2u);
  EXPECT_EQ(rls.lrc_count(), 2u);
  EXPECT_TRUE(rls.locate("missing", Time::zero()).empty());
}

TEST(Rls, StaleIndexHidesUnrefreshedSites) {
  ReplicaLocationService rls{"uscms"};
  rls.rli().set_ttl(Time::minutes(20));
  rls.register_replica("FNAL", "pileup",
                       {"gsiftp://FNAL/p", Bytes::gb(1), Time::zero()},
                       Time::zero());
  EXPECT_EQ(rls.locate("pileup", Time::minutes(10)).size(), 1u);
  EXPECT_TRUE(rls.locate("pileup", Time::hours(2)).empty());
  rls.refresh_all(Time::hours(2));
  EXPECT_EQ(rls.locate("pileup", Time::hours(2)).size(), 1u);
}

TEST(Rls, DownLrcSkippedOnRefresh) {
  ReplicaLocationService rls{"sdss"};
  rls.register_replica("JHU", "seg", {"pfn", Bytes::mb(500), Time::zero()},
                       Time::zero());
  rls.lrc_for("JHU").set_available(false);
  rls.refresh_all(Time::hours(1));
  // Refresh skipped the down LRC, so the RLI entry ages out...
  EXPECT_TRUE(rls.locate("seg", Time::hours(2)).empty());
  // ...until the catalog recovers and a later refresh re-advertises it.
  rls.lrc_for("JHU").set_available(true);
  rls.refresh_all(Time::hours(2));
  EXPECT_EQ(rls.locate("seg", Time::hours(2)).size(), 1u);
}

TEST(Rli, DigestLagServesPreUpdateSetThenConverges) {
  // Soft-state staleness: a replica added straight to an LRC is
  // invisible to the index until that LRC's next digest push.  Queries
  // in the lag window return the pre-update set -- never an error --
  // and converge after the push.
  ReplicaLocationService rls{"usatlas"};
  rls.register_replica("BNL", "aod",
                       {"gsiftp://BNL/aod", Bytes::gb(1), Time::zero()},
                       Time::zero());
  rls.lrc_for("UC").add("aod",
                        {"gsiftp://UC/aod", Bytes::gb(1), Time::minutes(5)});
  auto lagged = rls.locate("aod", Time::minutes(6));
  ASSERT_EQ(lagged.size(), 1u);
  EXPECT_EQ(lagged[0].first, "BNL");
  EXPECT_FALSE(rls.has_replica_at("aod", "UC", Time::minutes(6)));
  rls.refresh_all(Time::minutes(20));
  auto converged = rls.locate("aod", Time::minutes(21));
  ASSERT_EQ(converged.size(), 2u);
  EXPECT_EQ(converged[0].first, "BNL");
  EXPECT_EQ(converged[1].first, "UC");
  EXPECT_TRUE(rls.has_replica_at("aod", "UC", Time::minutes(21)));
}

TEST(Rls, RliOutageFallsBackToDirectLrcScan) {
  ReplicaLocationService rls{"usatlas"};
  rls.register_replica("BNL", "esd",
                       {"gsiftp://BNL/esd", Bytes::gb(2), Time::zero()},
                       Time::zero());
  rls.rli().set_available(false);
  // The index answers nothing itself...
  EXPECT_TRUE(rls.rli().sites_with("esd", Time::minutes(1)).empty());
  // ...but the facade degrades to the authoritative catalogs.
  auto located = rls.locate("esd", Time::minutes(1));
  ASSERT_EQ(located.size(), 1u);
  EXPECT_EQ(located[0].first, "BNL");
  EXPECT_TRUE(rls.has_replica_at("esd", "BNL", Time::minutes(1)));
  EXPECT_FALSE(rls.has_replica_at("esd", "UC", Time::minutes(1)));
}

TEST(Rls, JournalHoldsRegistrationsAcrossAnOutage) {
  ReplicaLocationService rls{"usatlas"};
  rls.set_available(false);
  rls.register_replica("BNL", "evgen",
                       {"gsiftp://BNL/evgen", Bytes::gb(1), Time::zero()},
                       Time::zero());
  rls.register_replica("UC", "evgen",
                       {"gsiftp://UC/evgen", Bytes::gb(1), Time::zero()},
                       Time::zero());
  // Intent logged, nothing applied, nothing lost.
  EXPECT_EQ(rls.journal().size(), 2u);
  EXPECT_EQ(rls.journal().pending(), 2u);
  EXPECT_EQ(rls.lost_registrations(), 0u);
  EXPECT_FALSE(rls.lrc_for("BNL").has("evgen"));
  // Recovery: the replay applies both, exactly once, and a second
  // replay finds nothing to do.
  rls.set_available(true);
  EXPECT_EQ(rls.replay(Time::minutes(30)), 2u);
  EXPECT_EQ(rls.journal().pending(), 0u);
  EXPECT_EQ(rls.journal().replayed(), 2u);
  EXPECT_EQ(rls.replay(Time::minutes(31)), 0u);
  EXPECT_EQ(rls.journal().replayed(), 2u);
  EXPECT_EQ(rls.locate("evgen", Time::minutes(31)).size(), 2u);
}

TEST(Rls, ReplaySkipsEntriesWhoseLrcIsStillDown) {
  ReplicaLocationService rls{"usatlas"};
  rls.lrc_for("IU").set_available(false);
  rls.set_available(false);
  rls.register_replica("BNL", "f1", {"p1", Bytes::mb(1), Time::zero()},
                       Time::zero());
  rls.register_replica("IU", "f2", {"p2", Bytes::mb(1), Time::zero()},
                       Time::zero());
  rls.set_available(true);
  // Only the reachable catalog drains; the IU entry stays pending.
  EXPECT_EQ(rls.replay(Time::minutes(5)), 1u);
  EXPECT_EQ(rls.journal().pending(), 1u);
  rls.lrc_for("IU").set_available(true);
  EXPECT_EQ(rls.replay(Time::minutes(10)), 1u);
  EXPECT_EQ(rls.journal().pending(), 0u);
  EXPECT_TRUE(rls.lrc_for("IU").has("f2"));
}

TEST(Rls, DownLrcJournalsEvenWithTheEndpointUp) {
  // The endpoint being reachable does not help when the target catalog
  // itself is down: the write-ahead entry still protects the intent.
  ReplicaLocationService rls{"usatlas"};
  rls.lrc_for("BNL").set_available(false);
  rls.register_replica("BNL", "hits", {"p", Bytes::mb(1), Time::zero()},
                       Time::zero());
  EXPECT_EQ(rls.journal().pending(), 1u);
  rls.lrc_for("BNL").set_available(true);
  // The periodic soft-state refresh doubles as the replay trigger.
  rls.refresh_all(Time::minutes(20));
  EXPECT_EQ(rls.journal().pending(), 0u);
  EXPECT_EQ(rls.locate("hits", Time::minutes(21)).size(), 1u);
}

TEST(Rls, NaiveModeDropsAndCountsLostRegistrations) {
  ReplicaLocationService rls{"usatlas"};
  rls.set_journal_enabled(false);
  rls.set_available(false);
  rls.register_replica("BNL", "raw", {"p", Bytes::gb(1), Time::zero()},
                       Time::zero());
  EXPECT_EQ(rls.lost_registrations(), 1u);
  EXPECT_EQ(rls.journal().size(), 0u);
  rls.set_available(true);
  rls.replay(Time::minutes(5));
  rls.refresh_all(Time::minutes(20));
  EXPECT_TRUE(rls.locate("raw", Time::minutes(21)).empty());
  // Up-path registrations still work without the journal.
  rls.register_replica("BNL", "raw2", {"p2", Bytes::gb(1), Time::zero()},
                       Time::minutes(25));
  EXPECT_EQ(rls.locate("raw2", Time::minutes(26)).size(), 1u);
}

TEST(Rls, JournalAuditSeesEveryTransitionExactlyOnce) {
  ReplicaLocationService rls{"usatlas"};
  std::vector<std::string> events;
  rls.journal().set_audit([&](const JournalEntry& e, const char* event) {
    events.push_back(std::string{event} + ":" + e.lfn);
  });
  rls.register_replica("BNL", "a", {"pa", Bytes::mb(1), Time::zero()},
                       Time::zero());
  rls.set_available(false);
  rls.register_replica("BNL", "b", {"pb", Bytes::mb(1), Time::zero()},
                       Time::zero());
  rls.set_available(true);
  rls.replay(Time::minutes(1));
  const std::vector<std::string> want{"log:a", "apply:a", "log:b", "replay:b"};
  EXPECT_EQ(events, want);
}

TEST(Rli, ChangesDuringAnOutageShowAtTheFirstDigestAfterRecovery) {
  LocalReplicaCatalog lrc{"BNL"};
  lrc.add("kept", {"p1", Bytes::gb(1), Time::zero()});
  lrc.add("gone", {"p2", Bytes::gb(1), Time::zero()});
  ReplicaLocationIndex rli{"rli"};
  rli.update_from(lrc, Time::zero());
  rli.set_available(false);
  lrc.add("new", {"p3", Bytes::gb(1), Time::minutes(5)});
  lrc.remove_lfn("gone");
  rli.update_from(lrc, Time::minutes(10));  // dropped
  rli.set_available(true);
  // The dropped digest changed nothing: the index still shows the
  // pre-outage state.
  EXPECT_TRUE(rli.sites_with("new", Time::minutes(11)).empty());
  EXPECT_EQ(rli.sites_with("gone", Time::minutes(11)).size(), 1u);
  rli.update_from(lrc, Time::minutes(20));
  const std::vector<std::string> bnl{"BNL"};
  EXPECT_EQ(rli.sites_with("new", Time::minutes(20)), bnl);
  EXPECT_EQ(rli.sites_with("kept", Time::minutes(20)), bnl);
  EXPECT_TRUE(rli.sites_with("gone", Time::minutes(20)).empty());
  EXPECT_EQ(rli.indexed_lfns(), 2u);
}

TEST(Rli, SecondPfnRestampsTheSiteWithoutChangingMembership) {
  LocalReplicaCatalog lrc{"BNL"};
  lrc.add("lfn", {"pfn1", Bytes::gb(1), Time::zero()});
  ReplicaLocationIndex rli{"rli"};
  rli.set_ttl(Time::minutes(30));
  rli.update_from(lrc, Time::zero());
  lrc.add("lfn", {"pfn2", Bytes::gb(1), Time::minutes(25)});
  EXPECT_EQ(lrc.changes().size(), 1u);  // membership did not change
  rli.update_from(lrc, Time::minutes(25));
  // Fresh at 50 min only because the second digest restamped the site.
  EXPECT_TRUE(rli.knows("lfn", "BNL", Time::minutes(50)));
  EXPECT_EQ(rli.sites_with("lfn", Time::minutes(50)).size(), 1u);
  EXPECT_EQ(rli.indexed_lfns(), 1u);
}

TEST(Rli, AgeEqualToTtlIsStillFresh) {
  LocalReplicaCatalog lrc{"BNL"};
  lrc.add("lfn", {"pfn", Bytes::gb(1), Time::zero()});
  ReplicaLocationIndex rli{"rli"};
  rli.set_ttl(Time::minutes(30));
  rli.update_from(lrc, Time::minutes(5));
  const Time edge = Time::minutes(35);
  EXPECT_TRUE(rli.knows("lfn", "BNL", edge));
  EXPECT_EQ(rli.sites_with("lfn", edge).size(), 1u);
  EXPECT_FALSE(rli.knows("lfn", "BNL", edge + Time::micros(1)));
  EXPECT_TRUE(rli.sites_with("lfn", edge + Time::micros(1)).empty());
}

TEST(Rli, CopiedCatalogDigestsAsItsOwnFullState) {
  LocalReplicaCatalog lrc{"BNL"};
  lrc.add("a", {"pa", Bytes::gb(1), Time::zero()});
  lrc.add("b", {"pb", Bytes::gb(1), Time::zero()});
  ReplicaLocationIndex rli{"rli"};
  rli.update_from(lrc, Time::zero());
  LocalReplicaCatalog copy = lrc;  // same log so far, diverging from here
  EXPECT_NE(copy.log_id(), lrc.log_id());
  copy.remove_lfn("a");
  lrc.add("c", {"pc", Bytes::gb(1), Time::zero()});
  rli.update_from(copy, Time::minutes(1));
  EXPECT_TRUE(rli.sites_with("a", Time::minutes(1)).empty());
  EXPECT_TRUE(rli.sites_with("c", Time::minutes(1)).empty());
  EXPECT_EQ(rli.indexed_lfns(), 1u);
  rli.update_from(lrc, Time::minutes(2));
  EXPECT_EQ(rli.sites_with("a", Time::minutes(2)).size(), 1u);
  EXPECT_EQ(rli.sites_with("c", Time::minutes(2)).size(), 1u);
  EXPECT_EQ(rli.indexed_lfns(), 3u);
}

// ---------------------------------------------------------------------
// Differential property: the delta-digest index answers exactly as the
// wipe-and-rebuild index it replaced, after every step of a seeded
// random sequence of catalog edits, digests, outages, TTL changes and
// fresh catalogs under known site names.
// ---------------------------------------------------------------------

/// Reference model: every accepted digest erases the site from every
/// LFN, then stamps each LFN the catalog holds with the digest time.
class RebuildIndex {
 public:
  void update_from(const LocalReplicaCatalog& lrc,
                   const std::vector<std::string>& universe, Time now) {
    if (!up) return;
    for (auto it = index_.begin(); it != index_.end();) {
      it->second.erase(lrc.site());
      it = it->second.empty() ? index_.erase(it) : std::next(it);
    }
    for (const std::string& lfn : universe) {
      if (lrc.has(lfn)) index_[lfn][lrc.site()] = now;
    }
    refreshed_[lrc.site()] = now;
  }
  [[nodiscard]] std::vector<std::string> sites_with(const std::string& lfn,
                                                    Time now) const {
    std::vector<std::string> out;
    if (!up) return out;
    auto it = index_.find(lfn);
    if (it == index_.end()) return out;
    for (const auto& [site, t] : it->second) {
      if (now - t <= ttl) out.push_back(site);
    }
    return out;
  }
  [[nodiscard]] bool knows(const std::string& lfn, const std::string& site,
                           Time now) const {
    if (!up) return false;
    auto it = index_.find(lfn);
    if (it == index_.end()) return false;
    auto jt = it->second.find(site);
    return jt != it->second.end() && now - jt->second <= ttl;
  }
  [[nodiscard]] std::size_t indexed_lfns() const { return index_.size(); }
  /// Last accepted digest time per site (query times probe its ttl edge).
  [[nodiscard]] const std::map<std::string, Time>& refreshed() const {
    return refreshed_;
  }

  bool up = true;
  Time ttl = Time::minutes(30);

 private:
  std::map<std::string, std::map<std::string, Time>> index_;
  std::map<std::string, Time> refreshed_;
};

class RliDeltaDigest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RliDeltaDigest, MatchesWipeAndRebuildAfterEveryStep) {
  util::Rng rng{GetParam()};
  const std::vector<std::string> sites{"BNL", "FNAL", "UC"};
  std::vector<std::string> universe;
  for (int i = 0; i < 24; ++i) universe.push_back("lfn" + std::to_string(i));
  std::map<std::string, std::unique_ptr<LocalReplicaCatalog>> lrcs;
  for (const std::string& site : sites) {
    lrcs[site] = std::make_unique<LocalReplicaCatalog>(site);
  }
  ReplicaLocationIndex rli{"rli"};
  RebuildIndex ref;
  Time now = Time::zero();
  int new_lfns = 0, second_pfns = 0, removed_last = 0, removed_lfns = 0,
      dropped_digests = 0, fresh_digests = 0;
  std::map<std::string, bool> fresh_since_digest;

  auto check = [&](int step) -> ::testing::AssertionResult {
    std::vector<Time> queries{now};
    for (const auto& [site, t] : ref.refreshed()) {
      for (const Time q : {t + ref.ttl - Time::micros(1), t + ref.ttl,
                           t + ref.ttl + Time::micros(1)}) {
        queries.push_back(q);
      }
    }
    if (rli.indexed_lfns() != ref.indexed_lfns()) {
      return ::testing::AssertionFailure()
             << "step " << step << ": indexed_lfns " << rli.indexed_lfns()
             << " vs " << ref.indexed_lfns();
    }
    for (const Time q : queries) {
      for (const std::string& lfn : universe) {
        if (rli.sites_with(lfn, q) != ref.sites_with(lfn, q)) {
          return ::testing::AssertionFailure()
                 << "step " << step << ": sites_with(" << lfn << ", "
                 << q.ticks() << ")";
        }
        for (const std::string& site : sites) {
          if (rli.knows(lfn, site, q) != ref.knows(lfn, site, q)) {
            return ::testing::AssertionFailure()
                   << "step " << step << ": knows(" << lfn << ", " << site
                   << ", " << q.ticks() << ")";
          }
        }
      }
    }
    return ::testing::AssertionSuccess();
  };
  auto digest = [&](const std::string& site) {
    if (!rli.available()) ++dropped_digests;
    if (rli.available() && fresh_since_digest[site]) {
      ++fresh_digests;
      fresh_since_digest[site] = false;
    }
    rli.update_from(*lrcs[site], now);
    ref.update_from(*lrcs[site], universe, now);
  };

  for (int step = 0; step < 800; ++step) {
    const std::string& site = sites[rng.index(sites.size())];
    LocalReplicaCatalog& lrc = *lrcs[site];
    const std::string& lfn = universe[rng.index(universe.size())];
    switch (rng.index(10)) {
      case 0:
      case 1: {  // new LFN, second PFN, or an upsert of a known PFN
        const std::size_t before = lrc.lookup(lfn).size();
        lrc.add(lfn, {site + "/" + lfn + "/" + std::to_string(rng.index(3)),
                      Bytes::mb(1), now});
        if (before == 0) ++new_lfns;
        if (before > 0 && lrc.lookup(lfn).size() > before) ++second_pfns;
        break;
      }
      case 2: {  // drop one PFN, possibly the last
        const auto replicas = lrc.lookup(lfn);
        if (replicas.empty()) break;
        lrc.remove(lfn, replicas[rng.index(replicas.size())].pfn);
        if (replicas.size() == 1) ++removed_last;
        break;
      }
      case 3:
        if (lrc.remove_lfn(lfn) > 0) ++removed_lfns;
        break;
      case 4:
      case 5:  // digest at a non-decreasing time, often the same instant
        if (rng.chance(0.6)) now += Time::minutes(rng.uniform(0.0, 25.0));
        digest(site);
        break;
      case 6:
        rli.set_available(!rli.available());
        ref.up = rli.available();
        break;
      case 7: {
        const Time ttl = Time::minutes(10.0 * (1 + rng.index(4)));
        rli.set_ttl(ttl);
        ref.ttl = ttl;
        break;
      }
      case 8: {  // a fresh catalog object under an already-used site name
        if (!rng.chance(0.3)) break;
        auto fresh = std::make_unique<LocalReplicaCatalog>(site);
        for (std::size_t i = rng.index(5); i > 0; --i) {
          const std::string& f = universe[rng.index(universe.size())];
          fresh->add(f, {site + "/" + f + "/0", Bytes::mb(1), now});
        }
        lrcs[site] = std::move(fresh);
        fresh_since_digest[site] = true;
        if (rng.chance(0.5)) digest(site);
        break;
      }
      case 9:
        now += Time::minutes(rng.uniform(0.0, 40.0));
        break;
    }
    ASSERT_TRUE(check(step));
  }
  // Every kind of step actually happened.
  EXPECT_GT(new_lfns, 0);
  EXPECT_GT(second_pfns, 0);
  EXPECT_GT(removed_last, 0);
  EXPECT_GT(removed_lfns, 0);
  EXPECT_GT(dropped_digests, 0);
  EXPECT_GT(fresh_digests, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RliDeltaDigest,
                         ::testing::Values(41u, 42u, 43u, 44u));

}  // namespace
}  // namespace grid3::rls
