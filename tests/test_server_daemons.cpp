// Tests for the daemon state machines (feeder, transitioner, validator,
// assimilator) driven directly against a database — no network involved.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/rng.h"
#include "db/database.h"
#include "server/assimilator.h"
#include "server/config.h"
#include "server/feeder.h"
#include "server/transitioner.h"
#include "server/validator.h"

namespace vcmr::server {
namespace {

// Both recovery mechanisms default off (golden traces stay identical).
TEST(Config, RecoverySwitchesDefaultOff) {
  EXPECT_FALSE(ProjectConfig{}.resend_lost_results);
  EXPECT_FALSE(ProjectConfig{}.report_fetch_failures);
}

struct DaemonFixture {
  db::Database db;
  ProjectConfig cfg;
  WorkUnitId wu;

  DaemonFixture() {
    // The validator credits hosts by id; register enough of them.
    for (int i = 0; i < 40; ++i) db.create_host(db::HostRecord{});
    const db::AppRecord& app = db.create_app("word_count");
    db::WorkUnitRecord wp;
    wp.name = "wu0";
    wp.app = app.id;
    wp.target_nresults = 2;
    wp.min_quorum = 2;
    wp.max_error_results = 3;
    wp.max_total_results = 6;
    wp.delay_bound = SimTime::hours(1);
    wu = db.create_workunit(wp).id;
  }

  std::vector<db::ResultRecord*> results() {
    std::vector<db::ResultRecord*> out;
    for (const ResultId rid : db.results_of(wu)) out.push_back(&db.result(rid));
    return out;
  }

  void report(db::ResultRecord& r, HostId host, const common::Digest128& digest,
              bool success = true) {
    db.set_server_state(r.id, db::ServerState::kOver);
    r.outcome = success ? db::Outcome::kSuccess : db::Outcome::kClientError;
    r.host = host;
    r.output_digest = digest;
    db.flag_transition(wu);
  }

  void send(db::ResultRecord& r, HostId host, SimTime deadline) {
    db.set_server_state(r.id, db::ServerState::kInProgress);
    r.host = host;
    r.report_deadline = deadline;
  }
};

TEST(Transitioner, CreatesReplicas) {
  DaemonFixture f;
  Transitioner tr(f.db, f.cfg);
  EXPECT_EQ(tr.pass(SimTime::zero()), 2);  // rows touched: two created
  EXPECT_EQ(f.db.results_of(f.wu).size(), 2u);  // target_nresults
  for (auto* r : f.results()) {
    EXPECT_EQ(r->server_state, db::ServerState::kUnsent);
  }
  // Idempotent when nothing changed.
  f.db.flag_transition(f.wu);
  EXPECT_EQ(tr.pass(SimTime::zero()), 0);
  EXPECT_EQ(f.db.results_of(f.wu).size(), 2u);
}

TEST(Transitioner, TimesOutOverdueResults) {
  DaemonFixture f;
  Transitioner tr(f.db, f.cfg);
  tr.pass(SimTime::zero());
  auto rs = f.results();
  f.send(*rs[0], HostId{1}, SimTime::seconds(100));
  // Rows touched: the timed-out result and its replacement.
  EXPECT_EQ(tr.pass(SimTime::seconds(101)), 2);
  EXPECT_EQ(rs[0]->outcome, db::Outcome::kNoReply);
  // A replacement result was created to keep 2 usable instances.
  EXPECT_EQ(f.db.results_of(f.wu).size(), 3u);
}

TEST(Transitioner, ReplacesErroredResults) {
  DaemonFixture f;
  Transitioner tr(f.db, f.cfg);
  tr.pass(SimTime::zero());
  auto rs = f.results();
  f.report(*rs[0], HostId{1}, {}, /*success=*/false);
  tr.pass(SimTime::seconds(1));
  EXPECT_EQ(f.db.results_of(f.wu).size(), 3u);
}

TEST(Transitioner, ErrorMassAbandonsWorkUnit) {
  DaemonFixture f;
  Transitioner tr(f.db, f.cfg);
  bool errored = false;
  tr.set_error_listener([&](WorkUnitId) { errored = true; });
  tr.pass(SimTime::zero());
  // Fail results repeatedly until max_error_results (3) is hit.
  for (int round = 0; round < 4 && !f.db.workunit(f.wu).error_mass; ++round) {
    for (auto* r : f.results()) {
      if (r->server_state == db::ServerState::kUnsent) {
        f.report(*r, HostId{round * 10 + 1}, {}, false);
      }
    }
    tr.pass(SimTime::seconds(round + 1));
  }
  EXPECT_TRUE(f.db.workunit(f.wu).error_mass);
  EXPECT_TRUE(errored);
  // No unsent results left dangling.
  for (auto* r : f.results()) {
    EXPECT_NE(r->server_state, db::ServerState::kUnsent);
  }
}

TEST(Transitioner, QuorumReachedThenStragglerTimesOut) {
  // Regression: a straggler blowing the error budget *after* the work unit
  // validated must not push it into error_mass — canonical_found wins.
  DaemonFixture f;
  db::WorkUnitRecord& wu = f.db.workunit(f.wu);
  wu.target_nresults = 3;
  wu.max_error_results = 1;  // a single timeout would trip the error cut
  Transitioner tr(f.db, f.cfg);
  bool errored = false;
  tr.set_error_listener([&](WorkUnitId) { errored = true; });
  tr.pass(SimTime::zero());
  auto rs = f.results();
  ASSERT_EQ(rs.size(), 3u);
  // Two matching replicas reach quorum and validate.
  f.report(*rs[0], HostId{1}, {});
  f.report(*rs[1], HostId{2}, {});
  rs[0]->validate_state = db::ValidateState::kValid;
  rs[1]->validate_state = db::ValidateState::kValid;
  wu.canonical_found = true;
  wu.canonical_result = rs[0]->id;
  // The third replica is still out on a slow host and misses its deadline.
  f.send(*rs[2], HostId{3}, SimTime::seconds(100));
  tr.pass(SimTime::seconds(101));
  EXPECT_EQ(rs[2]->outcome, db::Outcome::kNoReply);
  EXPECT_FALSE(f.db.workunit(f.wu).error_mass);
  EXPECT_FALSE(errored);
  // And no replacement replica is minted for a finished work unit.
  EXPECT_EQ(f.db.results_of(f.wu).size(), 3u);
}

TEST(Validator, QuorumOfTwoValidates) {
  DaemonFixture f;
  Transitioner tr(f.db, f.cfg);
  tr.pass(SimTime::zero());
  auto rs = f.results();
  const auto digest = common::Hasher::of("answer");
  f.report(*rs[0], HostId{1}, digest);
  f.report(*rs[1], HostId{2}, digest);

  Validator v(f.db, f.cfg);
  WorkUnitId validated = WorkUnitId::invalid();
  v.set_validated_listener([&](WorkUnitId w) { validated = w; });
  EXPECT_EQ(v.pass(), 2);  // both replicas judged

  const db::WorkUnitRecord& wu = f.db.workunit(f.wu);
  EXPECT_TRUE(wu.canonical_found);
  EXPECT_EQ(wu.canonical_digest, digest);
  EXPECT_EQ(wu.assimilate_state, db::AssimilateState::kReady);
  EXPECT_EQ(validated, f.wu);
  EXPECT_EQ(rs[0]->validate_state, db::ValidateState::kValid);
  EXPECT_EQ(rs[1]->validate_state, db::ValidateState::kValid);
}

TEST(Validator, DisagreementSpawnsTieBreaker) {
  DaemonFixture f;
  Transitioner tr(f.db, f.cfg);
  tr.pass(SimTime::zero());
  auto rs = f.results();
  f.report(*rs[0], HostId{1}, common::Hasher::of("honest"));
  f.report(*rs[1], HostId{2}, common::Hasher::of("corrupt"));

  Validator v(f.db, f.cfg);
  EXPECT_EQ(v.pass(), 1);  // one inconclusive check
  EXPECT_FALSE(f.db.workunit(f.wu).canonical_found);

  // The transitioner then creates a tie-breaking third replica.
  tr.pass(SimTime::seconds(2));
  EXPECT_EQ(f.db.results_of(f.wu).size(), 3u);

  // Third honest result resolves the quorum; the corrupt one is invalid.
  auto rs2 = f.results();
  f.report(*rs2[2], HostId{3}, common::Hasher::of("honest"));
  v.pass();
  EXPECT_TRUE(f.db.workunit(f.wu).canonical_found);
  EXPECT_EQ(rs2[1]->validate_state, db::ValidateState::kInvalid);
  EXPECT_EQ(rs2[1]->outcome, db::Outcome::kValidateError);
  EXPECT_EQ(rs2[0]->validate_state, db::ValidateState::kValid);
}

TEST(Validator, CreditGrantIsQuorumMinimum) {
  DaemonFixture f;
  Transitioner tr(f.db, f.cfg);
  tr.pass(SimTime::zero());
  auto rs = f.results();
  const auto digest = common::Hasher::of("answer");
  // Host 2 inflates its claim 10x; the grant is clipped to the honest one.
  f.report(*rs[0], HostId{1}, digest);
  rs[0]->claimed_credit = 5.0;
  f.report(*rs[1], HostId{2}, digest);
  rs[1]->claimed_credit = 50.0;

  Validator v(f.db, f.cfg);
  v.pass();
  EXPECT_DOUBLE_EQ(rs[0]->granted_credit, 5.0);
  EXPECT_DOUBLE_EQ(rs[1]->granted_credit, 5.0);
  EXPECT_DOUBLE_EQ(f.db.host(HostId{1}).total_credit, 5.0);
  EXPECT_DOUBLE_EQ(f.db.host(HostId{2}).total_credit, 5.0);
}

TEST(Validator, InvalidResultsEarnNothing) {
  DaemonFixture f;
  Transitioner tr(f.db, f.cfg);
  tr.pass(SimTime::zero());
  auto rs = f.results();
  f.report(*rs[0], HostId{1}, common::Hasher::of("honest"));
  rs[0]->claimed_credit = 3.0;
  f.report(*rs[1], HostId{2}, common::Hasher::of("corrupt"));
  rs[1]->claimed_credit = 3.0;
  tr.pass(SimTime::seconds(1));
  Validator v(f.db, f.cfg);
  v.pass();
  tr.pass(SimTime::seconds(2));
  auto rs2 = f.results();
  ASSERT_EQ(rs2.size(), 3u);
  f.report(*rs2[2], HostId{3}, common::Hasher::of("honest"));
  rs2[2]->claimed_credit = 3.0;
  v.pass();
  EXPECT_DOUBLE_EQ(f.db.host(HostId{1}).total_credit, 3.0);
  EXPECT_DOUBLE_EQ(f.db.host(HostId{2}).total_credit, 0.0);  // invalid replica
  EXPECT_DOUBLE_EQ(f.db.host(HostId{3}).total_credit, 3.0);
}

TEST(Validator, CanonicalIsLowestAgreeingId) {
  DaemonFixture f;
  Transitioner tr(f.db, f.cfg);
  tr.pass(SimTime::zero());
  auto rs = f.results();
  const auto digest = common::Hasher::of("d");
  f.report(*rs[0], HostId{1}, digest);
  f.report(*rs[1], HostId{2}, digest);
  Validator v(f.db, f.cfg);
  v.pass();
  EXPECT_EQ(f.db.workunit(f.wu).canonical_result, rs[0]->id);
}

TEST(Assimilator, MarksReadyDoneAndNotifies) {
  DaemonFixture f;
  f.db.workunit(f.wu).assimilate_state = db::AssimilateState::kReady;
  Assimilator a(f.db);
  WorkUnitId got = WorkUnitId::invalid();
  a.set_assimilated_listener([&](WorkUnitId w) { got = w; });
  EXPECT_EQ(a.pass(), 1);
  EXPECT_EQ(f.db.workunit(f.wu).assimilate_state, db::AssimilateState::kDone);
  EXPECT_EQ(got, f.wu);
  EXPECT_EQ(a.pass(), 0);  // no double assimilation
}

TEST(Feeder, CachesUnsentAndEvictsStale) {
  DaemonFixture f;
  Transitioner tr(f.db, f.cfg);
  tr.pass(SimTime::zero());
  Feeder feeder(f.db, 10);
  feeder.refill();
  EXPECT_EQ(feeder.cache().size(), 2u);

  // Assigning one makes it stale; the next refill evicts it.
  auto rs = f.results();
  f.db.set_server_state(rs[0]->id, db::ServerState::kInProgress);
  feeder.refill();
  EXPECT_EQ(feeder.cache().size(), 1u);
  EXPECT_EQ(feeder.cache()[0], rs[1]->id);

  feeder.remove(rs[1]->id);
  EXPECT_TRUE(feeder.cache().empty());
}

TEST(Feeder, RespectsCapacity) {
  db::Database db;
  const db::AppRecord& app = db.create_app("a");
  for (int i = 0; i < 20; ++i) {
    db::WorkUnitRecord wp;
    wp.name = "wu" + std::to_string(i);
    wp.app = app.id;
    const db::WorkUnitRecord& wu = db.create_workunit(wp);
    db::ResultRecord rp;
    rp.wu = wu.id;
    rp.server_state = db::ServerState::kUnsent;
    db.create_result(rp);
  }
  Feeder feeder(db, 5);
  feeder.refill();
  EXPECT_EQ(feeder.cache().size(), 5u);
}

namespace {

/// Two jobs' worth of unsent results: job A's 8 all have lower result ids
/// than job B's 4, so a pure id-order cache fills up with A alone.
db::Database two_job_db() {
  db::Database db;
  const db::AppRecord& app = db.create_app("a");
  const auto add = [&](MrJobId job, int count, const std::string& prefix) {
    for (int i = 0; i < count; ++i) {
      db::WorkUnitRecord wp;
      wp.name = prefix + std::to_string(i);
      wp.app = app.id;
      wp.mr_job = job;
      const db::WorkUnitRecord& wu = db.create_workunit(wp);
      db::ResultRecord rp;
      rp.wu = wu.id;
      rp.server_state = db::ServerState::kUnsent;
      db.create_result(rp);
    }
  };
  add(MrJobId{1}, 8, "jobA_wu");
  add(MrJobId{2}, 4, "jobB_wu");
  return db;
}

int cached_for_job(const db::Database& db, const Feeder& feeder, MrJobId job) {
  int n = 0;
  for (const ResultId id : feeder.cache()) {
    if (db.workunit(db.result(id).wu).mr_job == job) ++n;
  }
  return n;
}

}  // namespace

// Regression for the cross-job starvation bug: with the cache smaller than
// job A's backlog, global id-order feeding never cached a single job-B
// result until A drained completely.
TEST(Feeder, FairShareInterleavesJobs) {
  db::Database db = two_job_db();
  Feeder feeder(db, 4);

  // Every pass gives both jobs cache slots until B's backlog drains; the
  // scheduler scans the cache in order, so B makes progress every drain.
  for (int pass = 0; pass < 2; ++pass) {
    feeder.refill();
    ASSERT_EQ(feeder.cache().size(), 4u);
    EXPECT_EQ(cached_for_job(db, feeder, MrJobId{1}), 2) << "pass " << pass;
    EXPECT_EQ(cached_for_job(db, feeder, MrJobId{2}), 2) << "pass " << pass;
    for (const ResultId id : feeder.cache()) {
      db.set_server_state(id, db::ServerState::kInProgress);
    }
  }
  // B exhausted: the remaining capacity goes back to A.
  feeder.refill();
  ASSERT_EQ(feeder.cache().size(), 4u);
  EXPECT_EQ(cached_for_job(db, feeder, MrJobId{1}), 4);
}

// With a single job in the system fair-share must degenerate to exactly the
// global id order of the ready queue (golden traces depend on it).
TEST(Feeder, FairShareSingleJobKeepsIdOrder) {
  db::Database db;
  const db::AppRecord& app = db.create_app("a");
  for (int i = 0; i < 6; ++i) {
    db::WorkUnitRecord wp;
    wp.name = "wu" + std::to_string(i);
    wp.app = app.id;
    wp.mr_job = MrJobId{1};
    const db::WorkUnitRecord& wu = db.create_workunit(wp);
    db::ResultRecord rp;
    rp.wu = wu.id;
    rp.server_state = db::ServerState::kUnsent;
    db.create_result(rp);
  }
  Feeder fair(db, 6);
  fair.refill();
  ASSERT_EQ(db.unsent_bulk_by_job().size(), 1u);
  const std::set<ResultId>& ready = db.unsent_bulk_by_job().at(MrJobId{1});
  EXPECT_EQ(fair.cache(), std::vector<ResultId>(ready.begin(), ready.end()));
}

namespace {

/// The historical full-table-scan refill, kept verbatim as an executable
/// spec: the indexed Feeder must produce the same cache contents, order,
/// and touched count on every pass of any schedule.
class ReferenceFeeder {
 public:
  ReferenceFeeder(db::Database& db, int cache_size)
      : db_(db), cache_size_(cache_size) {}

  int refill() {
    const std::size_t before = cache_.size();
    std::erase_if(cache_, [this](ResultId id) {
      return db_.result(id).server_state != db::ServerState::kUnsent;
    });
    int touched = static_cast<int>(before - cache_.size());
    const auto audit = [this](ResultId id) {
      return db_.workunit(db_.result(id).wu).audit;
    };
    const std::size_t cap = static_cast<std::size_t>(cache_size_);
    if (cache_.size() < cap) {
      std::vector<ResultId> unsent;
      db_.for_each_result([&](const db::ResultRecord& r) {
        if (r.server_state == db::ServerState::kUnsent) unsent.push_back(r.id);
      });
      const auto bulk =
          std::stable_partition(unsent.begin(), unsent.end(), audit);
      std::map<MrJobId, std::vector<ResultId>> by_job;
      for (auto it = bulk; it != unsent.end(); ++it) {
        by_job[db_.workunit(db_.result(*it).wu).mr_job].push_back(*it);
      }
      auto out = bulk;
      for (std::size_t round = 0; out != unsent.end(); ++round) {
        for (const auto& [job, ids] : by_job) {
          if (round < ids.size()) *out++ = ids[round];
        }
      }
      for (const ResultId id : unsent) {
        if (cache_.size() >= cap) break;
        if (std::find(cache_.begin(), cache_.end(), id) == cache_.end()) {
          cache_.push_back(id);
          ++touched;
        }
      }
    }
    std::stable_partition(cache_.begin(), cache_.end(), audit);
    return touched;
  }

  void remove(ResultId id) {
    cache_.erase(std::remove(cache_.begin(), cache_.end(), id), cache_.end());
  }

  const std::vector<ResultId>& cache() const { return cache_; }

 private:
  db::Database& db_;
  int cache_size_;
  std::vector<ResultId> cache_;
};

/// Drive the indexed feeder and the full-scan reference through the same
/// randomized schedule of state transitions, audit flips, new results, and
/// scheduler takes, asserting identical cache vectors and touched counts
/// after every pass.
void run_feeder_equivalence(std::uint64_t seed) {
  common::Rng rng(seed);
  db::Database db;
  const db::AppRecord& app = db.create_app("a");
  std::vector<WorkUnitId> wus;
  std::vector<ResultId> all;
  const auto add_result = [&](MrJobId job, bool audit) {
    db::WorkUnitRecord wp;
    wp.name = "wu" + std::to_string(wus.size());
    wp.app = app.id;
    wp.mr_job = job;
    wp.audit = audit;
    const db::WorkUnitRecord& wu = db.create_workunit(wp);
    wus.push_back(wu.id);
    db::ResultRecord rp;
    rp.wu = wu.id;
    rp.server_state = db::ServerState::kUnsent;
    all.push_back(db.create_result(rp).id);
  };
  for (int i = 0; i < 30; ++i) {
    add_result(MrJobId{rng.uniform_int(1, 3)}, rng.chance(0.2));
  }

  Feeder feeder(db, 8);
  ReferenceFeeder ref(db, 8);
  for (int round = 0; round < 12; ++round) {
    // Mutate: some results change state, some audits flip, some arrive.
    for (const ResultId id : all) {
      if (rng.chance(0.15)) {
        const auto next = rng.chance(0.5) ? db::ServerState::kInProgress
                                          : db::ServerState::kOver;
        db.set_server_state(id, next);
      } else if (rng.chance(0.1)) {
        db.set_server_state(id, db::ServerState::kUnsent);
      }
    }
    if (rng.chance(0.5)) {
      const WorkUnitId wid =
          wus[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(wus.size()) - 1))];
      db.set_workunit_audit(wid, !db.workunit(wid).audit);
    }
    if (rng.chance(0.6)) {
      add_result(MrJobId{rng.uniform_int(1, 3)}, rng.chance(0.2));
    }

    const int touched_feeder = feeder.refill();
    const int touched_ref = ref.refill();
    ASSERT_EQ(feeder.cache(), ref.cache())
        << "seed " << seed << " round " << round;
    EXPECT_EQ(touched_feeder, touched_ref)
        << "seed " << seed << " round " << round;

    // Scheduler takes a couple of entries out of both caches.
    for (int k = 0; k < 2 && !feeder.cache().empty(); ++k) {
      const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(feeder.cache().size()) - 1));
      const ResultId id = feeder.cache()[pick];
      db.set_server_state(id, db::ServerState::kInProgress);
      feeder.remove(id);
      ref.remove(id);
      ASSERT_EQ(feeder.cache(), ref.cache())
          << "seed " << seed << " round " << round << " after remove";
    }
  }
}

}  // namespace

TEST(Feeder, IndexedRefillMatchesFullScanReferenceFairShare) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) run_feeder_equivalence(seed);
}

// Audit results jump both the top-up order and the cache scan order, even
// when bulk work from lower ids would otherwise fill every slot.
TEST(Feeder, AuditResultsJumpTheLine) {
  db::Database db = two_job_db();
  // Flag job B's first work unit (higher result id than all of job A's)
  // for audit; it must surface at the cache head, not wait out A's backlog.
  std::vector<WorkUnitId> audit_wus;
  db.for_each_workunit([&](const db::WorkUnitRecord& wu) {
    if (wu.mr_job == MrJobId{2} && audit_wus.empty()) {
      audit_wus.push_back(wu.id);
    }
  });
  ASSERT_EQ(audit_wus.size(), 1u);
  db.set_workunit_audit(audit_wus[0], true);

  Feeder feeder(db, 4);
  feeder.refill();
  ASSERT_EQ(feeder.cache().size(), 4u);
  EXPECT_EQ(db.result(feeder.cache()[0]).wu, audit_wus[0]);
}

}  // namespace
}  // namespace vcmr::server
