#include "server/scheduler.h"

#include <algorithm>

#include "common/bloom.h"
#include "common/error.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "sim/trace.h"

namespace vcmr::server {

namespace {
common::Logger log_("scheduler");

obs::Counter& sched_counter(const char* name) {
  return obs::MetricsRegistry::instance().counter("scheduler", name);
}

/// A point on the "scheduler" track, when the run records a trace.
void trace_point(const sim::Simulation& sim, const char* label,
                 const std::string& detail) {
  if (auto* trace = sim.trace()) {
    trace->point(sim.now(), "scheduler", "scheduler", label, detail);
  }
}

/// Registry counter per Deferral reason, in enum order.
constexpr const char* kDeferralCounters[] = {"trust_skips", "store_gate_skips",
                                             "locality_skips"};

/// Simulated CPU time the scheduler spends on one RPC.
constexpr SimTime kRpcServiceTime = SimTime::millis(200);
/// Minimum delay a client must leave between scheduler RPCs
/// (BOINC's min_sendwork_interval).
constexpr SimTime kMinRequestDelay = SimTime::seconds(6);
/// Max results handed out in a single RPC.
constexpr int kMaxResultsPerRpc = 8;
/// Max cacher endpoints attached per input file (E15).
constexpr int kMaxInputPeers = 3;
/// Deferrals before a locality-held reduce result (E14) is released to any
/// host, so locality never starves work.
constexpr int kLocalityMaxSkips = 3;
}

Scheduler::Scheduler(sim::Simulation& sim, db::Database& db, Feeder& feeder,
                     JobTracker& jobtracker, const ProjectConfig& cfg,
                     net::HttpService& http, net::Endpoint ep,
                     rep::AdaptiveReplicationPolicy* policy)
    : sim_(sim),
      db_(db),
      feeder_(feeder),
      jobtracker_(jobtracker),
      cfg_(cfg),
      http_(http),
      ep_(ep),
      policy_(policy) {
  http_.listen(ep_, [this](net::HttpRequest req,
                           net::HttpRespondFn respond) {
    if (down_) {
      // Crashed server: the web tier answers but no CGI runs. Clients see
      // a failed RPC and retry under their usual backoff.
      respond(net::HttpResponse{503, 0, {}});
      return;
    }
    auto* payload = std::any_cast<proto::SchedulerRequest>(&req.body);
    require(payload != nullptr,
            "Scheduler: request carries no SchedulerRequest payload");
    // Take the request off the wire, then model the CGI's processing time
    // before the reply is produced.
    sched_counter("wire_bytes_in").add(req.body_size);
    sim_.after(kRpcServiceTime,
               [this, request = std::move(*payload),
                respond = std::move(respond)] {
                 if (down_) {
                   // Crashed mid-service: the request dies with the CGI.
                   respond(net::HttpResponse{503, 0, {}});
                   return;
                 }
                 proto::SchedulerReply reply = process(request);
                 net::HttpResponse resp;
                 resp.body_size = proto::wire_size(reply);
                 resp.body = std::move(reply);
                 sched_counter("wire_bytes_out").add(resp.body_size);
                 respond(std::move(resp));
               });
  });
}

Scheduler::~Scheduler() { http_.stop_listening(ep_); }

void Scheduler::crash() {
  down_ = true;
  deferrals_.clear();
  input_cachers_.clear();
  store_directory_.clear();
  server_sends_.clear();
}

proto::SchedulerReply Scheduler::process(const proto::SchedulerRequest& req) {
  sched_counter("rpcs").add();
  const HostId host{req.host_id};

  if (cfg_.peer_input_distribution) note_cached_files(host, req.cached_files);
  if (cfg_.volunteer_store.enabled && req.mr_capable) {
    // Volunteer replica store: the client advertises "chunks I can serve"
    // as a Bloom filter. An RPC with no filter means the host serves
    // nothing any more (fresh start after a crash, or everything
    // withdrawn) — drop its directory entry rather than serve stale
    // endpoints.
    if (!req.store_filter.empty()) {
      try {
        store_directory_.update(host,
                                common::BloomFilter::parse(req.store_filter),
                                req.serving_endpoint, sim_.now());
        sched_counter("store_adverts").add();
      } catch (const Error&) {
        // Malformed advert: ignore it, keep whatever we knew before.
      }
    } else {
      store_directory_.remove(host);
    }
  }
  for (const auto& rep : req.reports) handle_report(host, rep);
  // Reconcile after reports: results reported in this RPC are kOver by now
  // and cannot be misdiagnosed as lost.
  if (cfg_.resend_lost_results && req.knows_results) {
    reconcile_known_results(host, req.known_results);
  }
  if (cfg_.report_fetch_failures) {
    for (const auto& ff : req.failed_fetches) handle_fetch_failure(host, ff);
  }

  proto::SchedulerReply reply;
  reply.request_delay = kMinRequestDelay;
  reply.report_map_results_immediately = cfg_.report_map_results_immediately;
  reply.keep_serving = req.mr_capable && host_may_be_needed(host);
  reply.had_work = true;  // only meaningful when work was requested

  if (req.work_request_seconds > 0) {
    assign_work(req, reply);
    reply.had_work = !reply.tasks.empty();
    if (!reply.had_work) sched_counter("empty_replies").add();
    sched_counter("results_dispatched")
        .add(static_cast<std::int64_t>(reply.tasks.size()));
  }

  // Pipelined reduce (E5): stream newly validated mapper locations to
  // reducers that are still collecting inputs. With fetch-failure reporting
  // on, reduce replicas can also be assigned while an invalidated map
  // re-runs, and they learn the fresh locations the same way.
  if (cfg_.pipelined_reduce || cfg_.report_fetch_failures) {
    for (const ResultId rid : db_.in_progress_on_host(host)) {
      const db::ResultRecord& r = db_.result(rid);
      const db::WorkUnitRecord& wu = db_.workunit(r.wu);
      if (wu.mr_phase != db::MrPhase::kReduce) continue;
      proto::LocationUpdate upd;
      upd.result_id = rid.value();
      upd.peers = jobtracker_.locations_for(wu.mr_job, wu.mr_index);
      upd.complete = jobtracker_.locations_complete(wu.mr_job);
      reply.location_updates.push_back(std::move(upd));
    }
  }
  return reply;
}

bool Scheduler::host_may_be_needed(HostId host) const {
  // Registered as a canonical holder of some unfinished job's map outputs?
  if (jobtracker_.host_outputs_needed(host)) return true;
  // Or holding map results that have not been through validation yet — the
  // host cannot know whether it will become the canonical replica, so it
  // must keep serving (§III.C: withdraw only once the job has finished or
  // the serve timeout expires).
  bool maybe = false;
  db_.for_each_result([&](const db::ResultRecord& r) {
    if (maybe || r.host != host) return;
    const db::WorkUnitRecord& wu = db_.workunit(r.wu);
    if (wu.mr_phase != db::MrPhase::kMap) return;
    const db::MrJobRecord& job = db_.mr_job(wu.mr_job);
    if (job.state == db::MrJobState::kDone ||
        job.state == db::MrJobState::kFailed) {
      return;
    }
    if (r.server_state == db::ServerState::kInProgress) {
      maybe = true;
    } else if (r.server_state == db::ServerState::kOver &&
               r.outcome == db::Outcome::kSuccess &&
               (r.validate_state == db::ValidateState::kInit ||
                r.validate_state == db::ValidateState::kInconclusive)) {
      maybe = true;
    }
  });
  return maybe;
}

void Scheduler::note_cached_files(HostId host,
                                  const std::vector<std::string>& files) {
  for (const auto& name : files) {
    // Only project inputs are cacheable this way; map outputs travel via
    // the JobTracker's location registry.
    if (!db_.find_file_by_name(name)) continue;
    auto& cachers = input_cachers_[name];
    if (std::find(cachers.begin(), cachers.end(), host) == cachers.end()) {
      cachers.push_back(host);
    }
  }
}

void Scheduler::handle_report(HostId host, const proto::ReportedResult& rep) {
  sched_counter("reports").add();
  const ResultId rid{rep.result_id};
  db::ResultRecord* r = nullptr;
  try {
    r = &db_.result(rid);
  } catch (const Error&) {
    sched_counter("late_reports").add();
    return;
  }
  if (r->server_state != db::ServerState::kInProgress || r->host != host) {
    // Late, duplicate, or post-timeout report: BOINC marks these "too
    // late"; the work was already rescheduled elsewhere.
    sched_counter("late_reports").add();
    return;
  }

  db_.set_server_state(rid, db::ServerState::kOver);
  r->outcome = rep.success ? db::Outcome::kSuccess : db::Outcome::kClientError;
  if (!rep.success && policy_) {
    // Runtime failure: break the host's valid streak right away.
    policy_->store().record_error(host);
  }
  r->received_time = sim_.now();
  r->output_digest = rep.digest;
  r->output_bytes = rep.output_bytes;
  r->claimed_credit = rep.claimed_credit;

  for (const auto& f : rep.outputs) {
    // Output names embed the result name, so they are unique per replica.
    if (db_.find_file_by_name(f.name)) continue;
    db::FileRecord frec;
    frec.name = f.name;
    frec.size = f.size;
    frec.digest = f.digest;
    frec.on_server = f.uploaded;
    frec.on_host = host;
    frec.reduce_partition = f.reduce_partition;
    r->output_files.push_back(db_.create_file(frec).id);
  }

  db_.flag_transition(r->wu);
  log_.debug("host ", host.value(), " reported ", r->name,
             rep.success ? " (success)" : " (error)");
}

void Scheduler::reconcile_known_results(
    HostId host, const std::vector<std::int64_t>& known) {
  for (const ResultId rid : db_.in_progress_on_host(host)) {
    if (std::find(known.begin(), known.end(), rid.value()) != known.end()) {
      continue;
    }
    // The client no longer knows about this in-progress result — a crash or
    // restart wiped it (or the assigning reply never arrived). Close it out
    // now instead of waiting for the report deadline.
    db::ResultRecord& r = db_.result(rid);
    db_.set_server_state(rid, db::ServerState::kOver);
    r.outcome = db::Outcome::kLost;
    sched_counter("results_lost").add();
    if (policy_) policy_->store().record_error(host);
    db_.flag_transition(r.wu);
    trace_point(sim_, "resend_lost", r.name);
    log_.info("host ", host.value(), " lost ", r.name,
              "; re-issuing ahead of its deadline");
  }
}

void Scheduler::handle_fetch_failure(HostId reporter,
                                     const proto::FetchFailureReport& ff) {
  sched_counter("fetch_failures_reported").add();
  const auto action = jobtracker_.note_fetch_failure(
      MrJobId{ff.job_id}, ff.map_index, HostId{ff.holder_host});
  if (action == JobTracker::FetchFailureAction::kInvalidated) {
    sched_counter("maps_invalidated").add();
    if (sim_.trace() != nullptr) {
      trace_point(sim_, "map_invalidated",
                  "job" + std::to_string(ff.job_id) + "/map" +
                      std::to_string(ff.map_index) + " holder" +
                      std::to_string(ff.holder_host));
    }
    log_.info("host ", reporter.value(), " could not fetch map ",
              ff.map_index, " outputs from host ", ff.holder_host,
              "; invalidated, map will re-run");
  }
}

void Scheduler::assign_work(const proto::SchedulerRequest& req,
                            proto::SchedulerReply& reply) {
  const HostId host{req.host_id};
  const db::HostRecord& hrec = db_.host(host);
  double filled_seconds = 0;
  int host_in_progress =
      static_cast<int>(db_.in_progress_on_host(host).size());

  // Snapshot: assignment mutates the cache through feeder_.remove().
  const std::vector<ResultId> cache = feeder_.cache();
  for (const ResultId rid : cache) {
    if (static_cast<int>(reply.tasks.size()) >= kMaxResultsPerRpc) break;
    if (filled_seconds >= req.work_request_seconds) break;
    if (host_in_progress >= cfg_.max_wus_in_progress) break;

    db::ResultRecord& r = db_.result(rid);
    if (r.server_state != db::ServerState::kUnsent) {
      feeder_.remove(rid);
      deferrals_.erase(rid);
      continue;
    }
    db::WorkUnitRecord& wu = db_.workunit(r.wu);
    if (wu.error_mass || wu.canonical_found) {
      // The transitioner will abort this replica; its deferral history is
      // dead weight either way.
      deferrals_.erase(rid);
      continue;
    }

    // Never hand two results of one WU to the same host (BOINC's "one
    // result per user per WU" rule; required for honest quorums).
    bool host_has_sibling = false;
    for (const ResultId sid : db_.results_of(wu.id)) {
      const db::ResultRecord& s = db_.result(sid);
      if (s.host == host && s.server_state != db::ServerState::kUnsent &&
          s.server_state != db::ServerState::kInactive) {
        host_has_sibling = true;
        break;
      }
    }
    if (host_has_sibling) continue;

    if (wu.mr_phase == db::MrPhase::kReduce && !req.mr_capable &&
        !cfg_.mirror_map_outputs) {
      // A plain BOINC client cannot fetch inter-client data; without
      // server mirroring it cannot run reduce tasks at all (§III.B).
      continue;
    }

    // Deadline check: skip a host too slow to finish a result before its
    // report deadline given the work already queued on it ("The scheduler
    // takes into account the workload of each requester, as well as its
    // hardware ... information", §III.B). Estimated turnaround on this
    // host: its queued work plus this task.
    const double est_seconds = req.remaining_work_seconds + filled_seconds +
                               wu.flops_est / hrec.flops;
    if (est_seconds > wu.delay_bound.as_seconds()) continue;

    if (!apply_trust_policy(r, wu, host)) continue;

    if (cfg_.volunteer_store.enabled && req.mr_capable &&
        wu.mr_phase == db::MrPhase::kMap) {
      // Locality-aware chunk dispatch: once a file has gone out
      // server-sourced dispatch_gate_width times, hold further replicas of
      // it (bounded by dispatch_max_skips, the delay-scheduling idiom) until
      // a trusted volunteer advertises the chunk — then the assignment
      // carries a serve point and the fetch bypasses the project servers.
      bool wait_for_replica = false;
      for (const FileId fid : wu.input_files) {
        const db::FileRecord& f = db_.file(fid);
        const auto sent = server_sends_.find(f.name);
        if (sent == server_sends_.end() ||
            static_cast<int>(sent->second.size()) <
                cfg_.volunteer_store.dispatch_gate_width) {
          continue;
        }
        // The requester's own advert says it already holds the chunk: it
        // will read its local copy, so there is nothing to wait for (and no
        // trust needed — a host always trusts its own cache).
        if (store_directory_.serves(host, f.name)) continue;
        if (store_sources(f.name, host, 1).empty()) {
          wait_for_replica = true;
          break;
        }
      }
      if (wait_for_replica) {
        if (defer(rid, Deferral::kStore,
                  cfg_.volunteer_store.dispatch_max_skips)) {
          continue;
        }
        // Skip bound exhausted: release this replica server-sourced, but
        // restart every other store-gate count. Sibling replicas burn skips
        // at the same rate, so without the reset they would all cross the
        // bound in the same polling wave and fan a download per host off
        // the project tier; staggered releases give each one's host time
        // to validate (and so become a trusted serve point) first.
        for (auto& [id, counts] : deferrals_) {
          counts[static_cast<std::size_t>(Deferral::kStore)] = 0;
        }
      }
    }

    if (cfg_.locality_aware_reduce && wu.mr_phase == db::MrPhase::kReduce) {
      // Delay scheduling with a best-holder criterion: every mapper holds
      // one file of each partition, so "holds anything" is vacuous. Hold
      // the result (up to kLocalityMaxSkips deferrals) for a requester
      // that stores at least as much of this partition as any other host.
      std::map<std::int64_t, Bytes> held;
      for (const auto& loc :
           jobtracker_.locations_for(wu.mr_job, wu.mr_index)) {
        held[loc.holder_host] += loc.size;
      }
      Bytes best = 0;
      for (const auto& [h, bytes] : held) best = std::max(best, bytes);
      const auto mine = held.find(host.value());
      const Bytes my_bytes = mine == held.end() ? 0 : mine->second;
      if (best > 0 && my_bytes >= best) {
        sched_counter("locality_hits").add();
      } else if (defer(rid, Deferral::kLocality, kLocalityMaxSkips)) {
        continue;
      }
    }

    // Assign.
    db_.set_server_state(rid, db::ServerState::kInProgress);
    r.host = host;
    r.sent_time = sim_.now();
    r.report_deadline = sim_.now() + wu.delay_bound;
    feeder_.remove(rid);
    deferrals_.erase(rid);
    ++host_in_progress;

    if (wu.mr_phase != db::MrPhase::kNone) {
      jobtracker_.note_assignment(wu.mr_job, wu.mr_phase, sim_.now());
    }
    reply.tasks.push_back(build_task(r, wu, req.mr_capable));
    filled_seconds += wu.flops_est / hrec.flops;
  }
}

bool Scheduler::apply_trust_policy(const db::ResultRecord& r,
                                   db::WorkUnitRecord& wu, HostId host) {
  // Only single-replica (trust-gated) work units are in play: in fixed mode
  // none exist, and an escalated WU already carries the full quorum.
  if (policy_ == nullptr || !policy_->adaptive() || wu.min_quorum > 1) {
    return true;
  }

  const auto escalate = [&] {
    // Fall back to the paper's quorum; the transitioner mints the extra
    // replicas (and keeps minting on disagreement) until one forms.
    wu.target_nresults = std::max(wu.target_nresults, cfg_.target_nresults);
    wu.min_quorum = cfg_.min_quorum;
    db_.flag_transition(wu.id);
  };

  if (!policy_->store().is_trusted(host)) {
    // Prefer trusted hosts for single-replica work: defer a bounded number
    // of times, then hand it out escalated so nothing starves.
    if (defer(r.id, Deferral::kTrust, cfg_.reputation.trust_max_skips)) {
      return false;
    }
    escalate();
    sched_counter("trust_escalations").add();
    trace_point(sim_, "trust_escalate", r.name);
    return true;
  }

  switch (policy_->decide_assignment(host)) {
    case rep::AssignmentDecision::kSpotCheck:
      escalate();
      // Feeder fast-tracks the check replicas (reclassifies the WU's
      // unsent results into the audit-first ready queue).
      db_.set_workunit_audit(wu.id, true);
      sched_counter("spot_checks").add();
      trace_point(sim_, "spot_check", r.name);
      break;
    case rep::AssignmentDecision::kSingle:
      sched_counter("trusted_singles").add();
      trace_point(sim_, "trust_single", r.name);
      break;
    case rep::AssignmentDecision::kEscalate:
      // Unreachable: trust was checked above, but keep the conservative
      // fallback so a racing demotion still replicates.
      escalate();
      sched_counter("trust_escalations").add();
      break;
  }
  return true;
}

bool Scheduler::defer(ResultId rid, Deferral reason, int max) {
  const auto i = static_cast<std::size_t>(reason);
  int& n = deferrals_[rid][i];
  if (n >= max) return false;
  ++n;
  sched_counter(kDeferralCounters[i]).add();
  return true;
}

std::vector<store::ReplicaDirectory::Source> Scheduler::store_sources(
    const std::string& name, HostId except, int max) {
  return store_directory_.lookup(
      name, sim_.now(), cfg_.volunteer_store.advert_ttl, except, max,
      [this](HostId h) {
        // Reputation gate: only hosts the adaptive-replication store trusts
        // may serve data to other volunteers.
        return policy_ == nullptr || policy_->store().is_trusted(h);
      });
}

proto::AssignedTask Scheduler::build_task(const db::ResultRecord& r,
                                          const db::WorkUnitRecord& wu,
                                          bool mr_capable) {
  proto::AssignedTask t;
  t.result_id = r.id.value();
  t.result_name = r.name;
  t.wu_name = wu.name;
  t.app = db_.app(wu.app).name;
  t.flops_estimate = wu.flops_est;
  t.report_deadline = r.report_deadline;

  switch (wu.mr_phase) {
    case db::MrPhase::kNone:
      t.phase = proto::TaskPhase::kPlain;
      break;
    case db::MrPhase::kMap:
      t.phase = proto::TaskPhase::kMap;
      break;
    case db::MrPhase::kReduce:
      t.phase = proto::TaskPhase::kReduce;
      break;
  }

  if (wu.mr_phase != db::MrPhase::kNone) {
    const db::MrJobRecord& job = db_.mr_job(wu.mr_job);
    t.job_id = job.id.value();
    t.mr_index = wu.mr_index;
    t.n_maps = job.n_maps;
    t.n_reducers = job.n_reducers;
  }

  if (wu.mr_phase == db::MrPhase::kReduce) {
    // Reduce inputs are wherever the JobTracker says the canonical map
    // outputs live right now.
    for (auto& loc : jobtracker_.locations_for(wu.mr_job, wu.mr_index)) {
      proto::InputFileSpec in;
      in.name = loc.file_name;
      in.size = loc.size;
      in.on_server = loc.on_server;
      in.peers.push_back(std::move(loc));
      t.inputs.push_back(std::move(in));
    }
    t.inputs_complete = jobtracker_.locations_complete(wu.mr_job);
  } else {
    for (const FileId fid : wu.input_files) {
      const db::FileRecord& f = db_.file(fid);
      proto::InputFileSpec in;
      in.name = f.name;
      in.size = f.size;
      in.on_server = f.on_server;
      if (cfg_.peer_input_distribution) {
        // Offer known cachers as alternative sources (E15); the data
        // server remains the fallback, so this can only help.
        const auto it = input_cachers_.find(f.name);
        if (it != input_cachers_.end()) {
          int attached = 0;
          for (const HostId cacher : it->second) {
            if (cacher == r.host) continue;  // don't point a host at itself
            if (attached >= kMaxInputPeers) break;
            const db::HostRecord& ch = db_.host(cacher);
            proto::PeerLocation p;
            p.map_index = wu.mr_index;
            p.file_name = f.name;
            p.size = f.size;
            p.holder_host = cacher.value();
            p.endpoint = ch.mr_endpoint;
            p.on_server = f.on_server;
            in.peers.push_back(std::move(p));
            ++attached;
            sched_counter("input_peers_attached").add();
          }
        }
      }
      if (cfg_.volunteer_store.enabled) {
        if (mr_capable) {
          // Volunteer serve points for this chunk: Bloom membership may be
          // a false positive, so the client treats a miss as a cheap
          // redirect (next peer, then the project shard), never a holder
          // failure.
          for (const auto& src : store_sources(
                   f.name, r.host, cfg_.volunteer_store.max_store_peers)) {
            proto::PeerLocation p;
            p.map_index = wu.mr_index;
            p.file_name = f.name;
            p.size = f.size;
            p.holder_host = src.host.value();
            p.endpoint = src.endpoint;
            p.on_server = f.on_server;
            p.from_store = true;
            in.peers.push_back(std::move(p));
            sched_counter("store_peers_attached").add();
          }
        }
        if (in.peers.empty()) server_sends_[f.name].insert(r.host);
      }
      t.inputs.push_back(std::move(in));
    }
  }
  return t;
}

}  // namespace vcmr::server
