#include "client/client.h"

#include <algorithm>
#include <cmath>

#include "common/bloom.h"
#include "common/error.h"
#include "common/logging.h"
#include "common/strings.h"
#include "mr/task.h"
#include "obs/metrics.h"
#include "server/jobtracker.h"
#include "sim/trace.h"

namespace vcmr::client {

namespace {
common::Logger log_("client");

/// Server-transfer attempts per input or output file, and the pause
/// before each retry.
constexpr int kTransferRetries = 6;
constexpr SimTime kTransferRetryDelay = SimTime::seconds(10);
}

Client::Client(sim::Simulation& sim, net::Network& net, net::HttpService& http,
               store::StorageTier& data, net::Endpoint scheduler_ep,
               const server::ProjectConfig& project,
               const db::HostRecord& host_rec, const HostSpec& spec,
               PeerRegistry& registry, net::ConnectionEstablisher* establisher,
               ClientConfig cfg)
    : sim_(sim),
      net_(net),
      http_(http),
      data_(data),
      scheduler_ep_(scheduler_ep),
      project_(project),
      host_id_(host_rec.id),
      node_(host_rec.node),
      mr_capable_(host_rec.mr_capable),
      spec_(spec),
      cfg_(cfg),
      actor_(host_rec.name),
      serve_(sim, net, host_rec.node, host_rec.mr_endpoint, registry,
             cfg.serve),
      fetcher_(sim, net, host_rec.node, registry, establisher, cfg.peer_fetch),
      backoff_(cfg.backoff_min, cfg.backoff_max,
               sim.rng_stream("client.backoff",
                              static_cast<std::uint64_t>(host_rec.id.value())),
               cfg.backoff_jitter),
      byz_rng_(sim.rng_stream("client.byzantine",
                              static_cast<std::uint64_t>(host_rec.id.value()))) {
  mr::register_builtin_apps();
}

Client::~Client() {
  sim_.cancel(rpc_event_);
  for (auto& [id, t] : tasks_) sim_.cancel(t.run_event);
}

void Client::start() {
  require(!started_, "Client::start called twice");
  started_ = true;
  // Stagger first contact: volunteers do not all dial in at t=0.
  const double frac =
      sim_.rng_stream("client.start",
                      static_cast<std::uint64_t>(host_id_.value()))
          .uniform();
  next_allowed_rpc_ = SimTime::seconds(cfg_.initial_rpc_jitter.as_seconds() * frac);
  consider_rpc();
}

// --- trace helpers --------------------------------------------------------

void Client::trace_point(const std::string& label, const std::string& detail) {
  if (auto* trace = sim_.trace()) {
    trace->point(sim_.now(), "client", actor_, label, detail);
  }
}
std::size_t Client::trace_begin(const std::string& label,
                                const std::string& detail) {
  auto* trace = sim_.trace();
  return trace ? trace->begin_span(sim_.now(), actor_, label, detail) : 0;
}
void Client::trace_end(std::size_t token) {
  if (auto* trace = sim_.trace()) trace->end_span(token, sim_.now());
}
void Client::trace_end(std::optional<std::size_t>& span) {
  if (!span) return;
  trace_end(*span);
  span.reset();
}

void Client::note_backoff(SimTime delay, const char* why) {
  obs::MetricsRegistry::instance()
      .histogram("client", "backoff_seconds", backoff_histogram_bounds(),
                 {{"host", actor_}})
      .observe(delay.as_seconds());
  if (auto* trace = sim_.trace()) {
    backoff_span_ = trace->begin_span(
        sim_.now(), actor_, "backoff",
        common::strprintf("%s %.3f", why, delay.as_seconds()));
  }
}

// --- RPC -----------------------------------------------------------------

bool Client::want_work() const {
  return buffered_seconds() < cfg_.work_buf_min_seconds;
}

bool Client::want_locations() const {
  for (const auto& [id, t] : tasks_) {
    if (t.state == TaskState::kDownloading && !t.assign.inputs_complete) {
      return true;
    }
  }
  return false;
}

bool Client::want_report_now() const {
  bool any_ready = false;
  bool any_ready_map = false;
  for (const auto& [id, t] : tasks_) {
    if (t.state == TaskState::kReadyToReport) {
      any_ready = true;
      if (t.assign.phase == proto::TaskPhase::kMap) any_ready_map = true;
    }
  }
  if (!any_ready) return false;
  if (cfg_.report_results_immediately) return true;
  return server_wants_immediate_reports_ && any_ready_map;
}

double Client::buffered_seconds() const {
  double total = 0;
  for (const auto& [id, t] : tasks_) {
    if (t.state == TaskState::kDownloading || t.state == TaskState::kReady ||
        t.state == TaskState::kRunning) {
      total += t.assign.flops_estimate / spec_.flops;
    }
  }
  return total;
}

void Client::consider_rpc() {
  if (!online_ || rpc_in_flight_ || !started_) return;
  const bool report_now = want_report_now();
  const bool work = want_work() || want_locations();
  if (!report_now && !work) {
    sim_.cancel(rpc_event_);
    rpc_event_ = sim::EventHandle{};
    return;
  }
  SimTime t = std::max(sim_.now(), next_allowed_rpc_);
  // Immediate reporting (mitigation E4) bypasses the backoff window; an
  // ordinary work-fetch does not (§IV.B).
  if (!report_now) t = std::max(t, backoff_until_);
  sim_.cancel(rpc_event_);
  rpc_event_ = sim_.at(t, [this] { do_rpc(); });
}

void Client::do_rpc() {
  if (!online_ || rpc_in_flight_) return;
  trace_end(backoff_span_);

  proto::SchedulerRequest req;
  req.host_id = host_id_.value();
  req.mr_capable = mr_capable_;
  req.serving_endpoint = serve_.endpoint();
  if (project_.peer_input_distribution) req.cached_files = cached_input_names_;
  if (project_.volunteer_store.enabled && mr_capable_) {
    // Volunteer replica store: advertise everything we can serve as a Bloom
    // filter. Serving nothing sends no filter at all, which tells the
    // scheduler to drop our directory entry (e.g. after a crash).
    const std::vector<std::string> names = serve_.served_names();
    if (!names.empty()) {
      common::BloomFilter filter(project_.volunteer_store.filter_bits,
                                 project_.volunteer_store.filter_hashes);
      for (const std::string& n : names) filter.add(n);
      req.store_filter = filter.serialize();
    }
  }
  int queued = 0;
  for (const auto& [id, t] : tasks_) {
    if (t.state == TaskState::kDownloading || t.state == TaskState::kReady ||
        t.state == TaskState::kRunning) {
      ++queued;
    }
  }
  req.tasks_queued = queued;
  req.remaining_work_seconds = buffered_seconds();
  const bool requesting = want_work() || want_locations();
  if (requesting) {
    req.work_request_seconds =
        std::max(60.0, cfg_.work_buf_min_seconds - buffered_seconds());
  }

  std::vector<std::int64_t> reported_ids;
  for (auto& [id, t] : tasks_) {
    if (t.state != TaskState::kReadyToReport) continue;
    t.state = TaskState::kReporting;
    proto::ReportedResult rep;
    rep.result_id = id;
    rep.name = t.assign.result_name;
    rep.success = t.report_success;
    rep.digest = t.digest;
    rep.output_bytes = t.output_bytes;
    // BOINC's cobblestone-style claim: normalized work done.
    rep.claimed_credit =
        t.flops_actual / 1e9 * cfg_.credit_claim_inflation;
    rep.outputs = t.outputs;
    req.reports.push_back(std::move(rep));
    reported_ids.push_back(id);
    trace_point("report", t.assign.result_name);
  }

  if (project_.resend_lost_results) {
    // Fast lost-work recovery: tell the scheduler every result this client
    // still holds (any state). After a crash the list is empty, so the
    // scheduler can re-issue the wiped work at this very RPC.
    req.knows_results = true;
    for (const auto& [id, t] : tasks_) req.known_results.push_back(id);
  }
  std::vector<proto::FetchFailureReport> sent_fetch_failures;
  if (project_.report_fetch_failures && !pending_fetch_failures_.empty()) {
    sent_fetch_failures = std::move(pending_fetch_failures_);
    pending_fetch_failures_.clear();
    req.failed_fetches = sent_fetch_failures;
  }

  rpc_in_flight_ = true;
  obs::MetricsRegistry::instance().counter("client", "rpcs").add();
  if (requesting) {
    obs::MetricsRegistry::instance()
        .counter("client", "work_fetch_requests")
        .add();
  }

  net::HttpRequest hreq;
  hreq.method = "POST";
  hreq.path = "/scheduler";
  hreq.body_size = proto::wire_size(req);
  hreq.body = std::move(req);
  const std::int64_t epoch = rpc_epoch_;
  http_.request(
      node_, scheduler_ep_, std::move(hreq),
      [this, requesting, reported_ids, sent_fetch_failures,
       epoch](const net::HttpResponse& resp) {
        if (epoch != rpc_epoch_) return;  // reply from before a crash
        if (!resp.ok()) {
          on_rpc_fail(reported_ids, sent_fetch_failures);
          return;
        }
        const auto* reply = std::any_cast<proto::SchedulerReply>(&resp.body);
        require(reply != nullptr,
                "Client: scheduler reply carries no SchedulerReply payload");
        on_reply(*reply, requesting, reported_ids);
      },
      [this, reported_ids, sent_fetch_failures, epoch](net::NetError) {
        if (epoch != rpc_epoch_) return;
        on_rpc_fail(reported_ids, sent_fetch_failures);
      });
}

void Client::on_rpc_fail(
    std::vector<std::int64_t> reported_ids,
    std::vector<proto::FetchFailureReport> sent_fetch_failures) {
  rpc_in_flight_ = false;
  obs::MetricsRegistry::instance().counter("client", "rpc_failures").add();
  // Reports were not delivered; queue them again.
  for (const std::int64_t id : reported_ids) {
    if (Task* t = find_task(id)) {
      if (t->state == TaskState::kReporting) t->state = TaskState::kReadyToReport;
    }
  }
  for (const auto& ff : sent_fetch_failures) {
    if (std::find(pending_fetch_failures_.begin(),
                  pending_fetch_failures_.end(),
                  ff) == pending_fetch_failures_.end()) {
      pending_fetch_failures_.push_back(ff);
    }
  }
  const SimTime delay = backoff_.next();
  backoff_until_ = sim_.now() + delay;
  note_backoff(delay, "rpc_fail");
  consider_rpc();
}

void Client::on_reply(const proto::SchedulerReply& reply, bool requested_work,
                      std::vector<std::int64_t> reported_ids) {
  rpc_in_flight_ = false;
  next_allowed_rpc_ = sim_.now() + reply.request_delay;
  server_wants_immediate_reports_ = reply.report_map_results_immediately;
  if (reply.keep_serving) {
    // §III.C: reduce work referencing our outputs is still in flight;
    // re-arm the serve timeouts so the files stay available. The window
    // must outlive our silence: the next chance to re-arm is the next
    // scheduler reply, which backoff can push out by up to backoff_max.
    serve_.reset_timeouts(cfg_.backoff_max + SimTime::minutes(2));
  } else if (mr_capable_ && serve_.serving()) {
    // Nothing unfinished references our map outputs: stop serving them
    // ("This happens when the MapReduce job has finished"). Cached input
    // seeds (E15) stay up for other replicas and expire by timeout.
    for (const std::string& name : serve_.served_names()) {
      if (std::find(cached_input_names_.begin(), cached_input_names_.end(),
                    name) == cached_input_names_.end()) {
        serve_.withdraw(name);
      }
    }
  }

  for (const std::int64_t id : reported_ids) {
    const auto it = tasks_.find(id);
    if (it != tasks_.end() && it->second.state == TaskState::kReporting) {
      tasks_.erase(it);
    }
  }

  for (const auto& upd : reply.location_updates) apply_location_update(upd);
  for (const auto& assign : reply.tasks) accept_task(assign);

  if (requested_work) {
    if (reply.tasks.empty()) {
      const SimTime delay = backoff_.next();
      backoff_until_ = sim_.now() + delay;
      note_backoff(delay, "empty_reply");
    } else {
      backoff_.reset();
      backoff_until_ = SimTime::zero();
    }
  }

  pump_downloads();
  maybe_execute();
  consider_rpc();
}

// --- task intake -----------------------------------------------------------

void Client::accept_task(const proto::AssignedTask& assign) {
  obs::MetricsRegistry::instance().counter("client", "tasks_received").add();
  trace_point("assign", assign.result_name);

  Task t;
  t.assign = assign;
  t.received = sim_.now();
  for (const auto& spec : assign.inputs) {
    TaskInput in;
    in.spec = spec;
    in.server_retries_left = kTransferRetries;
    t.inputs.push_back(std::move(in));
  }
  const std::int64_t id = assign.result_id;
  auto [it, inserted] = tasks_.emplace(id, std::move(t));
  if (!inserted) return;  // duplicate assignment; keep the original

  for (const auto& in : it->second.inputs) {
    download_queue_.emplace_back(id, in.spec.name);
  }
  pump_downloads();
  check_ready(it->second);
}

void Client::apply_location_update(const proto::LocationUpdate& upd) {
  Task* t = find_task(upd.result_id);
  if (t == nullptr || t->state != TaskState::kDownloading) return;
  for (const auto& peer : upd.peers) {
    const bool known =
        std::any_of(t->inputs.begin(), t->inputs.end(),
                    [&](const TaskInput& in) { return in.spec.name == peer.file_name; });
    if (known) continue;
    TaskInput in;
    in.spec.name = peer.file_name;
    in.spec.size = peer.size;
    in.spec.on_server = peer.on_server;
    in.spec.peers.push_back(peer);
    in.server_retries_left = kTransferRetries;
    t->inputs.push_back(std::move(in));
    download_queue_.emplace_back(upd.result_id, peer.file_name);
  }
  if (upd.complete) t->assign.inputs_complete = true;
  pump_downloads();
  check_ready(*t);
}

// --- downloads ----------------------------------------------------------------

void Client::pump_downloads() {
  if (!online_) return;
  while (downloads_active_ < cfg_.max_file_xfers && !download_queue_.empty()) {
    const auto [id, name] = download_queue_.front();
    download_queue_.pop_front();
    Task* t = find_task(id);
    if (t == nullptr || t->state != TaskState::kDownloading) continue;
    const auto it =
        std::find_if(t->inputs.begin(), t->inputs.end(),
                     [&](const TaskInput& in) { return in.spec.name == name; });
    if (it == t->inputs.end() || it->have || it->active) continue;
    start_input_fetch(*t, *it);
  }
}

void Client::start_input_fetch(Task& task, TaskInput& input) {
  // The file may already be local: this host produced it as a mapper, or a
  // re-assigned task shares inputs. Local disk reads cost no network.
  const auto cached = local_files_.find(input.spec.name);
  if (cached != local_files_.end()) {
    input.have = true;
    stats_.bytes_read_locally += cached->second.size;
    trace_point("local_read", input.spec.name);
    check_ready(task);
    return;
  }

  // Another task may already be fetching this very file (parameter sweeps
  // share one input chunk across every map). BOINC's file model dedups
  // this — results reference per-project files, so concurrent references
  // share one transfer — and so do we: park this input as a waiter instead
  // of opening a duplicate flow that would double both our link load and
  // the serve point's connection pressure.
  for (const auto& [other_id, other] : tasks_) {
    if (other_id == task.assign.result_id) continue;
    for (const TaskInput& oin : other.inputs) {
      if (oin.spec.name == input.spec.name && oin.active) {
        input_waiters_[input.spec.name].push_back(task.assign.result_id);
        return;
      }
    }
  }

  const std::int64_t id = task.assign.result_id;
  const std::string name = input.spec.name;
  input.active = true;
  ++downloads_active_;
  const std::size_t span = trace_begin("download", name);

  const bool via_peer =
      mr_capable_ && !input.use_server &&
      input.next_peer < static_cast<int>(input.spec.peers.size());
  if (via_peer) {
    const proto::PeerLocation& loc =
        input.spec.peers[static_cast<std::size_t>(input.next_peer)];
    if (loc.from_store) {
      // Volunteer serve point: the Bloom advert may have been a false
      // positive, so probe once and treat any failure as a cheap miss —
      // input_failed redirects to the next source.
      fetcher_.fetch_store(
          loc.endpoint, name,
          [this, id, name, span](const mr::FilePayload& p) {
            trace_end(span);
            obs::MetricsRegistry::instance()
                .counter("client", "store_fetches")
                .add();
            obs::MetricsRegistry::instance()
                .counter("store", "tier_egress_bytes", {{"tier", "volunteer"}})
                .add(p.size);
            input_done(id, name, p);
          },
          [this, id, name, span](const std::string& why) {
            trace_end(span);
            input_failed(id, name, why, /*was_peer=*/true);
          });
      return;
    }
    fetcher_.fetch(
        loc.endpoint, name,
        [this, id, name, span](const mr::FilePayload& p) {
          trace_end(span);
          input_done(id, name, p);
        },
        [this, id, name, span](const std::string& why) {
          trace_end(span);
          input_failed(id, name, why, /*was_peer=*/true);
        });
    return;
  }

  if (!input.spec.on_server) {
    // No usable source: plain client facing peer-only data.
    trace_end(span);
    input.active = false;
    --downloads_active_;
    fail_task(task, "no reachable source for " + name);
    return;
  }

  data_.download(
      node_, name,
      [this, id, name, span](const mr::FilePayload& p) {
        trace_end(span);
        stats_.bytes_downloaded_server += p.size;
        input_done(id, name, p);
      },
      [this, id, name, span](const std::string& why) {
        trace_end(span);
        input_failed(id, name, why, /*was_peer=*/false);
      });
}

void Client::input_done(std::int64_t result_id, const std::string& name,
                        const mr::FilePayload& payload) {
  --downloads_active_;
  local_files_[name] = payload;
  if ((project_.peer_input_distribution || project_.volunteer_store.enabled) &&
      mr_capable_) {
    Task* t = find_task(result_id);
    if (t != nullptr && t->assign.phase == proto::TaskPhase::kMap) {
      // E15 / volunteer store: become a serve point for this input chunk.
      // cached_input_names_ doubles as the withdraw-on-reply exemption list,
      // so store-offered chunks survive a keep_serving=false reply too.
      serve_.offer(name, payload);
      if (std::find(cached_input_names_.begin(), cached_input_names_.end(),
                    name) == cached_input_names_.end()) {
        cached_input_names_.push_back(name);
      }
    }
  }
  Task* t = find_task(result_id);
  if (t != nullptr) {
    const auto it =
        std::find_if(t->inputs.begin(), t->inputs.end(),
                     [&](const TaskInput& in) { return in.spec.name == name; });
    if (it != t->inputs.end()) {
      it->active = false;
      it->have = true;
    }
    check_ready(*t);
  }
  // Tasks parked on this transfer read the now-local copy.
  if (const auto w = input_waiters_.find(name); w != input_waiters_.end()) {
    const std::vector<std::int64_t> waiters = std::move(w->second);
    input_waiters_.erase(w);
    for (const std::int64_t wid : waiters) {
      Task* wt = find_task(wid);
      if (wt == nullptr) continue;
      const auto wit = std::find_if(
          wt->inputs.begin(), wt->inputs.end(),
          [&](const TaskInput& in) { return in.spec.name == name; });
      if (wit == wt->inputs.end() || wit->have) continue;
      wit->have = true;
      stats_.bytes_read_locally += payload.size;
      trace_point("local_read", name);
      check_ready(*wt);
    }
  }
  pump_downloads();
}

void Client::requeue_input_waiters(const std::string& name) {
  const auto w = input_waiters_.find(name);
  if (w == input_waiters_.end()) return;
  const std::vector<std::int64_t> waiters = std::move(w->second);
  input_waiters_.erase(w);
  for (const std::int64_t wid : waiters) {
    Task* wt = find_task(wid);
    if (wt != nullptr && wt->state == TaskState::kDownloading)
      download_queue_.emplace_back(wid, name);
  }
}

void Client::input_failed(std::int64_t result_id, const std::string& name,
                          const std::string& why, bool was_peer) {
  --downloads_active_;
  Task* t = find_task(result_id);
  if (t == nullptr || t->state != TaskState::kDownloading) {
    // The carrier task died mid-transfer; any waiters must fetch themselves.
    requeue_input_waiters(name);
    pump_downloads();
    return;
  }
  const auto it =
      std::find_if(t->inputs.begin(), t->inputs.end(),
                   [&](const TaskInput& in) { return in.spec.name == name; });
  if (it == t->inputs.end()) {
    pump_downloads();
    return;
  }
  it->active = false;

  if (was_peer) {
    const std::size_t peer_idx = static_cast<std::size_t>(it->next_peer);
    const bool from_store =
        peer_idx < it->spec.peers.size() && it->spec.peers[peer_idx].from_store;
    if (from_store) {
      // A volunteer serve point missed: Bloom false positive, chunk
      // withdrawn, or peer gone. That is a cheap redirect, never a holder
      // failure — the reduce-side failed_fetch machinery stays out of it.
      obs::MetricsRegistry::instance().counter("client", "store_misses").add();
      trace_point("store_miss", name);
    } else if (project_.report_fetch_failures && !it->spec.peers.empty() &&
               t->assign.phase == proto::TaskPhase::kReduce) {
      // The holder is unreachable after all retries: queue a report so the
      // jobtracker can invalidate its locations and re-run the map early.
      // Every other still-missing input registered to the same holder is
      // doomed to the same fate, so report them all in one batch instead
      // of discovering them serially, one failed reduce attempt each.
      const std::int64_t holder = it->spec.peers.front().holder_host;
      for (const TaskInput& in : t->inputs) {
        if (in.have || in.spec.peers.empty()) continue;
        const proto::PeerLocation& loc = in.spec.peers.front();
        if (loc.holder_host != holder) continue;
        proto::FetchFailureReport ff;
        ff.job_id = t->assign.job_id;
        ff.map_index = loc.map_index;
        ff.holder_host = loc.holder_host;
        if (std::find(pending_fetch_failures_.begin(),
                      pending_fetch_failures_.end(),
                      ff) == pending_fetch_failures_.end()) {
          pending_fetch_failures_.push_back(ff);
          trace_point("fetch_failure", in.spec.name);
        }
      }
    }
    ++it->next_peer;
    if (project_.volunteer_store.enabled &&
        it->next_peer < static_cast<int>(it->spec.peers.size())) {
      // More advertised sources remain: redirect to the next one.
      download_queue_.emplace_back(result_id, name);
    } else if (it->spec.on_server) {
      // §III.C fallback: after n failed attempts, fetch from the server.
      log_.debug(actor_, ": falling back to server for ", name, " (", why, ")");
      obs::MetricsRegistry::instance()
          .counter("client", "server_fallbacks")
          .add();
      it->use_server = true;
      download_queue_.emplace_back(result_id, name);
    } else {
      fail_task(*t, "peer fetch failed with no server mirror: " + why);
      requeue_input_waiters(name);
    }
  } else {
    if (--it->server_retries_left > 0) {
      const std::int64_t id = result_id;
      sim_.after(kTransferRetryDelay, [this, id, name] {
        if (Task* task = find_task(id); task != nullptr &&
            task->state == TaskState::kDownloading) {
          download_queue_.emplace_back(id, name);
          pump_downloads();
        }
      });
    } else {
      fail_task(*t, "server transfer failed: " + why);
      requeue_input_waiters(name);
    }
  }
  pump_downloads();
}

void Client::check_ready(Task& task) {
  if (task.state != TaskState::kDownloading) return;
  if (!task.assign.inputs_complete) return;
  if (task.assign.phase == proto::TaskPhase::kReduce &&
      static_cast<int>(task.inputs.size()) < task.assign.n_maps) {
    return;  // pipelined mode: more inputs still unknown
  }
  for (const auto& in : task.inputs) {
    if (!in.have) return;
  }
  task.state = TaskState::kReady;
  maybe_execute();
}

// --- execution --------------------------------------------------------------

const mr::MapReduceApp& Client::app_for(const Task& task) const {
  const mr::MapReduceApp* app =
      mr::AppRegistry::instance().find(task.assign.app);
  require(app != nullptr, "client: unknown app in assignment");
  return *app;
}

void Client::maybe_execute() {
  // Fill every free core (BOINC runs one task per CPU).
  while (online_ && running_count_ < spec_.cores) {
    Task* next = nullptr;
    for (auto& [id, t] : tasks_) {
      if (t.state != TaskState::kReady) continue;
      if (next == nullptr || t.received < next->received) next = &t;
    }
    if (next == nullptr) return;
    start_execution(*next);
  }
}

void Client::start_execution(Task& t) {
  t.state = TaskState::kRunning;
  ++running_count_;
  const mr::MapReduceApp& app = app_for(t);

  double flops = 0;
  if (t.assign.phase == proto::TaskPhase::kReduce) {
    // Inputs sorted by map index: replicas must concatenate identically.
    std::vector<const TaskInput*> order;
    for (const auto& in : t.inputs) order.push_back(&in);
    std::sort(order.begin(), order.end(),
              [](const TaskInput* a, const TaskInput* b) {
                const int ma = a->spec.peers.empty() ? 0 : a->spec.peers[0].map_index;
                const int mb = b->spec.peers.empty() ? 0 : b->spec.peers[0].map_index;
                if (ma != mb) return ma < mb;
                return a->spec.name < b->spec.name;
              });
    std::vector<mr::FilePayload> inputs;
    for (const TaskInput* in : order) {
      inputs.push_back(local_files_.at(in->spec.name));
    }
    const mr::ReduceTaskResult r =
        mr::run_reduce_task(app, inputs, t.assign.wu_name);
    flops = r.flops;
    t.digest = r.digest;
    t.output_bytes = r.output.size;
    const std::string out_name =
        server::JobTracker::reduce_output_name(t.assign.result_name);
    proto::OutputFileInfo info;
    info.name = out_name;
    info.size = r.output.size;
    info.digest = r.output.digest;
    t.outputs.push_back(info);
    t.pending_uploads.emplace_back(out_name, r.output);
  } else {
    // Map (and plain) tasks read their single staged input.
    require(!t.inputs.empty(), "map task with no input");
    const mr::FilePayload& chunk = local_files_.at(t.inputs[0].spec.name);
    const mr::MapTaskResult r = mr::run_map_task(
        app, chunk, std::max(1, t.assign.n_reducers), t.assign.wu_name);
    flops = r.flops;
    t.digest = r.digest;
    for (int p = 0; p < static_cast<int>(r.partitions.size()); ++p) {
      const mr::FilePayload& part = r.partitions[static_cast<std::size_t>(p)];
      const std::string out_name =
          server::JobTracker::map_output_name(t.assign.result_name, p);
      proto::OutputFileInfo info;
      info.name = out_name;
      info.size = part.size;
      info.digest = part.digest;
      info.reduce_partition = p;
      t.outputs.push_back(info);
      t.output_bytes += part.size;
      t.pending_uploads.emplace_back(out_name, part);
    }
  }

  t.flops_actual = flops;
  const double duration_s = flops / spec_.flops;
  t.run_started = sim_.now();
  t.run_remaining = SimTime::seconds(duration_s);
  t.compute_span = trace_begin("compute", t.assign.result_name);
  const std::int64_t id = t.assign.result_id;
  t.run_event = sim_.after(t.run_remaining, [this, id] {
    if (Task* task = find_task(id)) finish_execution(*task);
  });
}

void Client::finish_execution(Task& task) {
  trace_end(task.compute_span);
  --running_count_;
  obs::MetricsRegistry::instance().counter("client", "tasks_completed").add();

  // Byzantine model: a faulty/malicious client reports a corrupted digest
  // (the quorum validator is what catches this, §III.B).
  if (cfg_.error_probability > 0 && byz_rng_.chance(cfg_.error_probability)) {
    task.digest.lo ^= byz_rng_.next_u64() | 1;
    for (auto& [name, payload] : task.pending_uploads) {
      (void)name;
      payload.digest.lo ^= 1;
    }
    for (auto& out : task.outputs) out.digest.lo ^= 1;
  }

  // Fault injection: an injected upload corruption looks exactly like a
  // faulty host to the server. The flip is keyed by host id so two
  // corrupted replicas of one work unit can never agree into a quorum.
  if (corrupt_hook_ && corrupt_hook_()) {
    task.digest.lo ^=
        (0x9e3779b97f4a7c15ull *
         (static_cast<std::uint64_t>(host_id_.value()) + 2)) | 1ull;
    for (auto& [name, payload] : task.pending_uploads) {
      (void)name;
      payload.digest.lo ^= 1;
    }
    for (auto& out : task.outputs) out.digest.lo ^= 1;
  }

  // Outputs now exist on this client's disk; a later reduce task assigned
  // here reads them locally instead of fetching (data locality).
  for (const auto& [name, payload] : task.pending_uploads) {
    local_files_[name] = payload;
  }

  // BOINC-MR: serve map outputs to reducers from this client.
  if (mr_capable_ && task.assign.phase == proto::TaskPhase::kMap) {
    for (const auto& [name, payload] : task.pending_uploads) {
      serve_.offer(name, payload);
    }
  }

  start_uploads(task);
  maybe_execute();
}

void Client::start_uploads(Task& task) {
  task.state = TaskState::kUploading;

  const bool skip_server_upload = mr_capable_ &&
                                  task.assign.phase == proto::TaskPhase::kMap &&
                                  !project_.mirror_map_outputs;
  if (skip_server_upload || task.pending_uploads.empty()) {
    // BOINC-MR without mirroring reports digests only (§III.B: "map
    // outputs should not be uploaded to the server; instead, each
    // output's hash would be reported back").
    mark_ready_to_report(task);
    return;
  }

  for (auto& out : task.outputs) out.uploaded = true;
  task.uploads_in_flight = static_cast<int>(task.pending_uploads.size());
  pump_uploads(task);
}

void Client::pump_uploads(Task& task) {
  // Start every pending upload; the flow network arbitrates bandwidth the
  // way libcurl's parallel transfers would.
  auto uploads = std::move(task.pending_uploads);
  task.pending_uploads.clear();
  const std::int64_t id = task.assign.result_id;
  for (auto& [name, payload] : uploads) {
    upload_output(id, name, std::move(payload));
  }
}

void Client::upload_output(std::int64_t result_id, const std::string& name,
                           mr::FilePayload payload) {
  if (!online_) {
    // Parked until set_online(true) re-pumps the task's uploads.
    if (Task* t = find_task(result_id)) {
      t->pending_uploads.emplace_back(name, std::move(payload));
    }
    return;
  }
  const std::size_t span = trace_begin("upload", name);
  // Copy before the call: `payload` is moved into the failure lambda below,
  // and argument evaluation order is unspecified.
  mr::FilePayload to_send = payload;
  data_.upload(
      node_, name, std::move(to_send),
      [this, result_id, span] {
        trace_end(span);
        if (Task* t = find_task(result_id)) {
          if (--t->uploads_in_flight == 0) mark_ready_to_report(*t);
        }
      },
      [this, result_id, span, name,
       payload = std::move(payload)](const std::string& why) mutable {
        trace_end(span);
        log_.debug(actor_, ": upload of ", name, " failed (", why,
                   "); retrying");
        sim_.after(kTransferRetryDelay,
                   [this, result_id, name,
                    payload = std::move(payload)]() mutable {
                     if (find_task(result_id) != nullptr) {
                       upload_output(result_id, name, std::move(payload));
                     }
                   });
      });
}

void Client::mark_ready_to_report(Task& task) {
  task.state = TaskState::kReadyToReport;
  trace_point("uploaded", task.assign.result_name);
  consider_rpc();
}

void Client::fail_task(Task& task, const std::string& why) {
  if (task.state == TaskState::kReadyToReport ||
      task.state == TaskState::kReporting) {
    return;
  }
  log_.warn(actor_, ": task ", task.assign.result_name, " failed: ", why);
  obs::MetricsRegistry::instance().counter("client", "tasks_failed").add();
  trace_point("task_failed", why);
  task.report_success = false;
  task.outputs.clear();
  task.pending_uploads.clear();
  task.state = TaskState::kReadyToReport;
  consider_rpc();
}

Client::Task* Client::find_task(std::int64_t result_id) {
  const auto it = tasks_.find(result_id);
  return it == tasks_.end() ? nullptr : &it->second;
}

// --- availability -------------------------------------------------------------

void Client::set_online(bool online) {
  if (online_ == online) return;
  online_ = online;
  net_.set_online(node_, online);
  if (!online) {
    sim_.cancel(rpc_event_);
    rpc_event_ = sim::EventHandle{};
    for (auto& [id, t] : tasks_) {
      if (t.state != TaskState::kRunning) continue;
      // Suspension rolls the task back to its last checkpoint: progress
      // made since then is lost (BOINC apps checkpoint periodically).
      sim_.cancel(t.run_event);
      SimTime done = sim_.now() - t.run_started;
      const double ckpt = cfg_.checkpoint_period.as_seconds();
      if (ckpt > 0) {
        const double kept =
            std::floor(done.as_seconds() / ckpt) * ckpt;
        done = SimTime::seconds(kept);
      }
      t.run_remaining = std::max(SimTime::zero(), t.run_remaining - done);
      trace_end(t.compute_span);
    }
    trace_point("offline", "");
    return;
  }
  trace_point("online", "");
  for (auto& [id, t] : tasks_) {
    if (t.state != TaskState::kRunning) continue;
    t.run_started = sim_.now();
    t.compute_span = trace_begin("compute", t.assign.result_name);
    const std::int64_t rid = id;
    t.run_event = sim_.after(t.run_remaining, [this, rid] {
      if (Task* task = find_task(rid)) finish_execution(*task);
    });
  }
  // Re-arm interrupted downloads and uploads.
  for (auto& [id, t] : tasks_) {
    if (t.state == TaskState::kDownloading) {
      for (auto& in : t.inputs) {
        if (!in.have && !in.active) download_queue_.emplace_back(id, in.spec.name);
      }
    }
    if (t.state == TaskState::kUploading && !t.pending_uploads.empty()) {
      pump_uploads(t);
    }
  }
  pump_downloads();
  maybe_execute();
  consider_rpc();
}

// --- crash/restart (fault injection) ---------------------------------------

void Client::crash() {
  if (crashed_) return;
  crashed_ = true;
  ++rpc_epoch_;  // any reply to an in-flight RPC is now stale
  rpc_in_flight_ = false;
  sim_.cancel(rpc_event_);
  rpc_event_ = sim::EventHandle{};
  for (auto& [id, t] : tasks_) {
    sim_.cancel(t.run_event);
    // Only a span still open: going offline already closed a suspended
    // task's compute span.
    trace_end(t.compute_span);
  }
  trace_end(backoff_span_);
  // Everything on disk and in memory is gone. In-flight transfer callbacks
  // find no task and fizzle; downloads_active_ drains through them, so it
  // is deliberately not reset here.
  tasks_.clear();
  download_queue_.clear();
  input_waiters_.clear();
  running_count_ = 0;
  local_files_.clear();
  cached_input_names_.clear();
  pending_fetch_failures_.clear();
  serve_.withdraw_all();
  backoff_.reset();
  backoff_until_ = SimTime::zero();
  if (online_) {
    online_ = false;
    net_.set_online(node_, false);
  }
  log_.info(actor_, ": crashed at t=", sim_.now().str());
  obs::MetricsRegistry::instance().counter("client", "crashes").add();
  trace_point("crash", "");
}

void Client::restart() {
  if (!crashed_) return;
  crashed_ = false;
  online_ = true;
  net_.set_online(node_, true);
  next_allowed_rpc_ = sim_.now();
  log_.info(actor_, ": restarted at t=", sim_.now().str());
  trace_point("restart", "");
  consider_rpc();
}

bool Client::idle() const { return tasks_.empty() && !rpc_in_flight_; }

}  // namespace vcmr::client
