#include "db/database.h"

#include <algorithm>

#include "common/error.h"
#include "common/strings.h"
#include "common/xml.h"

namespace vcmr::db {

const char* to_string(ServerState s) {
  switch (s) {
    case ServerState::kInactive: return "inactive";
    case ServerState::kUnsent: return "unsent";
    case ServerState::kInProgress: return "in_progress";
    case ServerState::kOver: return "over";
  }
  return "?";
}

const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::kInit: return "init";
    case Outcome::kSuccess: return "success";
    case Outcome::kCouldntSend: return "couldnt_send";
    case Outcome::kClientError: return "client_error";
    case Outcome::kNoReply: return "no_reply";
    case Outcome::kValidateError: return "validate_error";
    case Outcome::kAbandoned: return "abandoned";
    case Outcome::kLost: return "lost";
  }
  return "?";
}

const char* to_string(ValidateState v) {
  switch (v) {
    case ValidateState::kInit: return "init";
    case ValidateState::kValid: return "valid";
    case ValidateState::kInvalid: return "invalid";
    case ValidateState::kInconclusive: return "inconclusive";
  }
  return "?";
}

// --- creation ---------------------------------------------------------------

AppRecord& Database::create_app(const std::string& name) {
  const AppId id{next_app_++};
  AppRecord rec;
  rec.id = id;
  rec.name = name;
  return apps_.emplace(id, std::move(rec)).first->second;
}

HostRecord& Database::create_host(const HostRecord& proto) {
  const HostId id{next_host_++};
  HostRecord rec = proto;
  rec.id = id;
  if (rec.name.empty()) rec.name = "host" + std::to_string(id.value());
  return hosts_.emplace(id, std::move(rec)).first->second;
}

FileRecord& Database::create_file(const FileRecord& proto) {
  require(!proto.name.empty(), "create_file: file needs a name");
  require(file_by_name_.count(proto.name) == 0,
          "create_file: duplicate file name");
  const FileId id{next_file_++};
  FileRecord rec = proto;
  rec.id = id;
  file_by_name_[rec.name] = id;
  return files_.emplace(id, std::move(rec)).first->second;
}

WorkUnitRecord& Database::create_workunit(const WorkUnitRecord& proto) {
  require(!proto.name.empty(), "create_workunit: needs a name");
  require(wu_by_name_.count(proto.name) == 0,
          "create_workunit: duplicate workunit name");
  const WorkUnitId id{next_wu_++};
  WorkUnitRecord rec = proto;
  rec.id = id;
  wu_by_name_[rec.name] = id;
  transition_flag_[id] = true;  // newborn WUs need the transitioner
  return workunits_.emplace(id, std::move(rec)).first->second;
}

ResultRecord& Database::create_result(const ResultRecord& proto) {
  const ResultId id{next_result_++};
  ResultRecord rec = proto;
  rec.id = id;
  if (rec.name.empty()) {
    rec.name = workunit(rec.wu).name + "_" +
               std::to_string(results_by_wu_[rec.wu].size());
  }
  results_by_wu_[rec.wu].push_back(id);
  ResultRecord& stored = results_.emplace(id, std::move(rec)).first->second;
  if (stored.server_state == ServerState::kUnsent) index_unsent(stored);
  return stored;
}

MrJobRecord& Database::create_mr_job(const MrJobRecord& proto) {
  const MrJobId id{next_job_++};
  MrJobRecord rec = proto;
  rec.id = id;
  return mr_jobs_.emplace(id, std::move(rec)).first->second;
}

// --- lookup ------------------------------------------------------------------

namespace {
template <class Map, class Id>
auto& lookup(Map& map, Id id, const char* what) {
  const auto it = map.find(id);
  if (it == map.end()) throw Error(std::string("Database: unknown ") + what);
  return it->second;
}
}  // namespace

AppRecord& Database::app(AppId id) { return lookup(apps_, id, "app"); }
HostRecord& Database::host(HostId id) { return lookup(hosts_, id, "host"); }
FileRecord& Database::file(FileId id) { return lookup(files_, id, "file"); }
WorkUnitRecord& Database::workunit(WorkUnitId id) {
  return lookup(workunits_, id, "workunit");
}
ResultRecord& Database::result(ResultId id) {
  return lookup(results_, id, "result");
}
MrJobRecord& Database::mr_job(MrJobId id) {
  return lookup(mr_jobs_, id, "mr_job");
}
const AppRecord& Database::app(AppId id) const { return lookup(apps_, id, "app"); }
const HostRecord& Database::host(HostId id) const {
  return lookup(hosts_, id, "host");
}
const FileRecord& Database::file(FileId id) const {
  return lookup(files_, id, "file");
}
const WorkUnitRecord& Database::workunit(WorkUnitId id) const {
  return lookup(workunits_, id, "workunit");
}
const ResultRecord& Database::result(ResultId id) const {
  return lookup(results_, id, "result");
}
const MrJobRecord& Database::mr_job(MrJobId id) const {
  return lookup(mr_jobs_, id, "mr_job");
}

std::optional<FileId> Database::find_file_by_name(const std::string& name) const {
  const auto it = file_by_name_.find(name);
  if (it == file_by_name_.end()) return std::nullopt;
  return it->second;
}

std::optional<WorkUnitId> Database::find_workunit_by_name(
    const std::string& name) const {
  const auto it = wu_by_name_.find(name);
  if (it == wu_by_name_.end()) return std::nullopt;
  return it->second;
}

// --- state transitions ----------------------------------------------------------

void Database::index_unsent(const ResultRecord& r) {
  const WorkUnitRecord& wu = workunit(r.wu);
  if (wu.audit) {
    unsent_audit_.insert(r.id);
  } else {
    unsent_bulk_by_job_[wu.mr_job].insert(r.id);
  }
}

void Database::unindex_unsent(const ResultRecord& r) {
  // The audit flag may have flipped since classification; erase from both
  // queues unconditionally.
  unsent_audit_.erase(r.id);
  const auto it = unsent_bulk_by_job_.find(workunit(r.wu).mr_job);
  if (it != unsent_bulk_by_job_.end()) {
    it->second.erase(r.id);
    if (it->second.empty()) unsent_bulk_by_job_.erase(it);
  }
}

void Database::set_server_state(ResultId id, ServerState s) {
  ResultRecord& r = result(id);
  if (r.server_state == s) return;
  if (r.server_state == ServerState::kUnsent) unindex_unsent(r);
  r.server_state = s;
  if (s == ServerState::kUnsent) index_unsent(r);
}

void Database::set_workunit_audit(WorkUnitId id, bool audit) {
  WorkUnitRecord& wu = workunit(id);
  if (wu.audit == audit) return;
  wu.audit = audit;
  for (const ResultId rid : results_of(id)) {
    const ResultRecord& r = result(rid);
    if (r.server_state != ServerState::kUnsent) continue;
    unindex_unsent(r);
    index_unsent(r);
  }
}

// --- queries -------------------------------------------------------------------

std::vector<ResultId> Database::results_of(WorkUnitId wu) const {
  const auto it = results_by_wu_.find(wu);
  return it == results_by_wu_.end() ? std::vector<ResultId>{} : it->second;
}

std::vector<ResultId> Database::timed_out_results(SimTime now) const {
  std::vector<ResultId> out;
  for (const auto& [id, r] : results_) {
    if (r.server_state == ServerState::kInProgress && r.report_deadline <= now) {
      out.push_back(id);
    }
  }
  return out;
}

std::vector<WorkUnitId> Database::transition_pending() const {
  std::vector<WorkUnitId> out;
  for (const auto& [id, flag] : transition_flag_) {
    if (flag) out.push_back(id);
  }
  return out;
}

void Database::flag_transition(WorkUnitId wu) { transition_flag_[wu] = true; }
void Database::clear_transition(WorkUnitId wu) { transition_flag_[wu] = false; }

std::vector<WorkUnitId> Database::workunits_of_job(MrJobId job,
                                                   MrPhase phase) const {
  std::vector<WorkUnitId> out;
  for (const auto& [id, wu] : workunits_) {
    if (wu.mr_job == job && wu.mr_phase == phase) out.push_back(id);
  }
  return out;
}

std::vector<ResultId> Database::in_progress_on_host(HostId host) const {
  std::vector<ResultId> out;
  for (const auto& [id, r] : results_) {
    if (r.server_state == ServerState::kInProgress && r.host == host) {
      out.push_back(id);
    }
  }
  return out;
}

// --- iteration -------------------------------------------------------------------

void Database::for_each_workunit(
    const std::function<void(const WorkUnitRecord&)>& fn) const {
  for (const auto& [id, wu] : workunits_) fn(wu);
}
void Database::for_each_result(
    const std::function<void(const ResultRecord&)>& fn) const {
  for (const auto& [id, r] : results_) fn(r);
}
void Database::for_each_host(
    const std::function<void(const HostRecord&)>& fn) const {
  for (const auto& [id, h] : hosts_) fn(h);
}
void Database::for_each_mr_job(
    const std::function<void(const MrJobRecord&)>& fn) const {
  for (const auto& [id, j] : mr_jobs_) fn(j);
}

// --- persistence -------------------------------------------------------------------

namespace {

using common::XmlNode;

void put_i64(XmlNode& n, const char* key, std::int64_t v) {
  n.add_child_text(key, std::to_string(v));
}
void put_digest(XmlNode& n, const char* key, const common::Digest128& d) {
  XmlNode& c = n.add_child(key);
  put_i64(c, "hi", static_cast<std::int64_t>(d.hi));
  put_i64(c, "lo", static_cast<std::int64_t>(d.lo));
}
common::Digest128 get_digest(const XmlNode& n, const char* key) {
  common::Digest128 d;
  if (const XmlNode* c = n.child(key)) {
    d.hi = static_cast<std::uint64_t>(c->child_i64("hi"));
    d.lo = static_cast<std::uint64_t>(c->child_i64("lo"));
  }
  return d;
}

}  // namespace

std::string Database::save() const {
  XmlNode root("vcmr_db");
  for (const auto& [id, a] : apps_) {
    XmlNode& n = root.add_child("app");
    put_i64(n, "id", a.id.value());
    n.add_child_text("name", a.name);
  }
  for (const auto& [id, h] : hosts_) {
    XmlNode& n = root.add_child("host");
    put_i64(n, "id", h.id.value());
    n.add_child_text("name", h.name);
    put_i64(n, "node", h.node.value());
    n.add_child_text("flops", common::strprintf("%.17g", h.flops));
    put_i64(n, "cores", h.cores);
    put_i64(n, "mr_capable", h.mr_capable ? 1 : 0);
    put_i64(n, "mr_node", h.mr_endpoint.node.value());
    put_i64(n, "mr_port", h.mr_endpoint.port);
    n.add_child_text("total_credit", common::strprintf("%.17g", h.total_credit));
    put_i64(n, "consecutive_valid", h.consecutive_valid);
    n.add_child_text("error_rate", common::strprintf("%.17g", h.error_rate));
    put_i64(n, "results_valid", h.results_valid);
    put_i64(n, "results_invalid", h.results_invalid);
    put_i64(n, "results_inconclusive", h.results_inconclusive);
    put_i64(n, "results_errored", h.results_errored);
  }
  for (const auto& [id, f] : files_) {
    XmlNode& n = root.add_child("file");
    put_i64(n, "id", f.id.value());
    n.add_child_text("name", f.name);
    put_i64(n, "size", f.size);
    put_digest(n, "digest", f.digest);
    put_i64(n, "on_server", f.on_server ? 1 : 0);
    if (f.on_host) put_i64(n, "on_host", f.on_host->value());
    put_i64(n, "reduce_partition", f.reduce_partition);
  }
  for (const auto& [id, w] : workunits_) {
    XmlNode& n = root.add_child("workunit");
    put_i64(n, "id", w.id.value());
    n.add_child_text("name", w.name);
    put_i64(n, "app", w.app.value());
    for (const FileId fid : w.input_files) put_i64(n, "input_file", fid.value());
    put_i64(n, "target_nresults", w.target_nresults);
    put_i64(n, "min_quorum", w.min_quorum);
    put_i64(n, "max_error_results", w.max_error_results);
    put_i64(n, "max_total_results", w.max_total_results);
    put_i64(n, "delay_bound_us", w.delay_bound.as_micros());
    put_i64(n, "canonical_found", w.canonical_found ? 1 : 0);
    put_i64(n, "canonical_result", w.canonical_result.value());
    put_digest(n, "canonical_digest", w.canonical_digest);
    put_i64(n, "assimilate_state", static_cast<int>(w.assimilate_state));
    put_i64(n, "error_mass", w.error_mass ? 1 : 0);
    put_i64(n, "audit", w.audit ? 1 : 0);
    n.add_child_text("flops_est", common::strprintf("%.17g", w.flops_est));
    put_i64(n, "mr_phase", static_cast<int>(w.mr_phase));
    put_i64(n, "mr_job", w.mr_job.value());
    put_i64(n, "mr_index", w.mr_index);
  }
  for (const auto& [id, r] : results_) {
    XmlNode& n = root.add_child("result");
    put_i64(n, "id", r.id.value());
    n.add_child_text("name", r.name);
    put_i64(n, "wu", r.wu.value());
    put_i64(n, "server_state", static_cast<int>(r.server_state));
    put_i64(n, "outcome", static_cast<int>(r.outcome));
    put_i64(n, "validate_state", static_cast<int>(r.validate_state));
    put_i64(n, "host", r.host.value());
    put_i64(n, "sent_us", r.sent_time.as_micros());
    put_i64(n, "deadline_us", r.report_deadline.as_micros());
    put_i64(n, "received_us", r.received_time.as_micros());
    put_digest(n, "output_digest", r.output_digest);
    put_i64(n, "output_bytes", r.output_bytes);
    put_i64(n, "output_on_server", r.output_on_server ? 1 : 0);
    for (const FileId fid : r.output_files) put_i64(n, "output_file", fid.value());
    n.add_child_text("claimed_credit", common::strprintf("%.17g", r.claimed_credit));
    n.add_child_text("granted_credit", common::strprintf("%.17g", r.granted_credit));
  }
  for (const auto& [id, j] : mr_jobs_) {
    XmlNode& n = root.add_child("mr_job");
    put_i64(n, "id", j.id.value());
    n.add_child_text("name", j.name);
    put_i64(n, "app", j.app.value());
    put_i64(n, "n_maps", j.n_maps);
    put_i64(n, "n_reducers", j.n_reducers);
    put_i64(n, "state", static_cast<int>(j.state));
    put_i64(n, "input_size", j.input_size);
    put_i64(n, "maps_validated", j.maps_validated);
    put_i64(n, "reduces_assimilated", j.reduces_assimilated);
    put_i64(n, "reduce_created", j.reduce_created ? 1 : 0);
    put_i64(n, "created_us", j.created.as_micros());
    put_i64(n, "map_first_sent_us", j.map_first_sent.as_micros());
    put_i64(n, "reduce_first_sent_us", j.reduce_first_sent.as_micros());
    put_i64(n, "map_done_us", j.map_done.as_micros());
    put_i64(n, "finished_us", j.finished.as_micros());
    for (const auto& loc : j.map_outputs) {
      XmlNode& l = n.add_child("map_output");
      put_i64(l, "map_index", loc.map_index);
      put_i64(l, "reduce_partition", loc.reduce_partition);
      put_i64(l, "file", loc.file.value());
      put_i64(l, "holder", loc.holder.value());
      put_i64(l, "ep_node", loc.endpoint.node.value());
      put_i64(l, "ep_port", loc.endpoint.port);
      put_i64(l, "mirrored", loc.mirrored_on_server ? 1 : 0);
    }
  }
  return root.to_string();
}

Database Database::load(const std::string& snapshot) {
  Database out;
  const auto root = common::xml_parse(snapshot);
  require(root->name() == "vcmr_db", "Database::load: bad snapshot root");

  for (const auto& c : root->all_children()) {
    const XmlNode& n = *c;
    if (n.name() == "app") {
      AppRecord a;
      a.id = AppId{n.child_i64("id")};
      a.name = n.child_text("name");
      out.apps_[a.id] = a;
      out.next_app_ = std::max(out.next_app_, a.id.value() + 1);
    } else if (n.name() == "host") {
      HostRecord h;
      h.id = HostId{n.child_i64("id")};
      h.name = n.child_text("name");
      h.node = NodeId{n.child_i64("node")};
      h.flops = n.child_double("flops");
      h.cores = static_cast<int>(n.child_i64("cores"));
      h.mr_capable = n.child_i64("mr_capable") != 0;
      h.mr_endpoint = {NodeId{n.child_i64("mr_node")},
                       static_cast<int>(n.child_i64("mr_port"))};
      h.total_credit = n.child_double("total_credit");
      h.consecutive_valid =
          static_cast<int>(n.child_i64("consecutive_valid", 0));
      h.error_rate = n.child_double("error_rate", h.error_rate);
      h.results_valid = n.child_i64("results_valid", 0);
      h.results_invalid = n.child_i64("results_invalid", 0);
      h.results_inconclusive = n.child_i64("results_inconclusive", 0);
      h.results_errored = n.child_i64("results_errored", 0);
      out.hosts_[h.id] = h;
      out.next_host_ = std::max(out.next_host_, h.id.value() + 1);
    } else if (n.name() == "file") {
      FileRecord f;
      f.id = FileId{n.child_i64("id")};
      f.name = n.child_text("name");
      f.size = n.child_i64("size");
      f.digest = get_digest(n, "digest");
      f.on_server = n.child_i64("on_server") != 0;
      if (n.has_child("on_host")) f.on_host = HostId{n.child_i64("on_host")};
      f.reduce_partition = static_cast<int>(n.child_i64("reduce_partition", -1));
      out.file_by_name_[f.name] = f.id;
      out.files_[f.id] = f;
      out.next_file_ = std::max(out.next_file_, f.id.value() + 1);
    } else if (n.name() == "workunit") {
      WorkUnitRecord w;
      w.id = WorkUnitId{n.child_i64("id")};
      w.name = n.child_text("name");
      w.app = AppId{n.child_i64("app")};
      for (const XmlNode* fc : n.children("input_file")) {
        std::int64_t v = 0;
        common::parse_i64(fc->text(), &v);
        w.input_files.push_back(FileId{v});
      }
      w.target_nresults = static_cast<int>(n.child_i64("target_nresults"));
      w.min_quorum = static_cast<int>(n.child_i64("min_quorum"));
      w.max_error_results = static_cast<int>(n.child_i64("max_error_results"));
      w.max_total_results = static_cast<int>(n.child_i64("max_total_results"));
      w.delay_bound = SimTime::micros(n.child_i64("delay_bound_us"));
      w.canonical_found = n.child_i64("canonical_found") != 0;
      w.canonical_result = ResultId{n.child_i64("canonical_result")};
      w.canonical_digest = get_digest(n, "canonical_digest");
      w.assimilate_state =
          static_cast<AssimilateState>(n.child_i64("assimilate_state"));
      w.error_mass = n.child_i64("error_mass") != 0;
      w.audit = n.child_i64("audit", 0) != 0;
      w.flops_est = n.child_double("flops_est");
      w.mr_phase = static_cast<MrPhase>(n.child_i64("mr_phase"));
      w.mr_job = MrJobId{n.child_i64("mr_job")};
      w.mr_index = static_cast<int>(n.child_i64("mr_index"));
      out.wu_by_name_[w.name] = w.id;
      out.workunits_[w.id] = w;
      out.transition_flag_[w.id] = false;
      out.next_wu_ = std::max(out.next_wu_, w.id.value() + 1);
    } else if (n.name() == "result") {
      ResultRecord r;
      r.id = ResultId{n.child_i64("id")};
      r.name = n.child_text("name");
      r.wu = WorkUnitId{n.child_i64("wu")};
      r.server_state = static_cast<ServerState>(n.child_i64("server_state"));
      r.outcome = static_cast<Outcome>(n.child_i64("outcome"));
      r.validate_state =
          static_cast<ValidateState>(n.child_i64("validate_state"));
      r.host = HostId{n.child_i64("host")};
      r.sent_time = SimTime::micros(n.child_i64("sent_us"));
      r.report_deadline = SimTime::micros(n.child_i64("deadline_us"));
      r.received_time = SimTime::micros(n.child_i64("received_us"));
      r.output_digest = get_digest(n, "output_digest");
      r.output_bytes = n.child_i64("output_bytes");
      r.output_on_server = n.child_i64("output_on_server") != 0;
      for (const XmlNode* fc : n.children("output_file")) {
        std::int64_t v = 0;
        common::parse_i64(fc->text(), &v);
        r.output_files.push_back(FileId{v});
      }
      r.claimed_credit = n.child_double("claimed_credit");
      r.granted_credit = n.child_double("granted_credit");
      out.results_by_wu_[r.wu].push_back(r.id);
      out.results_[r.id] = r;
      // Workunits precede results in the snapshot, so the audit flag that
      // classifies the ready queues is already loaded.
      if (r.server_state == ServerState::kUnsent) out.index_unsent(out.results_[r.id]);
      out.next_result_ = std::max(out.next_result_, r.id.value() + 1);
    } else if (n.name() == "mr_job") {
      MrJobRecord j;
      j.id = MrJobId{n.child_i64("id")};
      j.name = n.child_text("name");
      j.app = AppId{n.child_i64("app")};
      j.n_maps = static_cast<int>(n.child_i64("n_maps"));
      j.n_reducers = static_cast<int>(n.child_i64("n_reducers"));
      j.state = static_cast<MrJobState>(n.child_i64("state"));
      j.input_size = n.child_i64("input_size", 0);
      j.maps_validated = static_cast<int>(n.child_i64("maps_validated", 0));
      j.reduces_assimilated =
          static_cast<int>(n.child_i64("reduces_assimilated", 0));
      j.reduce_created = n.child_i64("reduce_created", 0) != 0;
      j.created = SimTime::micros(n.child_i64("created_us"));
      j.map_first_sent = SimTime::micros(
          n.child_i64("map_first_sent_us", SimTime::infinity().as_micros()));
      j.reduce_first_sent = SimTime::micros(
          n.child_i64("reduce_first_sent_us", SimTime::infinity().as_micros()));
      j.map_done = SimTime::micros(n.child_i64("map_done_us"));
      j.finished = SimTime::micros(n.child_i64("finished_us"));
      for (const XmlNode* lc : n.children("map_output")) {
        MapOutputLocation loc;
        loc.map_index = static_cast<int>(lc->child_i64("map_index"));
        loc.reduce_partition =
            static_cast<int>(lc->child_i64("reduce_partition"));
        loc.file = FileId{lc->child_i64("file")};
        loc.holder = HostId{lc->child_i64("holder")};
        loc.endpoint = {NodeId{lc->child_i64("ep_node")},
                        static_cast<int>(lc->child_i64("ep_port"))};
        loc.mirrored_on_server = lc->child_i64("mirrored") != 0;
        j.map_outputs.push_back(loc);
      }
      out.mr_jobs_[j.id] = j;
      out.next_job_ = std::max(out.next_job_, j.id.value() + 1);
    }
  }
  return out;
}

void Database::restore_from(const std::string& snapshot) {
  Database loaded = load(snapshot);
  // Autoincrement floors: ids minted between snapshot and crash stay
  // retired, so a reconciled client report can never collide with a
  // post-restore result under a recycled id.
  loaded.next_app_ = std::max(loaded.next_app_, next_app_);
  loaded.next_host_ = std::max(loaded.next_host_, next_host_);
  loaded.next_file_ = std::max(loaded.next_file_, next_file_);
  loaded.next_wu_ = std::max(loaded.next_wu_, next_wu_);
  loaded.next_result_ = std::max(loaded.next_result_, next_result_);
  loaded.next_job_ = std::max(loaded.next_job_, next_job_);
  *this = std::move(loaded);
}

}  // namespace vcmr::db
