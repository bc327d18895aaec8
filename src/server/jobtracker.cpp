#include "server/jobtracker.h"

#include <algorithm>

#include "common/error.h"
#include "common/logging.h"
#include "mr/app.h"
#include "mr/dataset.h"

namespace vcmr::server {

namespace {
common::Logger log_("jobtracker");
}

JobTracker::JobTracker(sim::Simulation& sim, db::Database& db,
                       store::StorageTier& data, const ProjectConfig& cfg)
    : sim_(sim), db_(db), data_(data), cfg_(cfg) {}

std::string JobTracker::map_input_name(const std::string& job, int map_index) {
  return job + "_map_" + std::to_string(map_index) + "_input";
}

std::string JobTracker::map_output_name(const std::string& result_name,
                                        int partition) {
  return result_name + ".part" + std::to_string(partition);
}

std::string JobTracker::reduce_output_name(const std::string& result_name) {
  return result_name + ".out";
}

void JobTracker::create_wu(const db::MrJobRecord& job, db::MrPhase phase,
                           int index, double flops_est,
                           std::vector<FileId> inputs) {
  // Replication a freshly staged WU starts with (vcmr::rep decision).
  const rep::Replication repl = rep::initial_replication(
      cfg_.reputation, {cfg_.target_nresults, cfg_.min_quorum});
  db::WorkUnitRecord wu;
  wu.name = job.name + (phase == db::MrPhase::kMap ? "_map_" : "_reduce_") +
            std::to_string(index);
  wu.app = job.app;
  wu.input_files = std::move(inputs);
  wu.target_nresults = repl.target_nresults;
  wu.min_quorum = repl.min_quorum;
  wu.max_error_results = cfg_.max_error_results;
  wu.max_total_results = cfg_.max_total_results;
  wu.delay_bound = cfg_.delay_bound;
  wu.mr_phase = phase;
  wu.mr_job = job.id;
  wu.mr_index = index;
  wu.flops_est = flops_est;
  db_.create_workunit(wu);
}

MrJobId JobTracker::submit(const MrJobSpec& spec) {
  mr::register_builtin_apps();
  const mr::MapReduceApp* app = mr::AppRegistry::instance().find(spec.app);
  require(app != nullptr, "JobTracker::submit: unknown app");
  require(spec.input_text.has_value() || spec.input_size > 0,
          "JobTracker::submit: job needs input text or a modelled size");

  const int n_maps = spec.n_maps > 0 ? spec.n_maps : kDefaultMaps;
  const int n_reducers =
      spec.n_reducers > 0 ? spec.n_reducers : kDefaultReducers;

  db::MrJobRecord proto;
  proto.name = spec.name;
  proto.n_maps = n_maps;
  proto.n_reducers = n_reducers;
  proto.created = sim_.now();
  db::AppRecord& app_rec = db_.create_app(spec.app);
  proto.app = app_rec.id;
  db::MrJobRecord& job = db_.create_mr_job(proto);
  const mr::CostModel cost = app->cost();

  // Split the input into one chunk per map, or into the single file every
  // map work unit of a parameter sweep reads.
  const int n_files = spec.shared_input ? 1 : n_maps;
  std::vector<mr::FilePayload> chunks;
  if (spec.input_text) {
    for (auto& text : mr::split_text(*spec.input_text, n_files)) {
      chunks.push_back(mr::FilePayload::of_content(std::move(text)));
    }
  } else {
    for (const Bytes size : mr::split_sizes(spec.input_size, n_files)) {
      // Deterministic digest: modelled inputs have no bytes to hash.
      chunks.push_back(mr::FilePayload::of_size(
          size, common::Hasher{}.update(spec.name).update_u64(
                    static_cast<std::uint64_t>(chunks.size())).digest()));
    }
  }
  job.input_size = spec.shared_input ? chunks.front().size
                   : spec.input_text
                       ? static_cast<Bytes>(spec.input_text->size())
                       : spec.input_size;

  // Stage each file on the data server and register it in the db just
  // before the first work unit that reads it.
  FileId input;
  for (int i = 0; i < n_maps; ++i) {
    const mr::FilePayload& chunk =
        chunks[static_cast<std::size_t>(spec.shared_input ? 0 : i)];
    if (i < n_files) {
      db::FileRecord frec;
      frec.name = spec.shared_input ? spec.name + "_shared_input"
                                    : map_input_name(spec.name, i);
      frec.size = chunk.size;
      frec.digest = chunk.digest;
      frec.on_server = true;
      input = db_.create_file(frec).id;
      data_.stage(frec.name, chunk);
    }
    create_wu(job, db::MrPhase::kMap, i,
              cost.map_flops_per_byte * static_cast<double>(chunk.size),
              {input});
  }

  if (spec.shared_input) {
    log_.info("submitted sweep job '", spec.name, "': ", n_maps,
              " maps over one shared ", job.input_size, "-byte input");
  } else {
    log_.info("submitted job '", spec.name, "': ", n_maps, " maps, ",
              n_reducers, " reducers, input ", job.input_size, " bytes");
  }
  return job.id;
}

void JobTracker::create_reduce_wus(db::MrJobRecord& job) {
  if (job.reduce_created) return;
  job.reduce_created = true;

  const mr::MapReduceApp* app =
      mr::AppRegistry::instance().find(db_.app(job.app).name);
  require(app != nullptr, "JobTracker: job's app is not registered");
  const mr::CostModel cost = app->cost();
  // Expected reduce input: the whole intermediate volume over R partitions.
  const double inter_bytes =
      static_cast<double>(job.input_size) * cost.map_output_ratio;
  const double flops =
      cost.reduce_flops_per_byte * inter_bytes / job.n_reducers;

  for (int r = 0; r < job.n_reducers; ++r) {
    create_wu(job, db::MrPhase::kReduce, r, flops, {});
  }
  log_.info("job '", job.name, "': created ", job.n_reducers,
            " reduce work units");
}

void JobTracker::wu_validated(WorkUnitId wid) {
  const db::WorkUnitRecord& wu = db_.workunit(wid);
  if (wu.mr_phase != db::MrPhase::kMap) return;
  db::MrJobRecord& job = db_.mr_job(wu.mr_job);

  // Register the canonical replica's outputs as fetchable locations.
  const db::ResultRecord& canonical = db_.result(wu.canonical_result);
  const db::HostRecord& holder = db_.host(canonical.host);
  for (const FileId fid : canonical.output_files) {
    const db::FileRecord& f = db_.file(fid);
    db::MapOutputLocation loc;
    loc.map_index = wu.mr_index;
    loc.reduce_partition = f.reduce_partition;
    loc.file = fid;
    loc.holder = holder.id;
    loc.endpoint = holder.mr_endpoint;
    loc.mirrored_on_server = f.on_server;
    job.map_outputs.push_back(loc);
  }

  ++job.maps_validated;
  if (cfg_.pipelined_reduce && !job.reduce_created) {
    create_reduce_wus(job);  // eager creation, mitigation E5
  }
  // The state check keeps this single-shot when a map re-validates after a
  // fetch-failure invalidation brought the count back below n_maps.
  if (job.maps_validated == job.n_maps &&
      job.state == db::MrJobState::kMapPhase) {
    job.map_done = sim_.now();
    job.state = db::MrJobState::kReducePhase;
    create_reduce_wus(job);
    log_.info("job '", job.name, "': map phase complete at ",
              job.map_done.str());
  }
}

JobTracker::FetchFailureAction JobTracker::note_fetch_failure(MrJobId jid,
                                                              int map_index,
                                                              HostId holder) {
  db::MrJobRecord* job = nullptr;
  try {
    job = &db_.mr_job(jid);
  } catch (const Error&) {
    return FetchFailureAction::kStale;
  }
  if (job->state == db::MrJobState::kDone ||
      job->state == db::MrJobState::kFailed) {
    return FetchFailureAction::kStale;
  }

  const auto matches = [&](const db::MapOutputLocation& loc) {
    return loc.map_index == map_index && loc.holder == holder;
  };
  bool any = false;
  bool mirrored = false;
  for (const auto& loc : job->map_outputs) {
    if (!matches(loc)) continue;
    any = true;
    mirrored = mirrored || loc.mirrored_on_server;
  }
  // Already invalidated (another reducer reported first) or the map was
  // since re-validated on a different holder: nothing to do.
  if (!any) return FetchFailureAction::kStale;
  // Server-mirrored outputs: the reducer's fallback download succeeds, so
  // the registered locations stay useful for locality and future replicas.
  if (mirrored) return FetchFailureAction::kMirrored;

  job->map_outputs.erase(std::remove_if(job->map_outputs.begin(),
                                        job->map_outputs.end(), matches),
                         job->map_outputs.end());
  --job->maps_validated;

  for (const WorkUnitId wid : db_.workunits_of_job(jid, db::MrPhase::kMap)) {
    db::WorkUnitRecord& wu = db_.workunit(wid);
    if (wu.mr_index != map_index) continue;
    wu.canonical_found = false;
    wu.canonical_result = ResultId{};
    wu.canonical_digest = {};
    wu.assimilate_state = db::AssimilateState::kInit;
    for (const ResultId rid : db_.results_of(wid)) {
      db::ResultRecord& r = db_.result(rid);
      if (r.server_state == db::ServerState::kOver &&
          r.outcome == db::Outcome::kSuccess) {
        // The files behind every finished replica are unreachable (the
        // canonical holder is dead, siblings have withdrawn): none can
        // seed the new quorum.
        r.outcome = db::Outcome::kLost;
        r.validate_state = db::ValidateState::kInvalid;
      }
    }
    db_.flag_transition(wid);
    log_.info("job '", job->name, "': map ", map_index,
              " outputs lost with holder host ", holder.value(),
              "; re-running");
    break;
  }
  return FetchFailureAction::kInvalidated;
}

void JobTracker::wu_assimilated(WorkUnitId wid) {
  const db::WorkUnitRecord& wu = db_.workunit(wid);
  if (wu.mr_phase != db::MrPhase::kReduce) return;
  db::MrJobRecord& job = db_.mr_job(wu.mr_job);
  ++job.reduces_assimilated;
  if (job.reduces_assimilated == job.n_reducers &&
      job.state != db::MrJobState::kFailed) {
    job.state = db::MrJobState::kDone;
    job.finished = sim_.now();
    log_.info("job '", job.name, "' finished at ", job.finished.str());
    if (on_finished_) on_finished_(job.id);
  }
}

void JobTracker::wu_errored(WorkUnitId wid) {
  const db::WorkUnitRecord& wu = db_.workunit(wid);
  if (wu.mr_phase == db::MrPhase::kNone) return;
  db::MrJobRecord& job = db_.mr_job(wu.mr_job);
  if (job.state == db::MrJobState::kFailed) return;
  job.state = db::MrJobState::kFailed;
  job.finished = sim_.now();
  log_.warn("job '", job.name, "' failed: work unit ", wu.name,
            " exceeded its error limit");
  if (on_finished_) on_finished_(job.id);
}

std::vector<proto::PeerLocation> JobTracker::locations_for(MrJobId jid,
                                                           int r) const {
  std::vector<proto::PeerLocation> out;
  const db::MrJobRecord& job = db_.mr_job(jid);
  for (const auto& loc : job.map_outputs) {
    if (loc.reduce_partition != r) continue;
    const db::FileRecord& f = db_.file(loc.file);
    proto::PeerLocation p;
    p.map_index = loc.map_index;
    p.file_name = f.name;
    p.size = f.size;
    p.holder_host = loc.holder.value();
    p.endpoint = loc.endpoint;
    p.on_server = loc.mirrored_on_server;
    out.push_back(std::move(p));
  }
  std::sort(out.begin(), out.end(),
            [](const proto::PeerLocation& a, const proto::PeerLocation& b) {
              return a.map_index < b.map_index;
            });
  return out;
}

bool JobTracker::locations_complete(MrJobId jid) const {
  const db::MrJobRecord& job = db_.mr_job(jid);
  return job.maps_validated == job.n_maps;
}

void JobTracker::note_assignment(MrJobId jid, db::MrPhase phase, SimTime now) {
  db::MrJobRecord& job = db_.mr_job(jid);
  if (phase == db::MrPhase::kMap && now < job.map_first_sent) {
    job.map_first_sent = now;
  } else if (phase == db::MrPhase::kReduce && now < job.reduce_first_sent) {
    job.reduce_first_sent = now;
  }
}

bool JobTracker::host_outputs_needed(HostId host) const {
  bool needed = false;
  db_.for_each_mr_job([&](const db::MrJobRecord& job) {
    if (needed) return;
    if (job.state == db::MrJobState::kDone ||
        job.state == db::MrJobState::kFailed) {
      return;
    }
    for (const auto& loc : job.map_outputs) {
      if (loc.holder == host) {
        needed = true;
        return;
      }
    }
  });
  return needed;
}

bool JobTracker::job_done(MrJobId jid) const {
  return db_.mr_job(jid).state == db::MrJobState::kDone;
}

bool JobTracker::job_failed(MrJobId jid) const {
  return db_.mr_job(jid).state == db::MrJobState::kFailed;
}

std::vector<std::string> JobTracker::output_file_names(MrJobId jid) const {
  std::vector<std::string> out;
  for (const WorkUnitId wid :
       db_.workunits_of_job(jid, db::MrPhase::kReduce)) {
    const db::WorkUnitRecord& wu = db_.workunit(wid);
    if (!wu.canonical_found) continue;
    const db::ResultRecord& canonical = db_.result(wu.canonical_result);
    for (const FileId fid : canonical.output_files) {
      out.push_back(db_.file(fid).name);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace vcmr::server
