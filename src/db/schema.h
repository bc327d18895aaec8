#pragma once
// Record types of the project database.
//
// These mirror the slice of BOINC's MySQL schema that the paper's
// mechanisms live on: workunits and results with their three state axes
// (server_state / outcome / validate_state), file infos, hosts, apps —
// plus the BOINC-MR additions: a MapReduce job record and the map-output
// location registry the JobTracker keeps (§III.B: "Information on which
// users ran map tasks for each MapReduce job is saved on the central
// database").

#include <optional>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/types.h"
#include "net/endpoint.h"

namespace vcmr::db {

/// Where a result instance is in its server-side lifecycle.
enum class ServerState {
  kInactive,    ///< created but not yet feedable
  kUnsent,      ///< ready to be handed to a host
  kInProgress,  ///< sent to a host, awaiting report
  kOver,        ///< reported, timed out, or aborted
};
const char* to_string(ServerState s);

/// How a finished result ended.
enum class Outcome {
  kInit,         ///< not over yet
  kSuccess,
  kCouldntSend,
  kClientError,
  kNoReply,      ///< deadline passed without a report
  kValidateError,
  kAbandoned,
  // Appended (not inserted): snapshots serialize outcomes as integers.
  kLost,         ///< client lost the work (crash/restart) or its outputs
};
const char* to_string(Outcome o);

enum class ValidateState {
  kInit,          ///< not validated yet
  kValid,
  kInvalid,
  kInconclusive,  ///< no quorum yet
};
const char* to_string(ValidateState v);

enum class AssimilateState { kInit, kReady, kDone };

/// A named file known to the project: inputs staged on the data server,
/// or outputs living on the uploading client (BOINC-MR keeps map outputs
/// client-side) and optionally mirrored to the server.
struct FileRecord {
  FileId id;
  std::string name;
  Bytes size = 0;
  common::Digest128 digest;
  bool on_server = false;               ///< staged/mirrored at the data server
  std::optional<HostId> on_host;        ///< client currently holding it
  int reduce_partition = -1;  ///< for map outputs: the reducer that wants it
};

/// Which MapReduce phase a workunit belongs to.
enum class MrPhase { kNone, kMap, kReduce };

struct WorkUnitRecord {
  WorkUnitId id;
  std::string name;
  AppId app;
  std::vector<FileId> input_files;

  // Replication / validation policy (paper: 2 results per WU, quorum 2).
  int target_nresults = 2;
  int min_quorum = 2;
  int max_error_results = 6;
  int max_total_results = 12;
  SimTime delay_bound = SimTime::hours(24);  ///< per-result report deadline

  bool canonical_found = false;
  ResultId canonical_result;
  common::Digest128 canonical_digest;
  AssimilateState assimilate_state = AssimilateState::kInit;
  bool error_mass = false;  ///< too many errors; WU abandoned
  /// Spot-check escalation (vcmr::rep): the feeder dispatches audit results
  /// ahead of bulk work so trust verdicts don't queue behind the cache.
  bool audit = false;

  /// Estimated work per result (BOINC's rsc_fpops_est); drives both the
  /// scheduler's fill-the-request-seconds matchmaking and client runtime.
  double flops_est = 0.0;

  // BOINC-MR annotations (what the paper's <mapreduce> WU template tag names).
  MrPhase mr_phase = MrPhase::kNone;
  MrJobId mr_job;
  int mr_index = -1;  ///< map index in [0,M) or reduce partition in [0,R)
};

struct ResultRecord {
  ResultId id;
  std::string name;
  WorkUnitId wu;

  ServerState server_state = ServerState::kInactive;
  Outcome outcome = Outcome::kInit;
  ValidateState validate_state = ValidateState::kInit;

  HostId host;                       ///< assignee once sent
  SimTime sent_time;
  SimTime report_deadline;
  SimTime received_time;

  // What the client reported. BOINC-MR reports digests of map outputs
  // instead of shipping the files (§III.B).
  common::Digest128 output_digest;
  Bytes output_bytes = 0;
  bool output_on_server = false;     ///< payload physically uploaded
  std::vector<FileId> output_files;

  /// BOINC's credit flow: the client claims credit with its report; the
  /// validator grants the quorum's minimum claim to every valid replica,
  /// so inflated claims from cheaters are clipped by honest ones.
  double claimed_credit = 0;
  double granted_credit = 0;
};

struct HostRecord {
  HostId id;
  std::string name;
  NodeId node;          ///< network attachment point
  double flops = 3e9;   ///< effective flops for task duration
  int cores = 1;
  bool mr_capable = false;  ///< BOINC-MR client (supports inter-client xfer)
  net::Endpoint mr_endpoint;  ///< where it serves map outputs
  double total_credit = 0;    ///< lifetime granted credit

  // Validation history kept by vcmr::rep (BOINC's adaptive-replication host
  // fields). `error_rate` starts at the pessimistic prior and is
  // exponentially decayed toward each validate outcome; any invalid result
  // or runtime error resets the consecutive-valid streak.
  int consecutive_valid = 0;
  double error_rate = 0.1;
  std::int64_t results_valid = 0;
  std::int64_t results_invalid = 0;
  std::int64_t results_inconclusive = 0;
  std::int64_t results_errored = 0;  ///< client errors + timeouts
};

struct AppRecord {
  AppId id;
  std::string name;
};

/// One mapper's validated output for one reduce partition.
struct MapOutputLocation {
  int map_index = -1;
  int reduce_partition = -1;
  FileId file;
  HostId holder;               ///< canonical host serving the file
  net::Endpoint endpoint;      ///< its inter-client address (IP:port)
  bool mirrored_on_server = false;
};

enum class MrJobState { kMapPhase, kReducePhase, kDone, kFailed };

struct MrJobRecord {
  MrJobId id;
  std::string name;
  AppId app;
  int n_maps = 0;
  int n_reducers = 0;
  MrJobState state = MrJobState::kMapPhase;
  std::vector<MapOutputLocation> map_outputs;  ///< filled as maps validate
  Bytes input_size = 0;          ///< total input, recorded at submission
  int maps_validated = 0;        ///< map WUs with a canonical result
  int reduces_assimilated = 0;   ///< reduce WUs assimilated
  bool reduce_created = false;   ///< reduce WUs exist
  SimTime created;
  SimTime map_first_sent = SimTime::infinity();    ///< first map assignment
  SimTime reduce_first_sent = SimTime::infinity(); ///< first reduce assignment
  SimTime map_done;   ///< all map WUs validated
  SimTime finished;   ///< all reduce WUs assimilated
};

}  // namespace vcmr::db
