#pragma once
// Scheduler RPC messages.
//
// BOINC's scheduler RPC is an XML POST from the client: it reports finished
// results and asks for work; the reply carries assigned results and backoff
// directives. BOINC-MR extends the reply with mapper locations for reduce
// tasks (§III.B: "the scheduler appends to each reduce result the address
// (IP and port) of mappers holding output for the same job").
//
// The simulator needs each message's values and its size on the wire, not
// its text. Client and scheduler hand these structs across net::HttpService
// as typed payloads, and the network charges wire_size(msg): the exact byte
// count of to_xml(msg), counted by the same emitter that prints it. The
// text itself (to_xml / *_from_xml) serves the tests, the wire-parser fuzz
// target and the VCMR_PROTO_CHECK=1 mode, which round-trips every charged
// message and requires it back unchanged.

#include <string>
#include <vector>

#include "common/hash.h"
#include "common/types.h"
#include "net/endpoint.h"

namespace vcmr::proto {

/// Map/reduce phase tag carried in task assignments (mirrors db::MrPhase
/// without depending on the db module).
enum class TaskPhase { kPlain = 0, kMap = 1, kReduce = 2 };

/// One output file a client produced (name + size + where it lives).
struct OutputFileInfo {
  std::string name;
  Bytes size = 0;
  common::Digest128 digest;
  bool uploaded = false;  ///< physically uploaded to the data server
  int reduce_partition = -1;  ///< for map outputs: which reducer wants it

  friend bool operator==(const OutputFileInfo&,
                         const OutputFileInfo&) = default;
};

/// A finished result being reported.
struct ReportedResult {
  std::int64_t result_id = -1;
  std::string name;
  bool success = false;
  common::Digest128 digest;   ///< digest of all outputs (quorum key)
  Bytes output_bytes = 0;
  double claimed_credit = 0;  ///< client's credit claim (validator clips it)
  std::vector<OutputFileInfo> outputs;

  friend bool operator==(const ReportedResult&,
                         const ReportedResult&) = default;
};

/// A failed inter-client map-output fetch, reported so the jobtracker can
/// invalidate the dead holder's locations (fast lost-work recovery).
struct FetchFailureReport {
  std::int64_t job_id = -1;
  int map_index = -1;
  std::int64_t holder_host = -1;

  friend bool operator==(const FetchFailureReport&,
                         const FetchFailureReport&) = default;
};

struct SchedulerRequest {
  std::int64_t host_id = -1;
  int tasks_queued = 0;              ///< work units on hand (running + queued)
  double remaining_work_seconds = 0;
  double work_request_seconds = 0;   ///< > 0 when the client wants work
  bool mr_capable = false;           ///< BOINC-MR client?
  net::Endpoint serving_endpoint;    ///< where this client serves map outputs
  /// Input files this client has cached and is serving (peer-assisted
  /// input distribution; the scheduler hands them out as PeerLocations).
  std::vector<std::string> cached_files;
  std::vector<ReportedResult> reports;
  /// Fast lost-work recovery (resend_lost_results): when true the client
  /// enumerated every result it still holds in `known_results`, and the
  /// scheduler reconciles the list against its in-progress records. The
  /// fields are only serialized when the mechanism is on, so a disabled
  /// client's request bytes are unchanged.
  bool knows_results = false;
  std::vector<std::int64_t> known_results;
  /// Exhausted peer fetches since the last delivered RPC (only serialized
  /// when non-empty).
  std::vector<FetchFailureReport> failed_fetches;
  /// Volunteer replica store advert: Bloom filter (common::BloomFilter
  /// serialize() encoding) of the chunk names this client is serving. Only
  /// serialized when non-empty, so clients without the store enabled send
  /// unchanged request bytes.
  std::string store_filter;

  friend bool operator==(const SchedulerRequest&,
                         const SchedulerRequest&) = default;
};

/// Where a reduce input can be fetched from.
struct PeerLocation {
  int map_index = -1;
  std::string file_name;
  Bytes size = 0;
  std::int64_t holder_host = -1;
  net::Endpoint endpoint;
  bool on_server = false;  ///< also mirrored on the project data server
  /// Volunteer-replica-store serve point: membership came from a Bloom
  /// filter, so the holder may turn out not to have the chunk — fetch
  /// misses redirect to the next source instead of counting as holder
  /// failures. Only serialized when true.
  bool from_store = false;

  friend bool operator==(const PeerLocation&, const PeerLocation&) = default;
};

struct InputFileSpec {
  std::string name;
  Bytes size = 0;
  bool on_server = true;            ///< fetchable from the data server
  std::vector<PeerLocation> peers;  ///< BOINC-MR alternatives

  friend bool operator==(const InputFileSpec&, const InputFileSpec&) = default;
};

struct AssignedTask {
  std::int64_t result_id = -1;
  std::string result_name;
  std::string wu_name;
  std::string app;
  TaskPhase phase = TaskPhase::kPlain;
  std::int64_t job_id = -1;
  int mr_index = -1;
  int n_maps = 0;
  int n_reducers = 0;
  double flops_estimate = 0;
  SimTime report_deadline;
  std::vector<InputFileSpec> inputs;
  /// Pipelined-reduce mode: assignment may precede some map validations;
  /// the client polls for the remaining locations in later RPCs.
  bool inputs_complete = true;

  friend bool operator==(const AssignedTask&, const AssignedTask&) = default;
};

/// Late-arriving peer locations for a previously assigned reduce task.
struct LocationUpdate {
  std::int64_t result_id = -1;
  std::vector<PeerLocation> peers;
  bool complete = false;  ///< all map inputs are now known

  friend bool operator==(const LocationUpdate&,
                         const LocationUpdate&) = default;
};

struct SchedulerReply {
  std::vector<AssignedTask> tasks;
  std::vector<LocationUpdate> location_updates;
  /// Server-imposed minimum delay before the next RPC.
  SimTime request_delay = SimTime::zero();
  /// False when the server had nothing feedable: the client backs off
  /// exponentially (§IV.B).
  bool had_work = false;
  /// Mitigation E4: server asks clients to report map results immediately
  /// instead of batching them into the next work-fetch RPC.
  bool report_map_results_immediately = false;
  /// §III.C: the server still needs this client's validated map outputs
  /// (some reduce work is unfinished), so the client must re-arm its serve
  /// timeouts ("the map outputs' timeout is reset ... and the file becomes
  /// available for upload").
  bool keep_serving = false;

  friend bool operator==(const SchedulerReply&,
                         const SchedulerReply&) = default;
};

// --- XML wire format ---------------------------------------------------------
std::string to_xml(const SchedulerRequest& req);
std::string to_xml(const SchedulerReply& reply);
SchedulerRequest request_from_xml(const std::string& xml);
SchedulerReply reply_from_xml(const std::string& xml);

/// Exact size of to_xml(msg) in bytes, counted without building the text:
/// what the simulated network charges for the message. With the
/// environment variable VCMR_PROTO_CHECK set (read once per process), each
/// call also prints and parses the message and throws vcmr::Error unless
/// the parse equals `msg` and the text is the counted size.
Bytes wire_size(const SchedulerRequest& req);
Bytes wire_size(const SchedulerReply& reply);

}  // namespace vcmr::proto
