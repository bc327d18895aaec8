#pragma once
// Scenario serialization: a BOINC project is configured through XML files
// on disk, and VCMR scenarios follow suit. `<scenario>` documents drive the
// vcmr_sim command-line tool and make experiment configurations diffable
// artifacts rather than code.

#include <string>

#include "core/cluster.h"

namespace vcmr::core {

/// Parses a `<scenario>` document; unspecified fields keep Scenario
/// defaults. Throws vcmr::Error on malformed input, and on any `*_s` time
/// outside [-SimTime::kMaxInputSeconds, SimTime::kMaxInputSeconds] (NaN and
/// infinities included) or, for a fault instant, below 0, naming the
/// element's line. Recognised children:
///
///   <seed> <nodes> <maps> <reducers> <input_mb> <app>
///   <boinc_mr> <record_trace> <time_limit_s>
///   <project>  — mr_jobtracker-style knobs: <target_nresults> <min_quorum>
///                <mirror_map_outputs> <report_map_results_immediately>
///                <pipelined_reduce> <delay_bound_s> <max_wus_in_progress>
///   <replication policy="fixed|adaptive">
///              — vcmr::rep knobs: <min_consecutive_valid> <max_error_rate>
///                <spot_check_probability> <error_rate_prior>
///                <error_rate_decay> <trust_max_skips>
///   <client>   — <work_buf_min_s> <backoff_min_s> <backoff_max_s>
///                <max_file_xfers> <report_results_immediately>
///                <peer_fetch_attempts>
///   <server_link> — <up_mbps> <down_mbps> <latency_ms>
///   <hosts>    — <preset>emulab|internet</preset> (internet draws from the
///                scenario seed)
///   <churn>    — <mean_on_s> <mean_off_s>
///   <nat>      — <open> <full_cone> <restricted> <port_restricted>
///                <symmetric> fractions; enables traversal
///   <overlay>  — presence enables the supernode overlay
///   <byzantine>— <faulty_fraction> <error_probability>
///   <flow_failure_rate>
Scenario scenario_from_xml(const std::string& xml);

/// Serializes the scenario's settable fields back to XML (host lists and
/// per-host arrays are re-derived from presets/seeds on load).
std::string scenario_to_xml(const Scenario& s);

}  // namespace vcmr::core
