#pragma once
// Scenario serialization: a BOINC project is configured through XML files
// on disk, and VCMR scenarios follow suit. `<scenario>` documents drive the
// vcmr_run command-line tool and make experiment configurations diffable
// artifacts rather than code.

#include <string>

#include "core/cluster.h"

namespace vcmr::core {

/// Parses a `<scenario>` document, the one configuration document: its
/// <project>, <replication> and <volunteer_store> blocks fill the
/// server::ProjectConfig that the project's daemons and every client read.
/// Unspecified fields keep Scenario defaults. Throws vcmr::Error on
/// malformed input, on a number element whose text does not parse, on any
/// `*_s` time outside [-SimTime::kMaxInputSeconds, SimTime::kMaxInputSeconds]
/// (NaN and infinities included) or, for a fault instant, below 0, and on
/// a duration below its floor: <time_limit_s>, <delay_bound_s>,
/// <snapshot_period_s>, <advert_ttl_s> and <backoff_min_s> must be
/// positive, and <backoff_max_s> >= <backoff_min_s>. Errors name the
/// element's line. Recognised children:
///
///   <seed> <nodes> <maps> <reducers> <input_mb> <app>
///   <boinc_mr> <record_trace> <time_limit_s>
///   <project>  — <target_nresults> <min_quorum> <mirror_map_outputs>
///                <report_map_results_immediately> <pipelined_reduce>
///                <resend_lost_results> <report_fetch_failures>
///                <delay_bound_s> <max_wus_in_progress> <snapshot_period_s>
///   <replication policy="fixed|adaptive">
///              — vcmr::rep knobs: <min_consecutive_valid> <max_error_rate>
///                <spot_check_probability> <error_rate_prior>
///                <error_rate_decay> <trust_max_skips>
///   <client>   — <work_buf_min_s> <backoff_min_s> <backoff_max_s>
///                <max_file_xfers> <report_results_immediately>
///                <peer_fetch_attempts>
///   <data_servers> — <shards>
///   <volunteer_store> — <enabled> <filter_bits> <filter_hashes>
///                <max_store_peers> <advert_ttl_s> <dispatch_gate_width>
///                <dispatch_max_skips>
///   <server_link> — <up_mbps> <down_mbps> <latency_ms>
///   <hosts>    — <preset>emulab|internet</preset> (internet draws from the
///                scenario seed)
///   <churn>    — <mean_on_s> <mean_off_s>
///   <nat>      — <open> <full_cone> <restricted> <port_restricted>
///                <symmetric> fractions; enables traversal
///   <overlay>  — presence enables the supernode overlay
///   <byzantine>— <faulty_fraction> <error_probability>
///   <flow_failure_rate>
///   <faults>   — <link_fault> <partition> <server_outage> <crash> <group>
///                <group_fault> <link_degrade> <server_crash> <link_flap>
///                <trace file="..."/> <upload_corruption_rate>
///                <rpc_loss_rate>
///   <workflow> — <node name="..."> with <app> <maps> <reducers>
///                <input_mb> <input_text> <shared_input> <deps> <iterate>
Scenario scenario_from_xml(const std::string& xml);

/// Serializes the scenario's settable fields back to XML (host lists and
/// per-host arrays are re-derived from presets/seeds on load).
std::string scenario_to_xml(const Scenario& s);

}  // namespace vcmr::core
