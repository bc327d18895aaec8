#pragma once
// vcmr::wf — event-driven workflow execution over the BOINC-MR server.
//
// The WorkflowCoordinator drives a validated WorkflowGraph through the
// existing JobTracker. It never polls: it installs the JobTracker's
// job-finished listener, and the instant a job's last reduce output is
// assimilated it collects the node's canonical reduce outputs from the
// storage tier and submits every downstream node whose upstreams are now
// all done — inside the same assimilator pass, at the same simulated
// instant. Iterative nodes are resubmitted with their own merged output as
// the next iteration's input until the convergence predicate (largest
// per-key delta below the threshold) holds or max_iterations runs out.
//
// Telemetry: per-node makespan / dispatch-wait / backoff / iteration
// roll-up gauges in vcmr::obs (component "wf"), and — when the simulation
// records a trace — one stage span per iteration plus "wf" points (node
// finished / failed / skipped, iteration deltas) on a "workflow" track, so
// --trace-out renders the DAG schedule above the per-host timelines.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "mr/keyvalue.h"
#include "server/project.h"
#include "sim/simulation.h"
#include "workflow/workflow.h"

namespace vcmr::wf {

/// Stats for one submitted job (one iteration of one node).
struct NodeRun {
  MrJobId job;
  int iteration = 0;            ///< 0-based
  double makespan_s = 0;        ///< submit -> last reduce assimilated
  double dispatch_wait_s = 0;   ///< submit -> first map assignment
  /// Fleet-wide backoff draws during this run's window. Concurrent nodes
  /// overlap in time, so concurrent runs can count the same draw.
  std::int64_t backoffs = 0;
};

struct NodeOutcome {
  enum class State {
    kWaiting,  ///< upstreams not all done yet
    kRunning,  ///< submitted, not finished
    kDone,
    kFailed,   ///< the underlying job failed
    kSkipped,  ///< an upstream failed; never submitted
  };

  std::string name;
  State state = State::kWaiting;
  std::vector<NodeRun> runs;  ///< one entry per iteration submitted
  int iterations = 0;         ///< runs completed
  bool converged = false;     ///< iterative node met its threshold
  SimTime submitted_at = SimTime::infinity();  ///< first iteration submit
  SimTime finished_at = SimTime::infinity();
  /// Merged, key-sorted canonical reduce output (materialised runs only).
  std::vector<mr::KeyValue> output;
  /// Total bytes of the canonical reduce outputs (modelled + materialised).
  Bytes output_bytes = 0;
};

class WorkflowCoordinator {
 public:
  WorkflowCoordinator(sim::Simulation& sim, server::Project& project,
                      WorkflowGraph graph);
  ~WorkflowCoordinator();

  WorkflowCoordinator(const WorkflowCoordinator&) = delete;
  WorkflowCoordinator& operator=(const WorkflowCoordinator&) = delete;

  /// Installs the job-finished listener and submits every root node. Call
  /// once; the simulation then runs the workflow to completion (use
  /// settled() as the run_until predicate).
  void start();

  /// Every node reached a terminal state (done / failed / skipped).
  bool settled() const;
  /// settled() and every node is done.
  bool succeeded() const;

  const WorkflowGraph& graph() const { return graph_; }
  const std::vector<NodeOutcome>& outcomes() const { return outcomes_; }
  const NodeOutcome& outcome(int node) const {
    return outcomes_.at(static_cast<std::size_t>(node));
  }
  /// Merged, key-sorted output of all sink nodes (materialised mode).
  std::vector<mr::KeyValue> final_output() const;

 private:
  void submit_node(int node);
  void submit_iteration(int node, const server::MrJobSpec& spec);
  void on_job_finished(MrJobId job);
  void finish_node(int node, SimTime now);
  void fail_node(int node, SimTime now, NodeOutcome::State state);
  /// Collects node output from storage into outcome.output/output_bytes.
  void collect_node_output(int node, MrJobId job);
  /// Largest per-key |delta| between two merged outputs (values parsed as
  /// leading doubles; a key present on one side only contributes |value|).
  static double max_delta(const std::vector<mr::KeyValue>& prev,
                          const std::vector<mr::KeyValue>& cur);

  sim::Simulation& sim_;
  server::Project& project_;
  WorkflowGraph graph_;
  std::vector<NodeOutcome> outcomes_;
  std::map<MrJobId, int> job_to_node_;
  std::vector<std::size_t> span_;           ///< open trace span per node
  /// Fleet backoffs at submit: client/backoff_seconds observations summed
  /// over hosts, so a run's delta counts the empty-handed volunteer
  /// returns while that stage ran.
  std::vector<std::int64_t> backoff_base_;
  std::vector<std::vector<mr::KeyValue>> prev_output_;  ///< per-node, iters
  std::vector<char> materialised_;  ///< last run's outputs all materialised
  bool started_ = false;
};

}  // namespace vcmr::wf
