#include "workflow/coordinator.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>

#include "common/error.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "sim/trace.h"

namespace vcmr::wf {

namespace {

common::Logger log_("workflow");

/// Leading double of a value string ("0.25|a,b" reads 0.25; non-numeric
/// values read 0, so textual outputs converge only when byte-stable keys
/// keep delta at 0).
double leading_double(const std::string& v) {
  return std::strtod(v.c_str(), nullptr);
}

}  // namespace

WorkflowCoordinator::WorkflowCoordinator(sim::Simulation& sim,
                                         server::Project& project,
                                         WorkflowGraph graph)
    : sim_(sim), project_(project), graph_(std::move(graph)) {
  const std::size_t n = graph_.nodes().size();
  outcomes_.resize(n);
  span_.assign(n, 0);
  backoff_base_.assign(n, 0);
  prev_output_.resize(n);
  materialised_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    outcomes_[i].name = graph_.nodes()[i].job.name;
  }
}

WorkflowCoordinator::~WorkflowCoordinator() {
  // The listener captures `this`; never leave it dangling on the project.
  if (started_) project_.jobtracker().set_job_finished_listener({});
}

void WorkflowCoordinator::start() {
  require(!started_, "WorkflowCoordinator::start called twice");
  started_ = true;
  project_.jobtracker().set_job_finished_listener(
      [this](MrJobId job) { on_job_finished(job); });
  for (const int root : graph_.roots()) submit_node(root);
}

bool WorkflowCoordinator::settled() const {
  for (const NodeOutcome& o : outcomes_) {
    if (o.state == NodeOutcome::State::kWaiting ||
        o.state == NodeOutcome::State::kRunning) {
      return false;
    }
  }
  return true;
}

bool WorkflowCoordinator::succeeded() const {
  for (const NodeOutcome& o : outcomes_) {
    if (o.state != NodeOutcome::State::kDone) return false;
  }
  return true;
}

std::vector<mr::KeyValue> WorkflowCoordinator::final_output() const {
  std::vector<mr::KeyValue> out;
  for (const int s : graph_.sinks()) {
    const NodeOutcome& o = outcomes_[static_cast<std::size_t>(s)];
    out.insert(out.end(), o.output.begin(), o.output.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

void WorkflowCoordinator::submit_node(int node) {
  const std::size_t i = static_cast<std::size_t>(node);
  server::MrJobSpec spec = graph_.nodes()[i].job;
  const std::vector<int>& ups = graph_.upstream()[i];
  if (!ups.empty()) {
    // Input = the merged canonical reduce outputs of every upstream.
    // All-materialised upstreams chain real text (merged, key-sorted,
    // line-serialized, as the local multi-stage oracles expect); otherwise
    // the node runs modelled on the summed upstream output bytes.
    bool all_mat = true;
    for (const int up : ups) {
      if (!materialised_[static_cast<std::size_t>(up)]) all_mat = false;
    }
    if (all_mat) {
      std::vector<mr::KeyValue> merged;
      for (const int up : ups) {
        const auto& o = outcomes_[static_cast<std::size_t>(up)].output;
        merged.insert(merged.end(), o.begin(), o.end());
      }
      std::sort(merged.begin(), merged.end());
      std::string text = mr::serialize_kvs(merged);
      if (text.empty()) {
        throw Error("workflow: node '" + spec.name +
                    "' received empty upstream output");
      }
      spec.input_text = std::move(text);
      spec.input_size = 0;
    } else {
      Bytes total = 0;
      for (const int up : ups) {
        total += outcomes_[static_cast<std::size_t>(up)].output_bytes;
      }
      spec.input_text.reset();
      spec.input_size = std::max<Bytes>(total, 1);
    }
  }
  submit_iteration(node, spec);
}

void WorkflowCoordinator::submit_iteration(int node,
                                           const server::MrJobSpec& spec) {
  const std::size_t i = static_cast<std::size_t>(node);
  NodeOutcome& out = outcomes_[i];
  const int iter = static_cast<int>(out.runs.size());
  const MrJobId job = project_.submit_job(spec);
  job_to_node_[job] = node;
  out.state = NodeOutcome::State::kRunning;
  if (iter == 0) out.submitted_at = sim_.now();
  NodeRun run;
  run.job = job;
  run.iteration = iter;
  out.runs.push_back(run);
  backoff_base_[i] = obs::MetricsRegistry::instance().histogram_count(
      "client", "backoff_seconds");
  if (auto* trace = sim_.trace()) {
    span_[i] = trace->begin_span(sim_.now(), "workflow", out.name,
                                 "iter" + std::to_string(iter));
  }
  log_.info("node ", out.name, " iteration ", iter, " submitted as job ",
            job.value(), " at t=", sim_.now().str());
}

void WorkflowCoordinator::on_job_finished(MrJobId job) {
  const auto it = job_to_node_.find(job);
  if (it == job_to_node_.end()) return;  // not one of ours
  const int node = it->second;
  const std::size_t i = static_cast<std::size_t>(node);
  NodeOutcome& out = outcomes_[i];
  const SimTime now = sim_.now();

  const db::MrJobRecord& rec = project_.jobtracker().job(job);
  NodeRun& run = out.runs.back();
  run.makespan_s = (rec.finished - rec.created).as_seconds();
  run.dispatch_wait_s = rec.map_first_sent < SimTime::infinity()
                            ? (rec.map_first_sent - rec.created).as_seconds()
                            : 0;
  run.backoffs = obs::MetricsRegistry::instance().histogram_count(
                     "client", "backoff_seconds") -
                 backoff_base_[i];
  if (auto* trace = sim_.trace()) trace->end_span(span_[i], now);

  if (project_.jobtracker().job_failed(job)) {
    fail_node(node, now, NodeOutcome::State::kFailed);
    return;
  }

  collect_node_output(node, job);
  out.iterations = static_cast<int>(out.runs.size());

  const IterateSpec& iterate = graph_.nodes()[i].iterate;
  if (out.iterations < iterate.max_iterations) {
    // Convergence needs two consecutive materialised outputs to diff.
    if (iterate.threshold >= 0 && out.iterations >= 2 &&
        materialised_[i] != 0) {
      const double delta = max_delta(prev_output_[i], out.output);
      out.converged = delta < iterate.threshold;
      if (auto* trace = sim_.trace()) {
        trace->point(now, "wf", "workflow", "node_iteration",
                     out.name + " iter" + std::to_string(out.iterations - 1) +
                         " delta=" + std::to_string(delta));
      }
    }
    if (!out.converged) {
      server::MrJobSpec next = graph_.nodes()[i].job;
      next.name = out.name + "_it" + std::to_string(out.iterations);
      if (materialised_[i] != 0) {
        prev_output_[i] = out.output;
        std::string text = mr::serialize_kvs(out.output);
        if (text.empty()) {
          throw Error("workflow: iterative node '" + out.name +
                      "' produced empty output");
        }
        next.input_text = std::move(text);
        next.input_size = 0;
      } else {
        next.input_text.reset();
        next.input_size = std::max<Bytes>(out.output_bytes, 1);
      }
      submit_iteration(node, next);
      return;
    }
  } else if (iterate.max_iterations > 1) {
    // Ran out of iterations without meeting the threshold (or none set).
    out.converged = out.converged || iterate.threshold < 0;
  }
  finish_node(node, now);
}

void WorkflowCoordinator::finish_node(int node, SimTime now) {
  const std::size_t i = static_cast<std::size_t>(node);
  NodeOutcome& out = outcomes_[i];
  out.state = NodeOutcome::State::kDone;
  out.finished_at = now;

  auto& reg = obs::MetricsRegistry::instance();
  const obs::Labels label = {{"node", out.name}};
  std::int64_t backoffs = 0;
  for (const NodeRun& r : out.runs) backoffs += r.backoffs;
  reg.gauge("wf", "node_makespan_s", label)
      .set((out.finished_at - out.submitted_at).as_seconds());
  reg.gauge("wf", "node_dispatch_wait_s", label)
      .set(out.runs.front().dispatch_wait_s);
  reg.gauge("wf", "node_backoffs", label)
      .set(static_cast<double>(backoffs));
  reg.gauge("wf", "node_iterations", label)
      .set(static_cast<double>(out.iterations));
  if (auto* trace = sim_.trace()) {
    trace->point(now, "wf", "workflow", "node_finished", out.name);
  }
  log_.info("node ", out.name, " done after ", out.iterations,
            " iteration(s) at t=", now.str());

  // The event-driven heart: finishing this node is the only trigger that
  // can make a downstream node ready, so check exactly those.
  for (const int d : graph_.downstream()[i]) {
    const NodeOutcome& dn = outcomes_[static_cast<std::size_t>(d)];
    if (dn.state != NodeOutcome::State::kWaiting) continue;
    bool ready = true;
    for (const int up : graph_.upstream()[static_cast<std::size_t>(d)]) {
      if (outcomes_[static_cast<std::size_t>(up)].state !=
          NodeOutcome::State::kDone) {
        ready = false;
        break;
      }
    }
    if (ready) submit_node(d);
  }
}

void WorkflowCoordinator::fail_node(int node, SimTime now,
                                    NodeOutcome::State state) {
  const std::size_t i = static_cast<std::size_t>(node);
  NodeOutcome& out = outcomes_[i];
  out.state = state;
  out.finished_at = now;
  auto* trace = sim_.trace();
  if (state == NodeOutcome::State::kFailed) {
    if (trace != nullptr) {
      trace->point(now, "wf", "workflow", "node_failed", out.name);
    }
    log_.info("node ", out.name, " FAILED at t=", now.str());
  }
  // Nothing downstream can ever run; skip the whole reachable set.
  for (const int d : graph_.downstream()[i]) {
    NodeOutcome& dn = outcomes_[static_cast<std::size_t>(d)];
    if (dn.state == NodeOutcome::State::kWaiting) {
      if (trace != nullptr) {
        trace->point(now, "wf", "workflow", "skipped", dn.name);
      }
      fail_node(d, now, NodeOutcome::State::kSkipped);
    }
  }
}

void WorkflowCoordinator::collect_node_output(int node, MrJobId job) {
  const std::size_t i = static_cast<std::size_t>(node);
  NodeOutcome& out = outcomes_[i];
  out.output.clear();
  out.output_bytes = 0;
  bool all_materialised = true;
  bool any = false;
  for (const std::string& name :
       project_.jobtracker().output_file_names(job)) {
    any = true;
    const mr::FilePayload* p = project_.storage().payload(name);
    require(p != nullptr, "workflow: reduce output not on data server");
    out.output_bytes += p->size;
    if (p->materialised()) {
      auto kvs = mr::parse_kvs(*p->content);
      out.output.insert(out.output.end(),
                        std::make_move_iterator(kvs.begin()),
                        std::make_move_iterator(kvs.end()));
    } else {
      all_materialised = false;
    }
  }
  std::sort(out.output.begin(), out.output.end());
  materialised_[i] = (any && all_materialised) ? 1 : 0;
}

double WorkflowCoordinator::max_delta(const std::vector<mr::KeyValue>& prev,
                                      const std::vector<mr::KeyValue>& cur) {
  std::map<std::string, double> a;
  for (const mr::KeyValue& kv : prev) a[kv.key] = leading_double(kv.value);
  double worst = 0;
  std::map<std::string, bool> seen;
  for (const mr::KeyValue& kv : cur) {
    const double v = leading_double(kv.value);
    const auto it = a.find(kv.key);
    const double d = it != a.end() ? std::abs(v - it->second) : std::abs(v);
    worst = std::max(worst, d);
    seen[kv.key] = true;
  }
  for (const auto& [key, v] : a) {
    if (!seen.count(key)) worst = std::max(worst, std::abs(v));
  }
  return worst;
}

}  // namespace vcmr::wf
