// Tests for vcmr::wf — graph validation, the event-driven coordinator
// (single-node identity, DAG ordering, iteration, failure propagation),
// and the scenario <workflow> XML surface.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/cluster.h"
#include "core/scenario_io.h"
#include "mr/apps.h"
#include "mr/dataset.h"
#include "mr/keyvalue.h"
#include "mr/local_runtime.h"
#include "workflow/coordinator.h"
#include "workflow/workflow.h"

namespace vcmr {
namespace {

wf::NodeSpec make_node(const std::string& name,
                       const std::vector<std::string>& deps = {},
                       const std::string& app = "word_count") {
  wf::NodeSpec node;
  node.job.name = name;
  node.job.app = app;
  node.job.n_maps = 2;
  node.job.n_reducers = 2;
  if (deps.empty()) node.job.input_text = "some input text";
  node.deps = deps;
  return node;
}

std::string graph_error(std::vector<wf::NodeSpec> nodes) {
  try {
    wf::WorkflowGraph g(std::move(nodes));
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(WorkflowGraph, RejectsStructuralProblems) {
  EXPECT_THROW(wf::WorkflowGraph({}), Error);

  EXPECT_NE(graph_error({make_node("a"), make_node("a")})
                .find("duplicate workflow node 'a'"),
            std::string::npos);

  EXPECT_NE(graph_error({make_node("a", {}, "no_such_app")})
                .find("unknown app 'no_such_app'"),
            std::string::npos);

  EXPECT_NE(graph_error({make_node("a"), make_node("b", {"ghost"})})
                .find("depends on unknown node 'ghost'"),
            std::string::npos);

  EXPECT_NE(graph_error({make_node("a", {"a"})}).find("depends on itself"),
            std::string::npos);

  EXPECT_NE(graph_error({make_node("a", {"b"}), make_node("b", {"a"})})
                .find("workflow cycle"),
            std::string::npos);

  // A root with neither input_text nor input_size is unrunnable.
  wf::NodeSpec inputless = make_node("a");
  inputless.job.input_text.reset();
  inputless.job.input_size = 0;
  EXPECT_NE(graph_error({inputless}).find("neither input nor dependencies"),
            std::string::npos);

  wf::NodeSpec bad_iter = make_node("a");
  bad_iter.iterate.max_iterations = 0;
  EXPECT_NE(graph_error({bad_iter}).find("max_iterations >= 1"),
            std::string::npos);
}

TEST(WorkflowGraph, DiamondTopology) {
  const wf::WorkflowGraph g({make_node("split"),
                             make_node("left", {"split"}),
                             make_node("right", {"split"}),
                             make_node("join", {"left", "right"})});
  EXPECT_EQ(g.depth(), 3);
  EXPECT_EQ(g.roots(), (std::vector<int>{0}));
  EXPECT_EQ(g.sinks(), (std::vector<int>{3}));
  EXPECT_EQ(g.topo_order(), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(g.index_of("right"), 2);
  EXPECT_EQ(g.index_of("nope"), -1);
  EXPECT_EQ(g.upstream()[3], (std::vector<int>{1, 2}));
  EXPECT_EQ(g.downstream()[0], (std::vector<int>{1, 2}));

  // Duplicate edges collapse to one.
  const wf::WorkflowGraph dup(
      {make_node("a"), make_node("b", {"a", "a"})});
  EXPECT_EQ(dup.upstream()[1].size(), 1u);
}

TEST(WorkflowGraph, LinearWorkflowChains) {
  server::MrJobSpec s0;
  s0.name = "s0";
  s0.input_text = "text";
  server::MrJobSpec s1;
  s1.name = "s1";
  const wf::WorkflowGraph g = wf::linear_workflow({s0, s1});
  EXPECT_EQ(g.depth(), 2);
  EXPECT_EQ(g.nodes()[1].deps, (std::vector<std::string>{"s0"}));
}

// The workflow path must be a pure re-plumbing of job submission: driving
// one node through the coordinator replays the direct run_job event stream
// bit-for-bit. Wire bytes, backoffs, RPC counts, job metrics, output, and
// the full host timeline (the coordinator's own "workflow" track is the
// only addition) all pin it.
TEST(Coordinator, SingleNodeMatchesDirectJob) {
  common::RngStreamFactory f(123);
  common::Rng rng = f.stream("corpus");
  mr::ZipfOptions zo;
  zo.vocabulary = 300;
  const std::string corpus = mr::ZipfCorpus(zo).generate(60 * 1024, rng);

  server::MrJobSpec spec;
  spec.name = "solo";
  spec.app = "word_count";
  spec.n_maps = 4;
  spec.n_reducers = 2;
  spec.input_text = corpus;

  core::Scenario s;
  s.seed = 21;
  s.n_nodes = 6;
  s.boinc_mr = true;
  s.record_trace = true;

  core::Cluster direct(s);
  const core::RunOutcome a = direct.run_job(spec);
  ASSERT_TRUE(a.metrics.completed);

  core::Cluster via_wf(s);
  wf::NodeSpec node;
  node.job = spec;
  const core::WorkflowRunResult r =
      via_wf.run_workflow(wf::WorkflowGraph({node}));
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.nodes.size(), 1u);
  ASSERT_EQ(r.nodes[0].runs.size(), 1u);
  const core::RunOutcome b = via_wf.job_outcome(r.nodes[0].runs[0].job, true);

  EXPECT_TRUE(b.metrics.completed);
  EXPECT_DOUBLE_EQ(b.metrics.total_seconds, a.metrics.total_seconds);
  EXPECT_DOUBLE_EQ(b.metrics.map_to_reduce_gap_seconds,
                   a.metrics.map_to_reduce_gap_seconds);
  EXPECT_EQ(b.server_bytes_sent, a.server_bytes_sent);
  EXPECT_EQ(b.server_bytes_received, a.server_bytes_received);
  EXPECT_EQ(b.interclient_bytes, a.interclient_bytes);
  EXPECT_EQ(b.scheduler_rpcs, a.scheduler_rpcs);
  EXPECT_EQ(b.backoffs, a.backoffs);
  EXPECT_EQ(r.final_output, direct.collect_output(a.job));

  const auto strip = [](const std::vector<sim::TraceSpan>& spans) {
    std::vector<std::string> out;
    for (const sim::TraceSpan& sp : spans) {
      if (sp.actor == "workflow") continue;  // the coordinator's own track
      out.push_back(sp.actor + "|" + sp.label + "|" + sp.detail + "|" +
                    sp.begin.str() + "|" + sp.end.str());
    }
    return out;
  };
  EXPECT_EQ(strip(via_wf.trace().spans()), strip(direct.trace().spans()));
}

// All-byzantine fleet: the root job's work units exhaust their error limit,
// the JobTracker marks the job failed, and the coordinator must skip the
// downstream node (never submit it) instead of hanging to the time limit.
TEST(Coordinator, FailedNodeSkipsDownstream) {
  core::Scenario s;
  s.seed = 19;
  s.n_nodes = 6;
  s.boinc_mr = true;
  s.error_probabilities.assign(6, 1.0);
  s.project.max_error_results = 4;
  s.project.max_total_results = 6;
  s.time_limit = SimTime::hours(10);

  wf::NodeSpec root = make_node("doomed");
  root.job.input_text.reset();
  root.job.input_size = 5'000'000;
  root.job.n_reducers = 1;
  wf::NodeSpec child = make_node("after", {"doomed"});

  core::Cluster cluster(s);
  const core::WorkflowRunResult r =
      cluster.run_workflow(wf::WorkflowGraph({root, child}));
  EXPECT_FALSE(r.completed);
  EXPECT_FALSE(r.hit_time_limit);  // failed deterministically, not hung
  ASSERT_EQ(r.nodes.size(), 2u);
  EXPECT_EQ(r.nodes[0].state, wf::NodeOutcome::State::kFailed);
  EXPECT_EQ(r.nodes[1].state, wf::NodeOutcome::State::kSkipped);
  EXPECT_TRUE(r.nodes[1].runs.empty());  // never submitted
}

// --- iteration -------------------------------------------------------------

/// The coordinator's convergence metric, reimplemented: largest per-key
/// |leading-double delta|; keys on one side only contribute |value|.
double max_rank_delta(const std::vector<mr::KeyValue>& prev,
                      const std::vector<mr::KeyValue>& cur) {
  std::map<std::string, double> a;
  for (const auto& kv : prev) a[kv.key] = std::strtod(kv.value.c_str(), nullptr);
  std::map<std::string, double> b;
  for (const auto& kv : cur) b[kv.key] = std::strtod(kv.value.c_str(), nullptr);
  double worst = 0;
  for (const auto& [k, v] : b) {
    const auto it = a.find(k);
    worst = std::max(worst, it != a.end() ? std::abs(v - it->second)
                                          : std::abs(v));
  }
  for (const auto& [k, v] : a) {
    if (!b.count(k)) worst = std::max(worst, std::abs(v));
  }
  return worst;
}

const char kGraphText[] =
    "a 1.0|b,c\n"
    "b 1.0|c\n"
    "c 1.0|a\n"
    "d 1.0|a,b,c\n"
    "e 1.0|a,d\n";

/// Local oracle for an iterative page_rank node: run_local iterated with
/// the coordinator's exact stopping rule (check after iteration k >= 2,
/// comparing the two most recent outputs, only while k < max_iterations).
struct IterOracle {
  int iterations = 0;
  bool converged = false;
  std::vector<mr::KeyValue> output;
};

IterOracle pagerank_oracle(int max_iterations, double threshold) {
  mr::register_builtin_apps();
  const mr::MapReduceApp* pr = mr::AppRegistry::instance().find("page_rank");
  IterOracle o;
  std::vector<mr::KeyValue> prev;
  std::string input = kGraphText;
  for (int k = 0; k < max_iterations; ++k) {
    o.output = mr::run_local(*pr, input, {2, 2, 2, true}).output;
    ++o.iterations;
    if (o.iterations < max_iterations && threshold >= 0 &&
        o.iterations >= 2 && max_rank_delta(prev, o.output) < threshold) {
      o.converged = true;
      break;
    }
    prev = o.output;
    input = mr::serialize_kvs(o.output);
  }
  if (!o.converged && threshold < 0) o.converged = max_iterations > 1;
  return o;
}

core::Scenario pagerank_scenario(int max_iterations, double threshold) {
  core::Scenario s;
  s.seed = 9;
  s.n_nodes = 6;
  s.boinc_mr = true;
  wf::NodeSpec node = make_node("rank", {}, "page_rank");
  node.job.input_text = kGraphText;
  node.iterate.max_iterations = max_iterations;
  node.iterate.threshold = threshold;
  s.workflow.push_back(node);
  return s;
}

TEST(Coordinator, FixedIterationCountMatchesLocalOracle) {
  core::Cluster cluster(pagerank_scenario(3, -1));
  const core::WorkflowRunResult r = cluster.run_workflow();
  ASSERT_TRUE(r.completed);
  const wf::NodeOutcome& rank = r.nodes.at(0);
  EXPECT_EQ(rank.iterations, 3);
  ASSERT_EQ(rank.runs.size(), 3u);
  EXPECT_TRUE(rank.converged);  // no threshold: running out the budget is fine
  const IterOracle oracle = pagerank_oracle(3, -1);
  EXPECT_EQ(rank.output, oracle.output);
  // Each iteration is its own MapReduce job with a distinct name.
  EXPECT_EQ(rank.runs[1].iteration, 1);
  EXPECT_NE(rank.runs[0].job, rank.runs[1].job);
}

TEST(Coordinator, ThresholdStopsIterationEarly) {
  const int kMax = 20;
  const double kThreshold = 0.05;
  const IterOracle oracle = pagerank_oracle(kMax, kThreshold);
  ASSERT_TRUE(oracle.converged);  // sanity: the graph converges under kMax
  ASSERT_LT(oracle.iterations, kMax);

  core::Cluster cluster(pagerank_scenario(kMax, kThreshold));
  const core::WorkflowRunResult r = cluster.run_workflow();
  ASSERT_TRUE(r.completed);
  const wf::NodeOutcome& rank = r.nodes.at(0);
  EXPECT_TRUE(rank.converged);
  EXPECT_EQ(rank.iterations, oracle.iterations);
  EXPECT_EQ(rank.output, oracle.output);
  EXPECT_EQ(r.final_output, oracle.output);
}

// --- scenario XML ----------------------------------------------------------

TEST(ScenarioIo, WorkflowRoundTrips) {
  core::Scenario s;
  s.workflow.push_back(make_node("split"));
  s.workflow.push_back(make_node("ranges", {"split"}, "count_range"));
  wf::NodeSpec rank = make_node("rank", {"split"}, "page_rank");
  rank.iterate.max_iterations = 7;
  rank.iterate.threshold = 0.25;
  rank.job.shared_input = true;
  s.workflow.push_back(rank);

  const core::Scenario back = core::scenario_from_xml(core::scenario_to_xml(s));
  ASSERT_EQ(back.workflow.size(), 3u);
  EXPECT_EQ(back.workflow[0].job.name, "split");
  EXPECT_EQ(back.workflow[0].job.input_text, s.workflow[0].job.input_text);
  EXPECT_EQ(back.workflow[1].job.app, "count_range");
  EXPECT_EQ(back.workflow[1].deps, (std::vector<std::string>{"split"}));
  EXPECT_EQ(back.workflow[2].iterate, rank.iterate);
  EXPECT_TRUE(back.workflow[2].job.shared_input);
}

TEST(ScenarioIo, WorkflowErrorsCarryLineNumbers) {
  const auto message_of = [](const std::string& xml) -> std::string {
    try {
      core::scenario_from_xml(xml);
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  };

  // The cyclic <node> sits on line 3 of the document.
  std::string msg = message_of(
      "<scenario>\n"
      "  <workflow>\n"
      "    <node name=\"a\"><deps>b</deps></node>\n"
      "    <node name=\"b\"><deps>a</deps></node>\n"
      "  </workflow>\n"
      "</scenario>");
  EXPECT_NE(msg.find("scenario xml line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("workflow cycle"), std::string::npos) << msg;

  msg = message_of(
      "<scenario>\n"
      "  <workflow>\n"
      "    <node name=\"a\"><input_mb>1</input_mb></node>\n"
      "    <node name=\"b\"><deps>ghost</deps></node>\n"
      "  </workflow>\n"
      "</scenario>");
  EXPECT_NE(msg.find("scenario xml line 4"), std::string::npos) << msg;
  EXPECT_NE(msg.find("unknown node 'ghost'"), std::string::npos) << msg;

  msg = message_of(
      "<scenario>\n"
      "  <workflow>\n"
      "    <node name=\"a\"><input_mb>1</input_mb>\n"
      "<app>bogus</app></node>\n"
      "  </workflow>\n"
      "</scenario>");
  EXPECT_NE(msg.find("scenario xml line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("unknown app 'bogus'"), std::string::npos) << msg;

  msg = message_of(
      "<scenario>\n"
      "  <workflow>\n"
      "    <node><input_mb>1</input_mb></node>\n"
      "  </workflow>\n"
      "</scenario>");
  EXPECT_NE(msg.find("scenario xml line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("needs a name attribute"), std::string::npos) << msg;

  msg = message_of("<scenario>\n  <workflow>\n  </workflow>\n</scenario>");
  EXPECT_NE(msg.find("<workflow> has no <node> children"), std::string::npos)
      << msg;
}

// --- shipped scenario files ------------------------------------------------

core::Scenario load_scenario_file(const std::string& name) {
  const std::string path = std::string(VCMR_SCENARIO_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return core::scenario_from_xml(buf.str());
}

TEST(ScenarioFiles, DiamondDagRunsWithEventDrivenOrdering) {
  core::Scenario s = load_scenario_file("workflow_dag.xml");
  ASSERT_EQ(s.workflow.size(), 4u);
  s.record_trace = true;

  core::Cluster cluster(s);
  const core::WorkflowRunResult r = cluster.run_workflow();
  ASSERT_TRUE(r.completed);

  std::map<std::string, const wf::NodeOutcome*> by_name;
  for (const wf::NodeOutcome& o : r.nodes) by_name[o.name] = &o;
  const wf::NodeOutcome& split = *by_name.at("split");
  const wf::NodeOutcome& ranges = *by_name.at("ranges");
  const wf::NodeOutcome& lengths = *by_name.at("lengths");
  const wf::NodeOutcome& join = *by_name.at("join");
  for (const wf::NodeOutcome& o : r.nodes) {
    EXPECT_EQ(o.state, wf::NodeOutcome::State::kDone) << o.name;
    EXPECT_GT(o.output_bytes, 0) << o.name;
  }

  // Downstream nodes are submitted at the very instant their last upstream
  // finishes — event-driven, zero scheduler idle between stages.
  EXPECT_DOUBLE_EQ(ranges.submitted_at.as_seconds(),
                   split.finished_at.as_seconds());
  EXPECT_DOUBLE_EQ(lengths.submitted_at.as_seconds(),
                   split.finished_at.as_seconds());
  EXPECT_DOUBLE_EQ(
      join.submitted_at.as_seconds(),
      std::max(ranges.finished_at, lengths.finished_at).as_seconds());

  // The workflow track tells the same story: the join's iteration span
  // opens at the instant the later of the two middle nodes' node_finished
  // points lands.
  std::map<std::string, SimTime> finished;
  for (const sim::TracePoint& p : cluster.trace().points_for("workflow")) {
    if (p.component == "wf" && p.label == "node_finished") {
      finished[p.detail] = p.at;
    }
  }
  SimTime join_submit = SimTime::infinity();
  for (const sim::TraceSpan& sp : cluster.trace().spans_for("workflow")) {
    if (sp.label == "join") join_submit = std::min(join_submit, sp.begin);
  }
  ASSERT_TRUE(finished.count("ranges") && finished.count("lengths"));
  EXPECT_EQ(join_submit,
            std::max(finished.at("ranges"), finished.at("lengths")));

  // The join's input is the merged, key-sorted output of both branches.
  std::vector<mr::KeyValue> merged = ranges.output;
  merged.insert(merged.end(), lengths.output.begin(), lengths.output.end());
  std::sort(merged.begin(), merged.end());
  mr::register_builtin_apps();
  const mr::MapReduceApp* wc = mr::AppRegistry::instance().find("word_count");
  const auto oracle =
      mr::run_local(*wc, mr::serialize_kvs(merged), {2, 2, 2, true});
  EXPECT_EQ(join.output, oracle.output);
}

TEST(ScenarioFiles, IterativePagerankConvergesUnderThreshold) {
  const core::Scenario s = load_scenario_file("iterative_pagerank.xml");
  ASSERT_EQ(s.workflow.size(), 1u);
  EXPECT_EQ(s.workflow[0].iterate.max_iterations, 12);
  EXPECT_DOUBLE_EQ(s.workflow[0].iterate.threshold, 0.01);

  core::Cluster cluster(s);
  const core::WorkflowRunResult r = cluster.run_workflow();
  ASSERT_TRUE(r.completed);
  const wf::NodeOutcome& rank = r.nodes.at(0);
  EXPECT_TRUE(rank.converged);
  EXPECT_GE(rank.iterations, 2);
  EXPECT_LT(rank.iterations, 12);
}

}  // namespace
}  // namespace vcmr
