// Iterative PageRank on volunteers: K power iterations, each a full
// BOINC-MR job, chained as a linear workflow (§II: "there are several
// examples of MapReduce workflows"; §VI: MapReduce as the gateway to more
// complex applications). Every iteration goes through the whole machinery
// — replication, quorum validation, inter-client shuffles — and the final
// ranks are compared against an in-process power iteration.

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/strings.h"
#include "core/cluster.h"
#include "mr/apps.h"
#include "mr/dataset.h"
#include "workflow/workflow.h"

namespace {

// Reference: the same damped, unnormalised power iteration, in plain code.
std::map<std::string, double> reference_pagerank(
    const std::string& graph, int iterations) {
  using vcmr::common::split;
  std::map<std::string, std::vector<std::string>> adj;
  std::map<std::string, double> rank;
  for (const auto& line : split(graph, '\n')) {
    const auto sep = line.find(' ');
    if (sep == std::string::npos) continue;
    const std::string node = line.substr(0, sep);
    const auto bar = line.find('|', sep);
    if (bar == std::string::npos) continue;
    const std::string links = line.substr(bar + 1);
    adj[node] = links.empty() ? std::vector<std::string>{} : split(links, ',');
    rank[node] = 1.0;
  }
  for (int it = 0; it < iterations; ++it) {
    std::map<std::string, double> next;
    for (const auto& [node, links] : adj) next[node] = 0;
    for (const auto& [node, links] : adj) {
      if (links.empty()) continue;
      const double share = rank[node] / static_cast<double>(links.size());
      for (const auto& t : links) next[t] += share;
    }
    for (auto& [node, sum] : next) rank[node] = 0.15 + 0.85 * sum;
  }
  return rank;
}

}  // namespace

int main() {
  using namespace vcmr;
  common::LogConfig::instance().set_level(common::LogLevel::kWarn);

  common::RngStreamFactory seeds(4242);
  common::Rng rng = seeds.stream("graph");
  const std::string graph = mr::synthetic_graph(400, 4, rng);
  constexpr int kIterations = 4;
  std::printf("PageRank on volunteers: 400-node graph, %d iterations, each a "
              "full BOINC-MR job\n\n", kIterations);

  core::Scenario s;
  s.seed = 33;
  s.n_nodes = 10;
  s.boinc_mr = true;
  s.input_text = graph;
  core::Cluster cluster(s);

  // One job per iteration; each reads the previous iteration's output.
  std::vector<server::MrJobSpec> stages(kIterations);
  for (std::size_t k = 0; k < stages.size(); ++k) {
    stages[k].name = "pagerank_stage" + std::to_string(k);
    stages[k].app = "page_rank";
    stages[k].n_maps = 5;
    stages[k].n_reducers = 3;
  }
  stages[0].input_text = graph;
  const core::WorkflowRunResult chain =
      cluster.run_workflow(wf::linear_workflow(stages));
  if (!chain.completed) {
    std::printf("chain FAILED\n");
    return 1;
  }
  for (std::size_t k = 0; k < chain.nodes.size(); ++k) {
    const core::JobMetrics m = core::compute_job_metrics(
        cluster.project().database(), chain.nodes[k].runs.back().job);
    std::printf("  iteration %zu: %.0f simulated s (map %.0f, reduce %.0f)\n",
                k + 1, m.total_seconds, m.map.span_seconds,
                m.reduce.span_seconds);
  }

  // Compare with the reference power iteration.
  const auto ref = reference_pagerank(graph, kIterations);
  double max_err = 0;
  std::vector<std::pair<double, std::string>> ranked;
  for (const auto& kv : chain.final_output) {
    const auto bar = kv.value.find('|');
    double r = 0;
    common::parse_double(kv.value.substr(0, bar), &r);
    ranked.emplace_back(r, kv.key);
    const auto it = ref.find(kv.key);
    if (it != ref.end()) max_err = std::max(max_err, std::abs(r - it->second));
  }
  std::sort(ranked.rbegin(), ranked.rend());

  std::printf("\nmax |volunteer - reference| rank error: %.2e %s\n", max_err,
              max_err < 1e-6 ? "(identical)" : "");
  std::printf("\ntop 8 nodes by rank:\n");
  for (std::size_t i = 0; i < 8 && i < ranked.size(); ++i) {
    std::printf("  %-6s %.4f\n", ranked[i].second.c_str(), ranked[i].first);
  }
  return max_err < 1e-6 ? 0 : 1;
}
