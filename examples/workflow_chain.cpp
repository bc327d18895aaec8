// A MapReduce *workflow* on volunteers (§II / §VI: MapReduce as "a gateway"
// for complex applications, "many applications can be broken down into
// sequences of MapReduce jobs").
//
// Stage 1: word_count over a Zipf corpus → "word N" lines.
// Stage 2: count_range over stage 1's output → frequency-of-frequencies
//          ("how many words occur 1-9 times, 10-99 times, ...").
//
// Each stage runs as a full BOINC-MR job — replication, quorum validation,
// inter-client transfers — and the chained result is checked against the
// same two stages run on the local threaded runtime.

#include <cstdio>

#include "core/cluster.h"
#include "mr/apps.h"
#include "mr/dataset.h"
#include "mr/local_runtime.h"
#include "workflow/workflow.h"

int main() {
  using namespace vcmr;
  common::LogConfig::instance().set_level(common::LogLevel::kWarn);

  common::RngStreamFactory seeds(99);
  common::Rng rng = seeds.stream("corpus");
  mr::ZipfOptions zipf;
  zipf.vocabulary = 3000;
  const std::string corpus = mr::ZipfCorpus(zipf).generate(300 * 1024, rng);

  // --- volunteer workflow ----------------------------------------------------
  core::Scenario s;
  s.seed = 21;
  s.n_nodes = 10;
  s.boinc_mr = true;
  s.input_text = corpus;  // placeholder; the workflow supplies stage inputs
  core::Cluster cluster(s);

  // A linear workflow: stage 1 reads the corpus, stage 2 reads stage 1's
  // merged, key-sorted reduce output.
  std::vector<server::MrJobSpec> stages(2);
  stages[0].app = "word_count";
  stages[0].n_maps = 8;
  stages[0].n_reducers = 4;
  stages[0].input_text = corpus;
  stages[1].app = "count_range";
  stages[1].n_maps = 4;
  stages[1].n_reducers = 2;
  for (std::size_t k = 0; k < stages.size(); ++k) {
    stages[k].name = "freqfreq_stage" + std::to_string(k);
  }
  const core::WorkflowRunResult chain =
      cluster.run_workflow(wf::linear_workflow(stages));

  std::size_t ran = 0;  // stages submitted; a failed stage skips the rest
  while (ran < chain.nodes.size() && !chain.nodes[ran].runs.empty()) ++ran;
  std::printf("workflow: %zu stages, %s\n", ran,
              chain.completed ? "completed" : "FAILED");
  for (std::size_t k = 0; k < ran; ++k) {
    const core::JobMetrics m = core::compute_job_metrics(
        cluster.project().database(), chain.nodes[k].runs.back().job);
    std::printf("  stage %zu (%s): %.0f s (map %.0f s, reduce %.0f s)\n", k,
                stages[k].app.c_str(), m.total_seconds, m.map.span_seconds,
                m.reduce.span_seconds);
  }

  // --- local oracle -------------------------------------------------------------
  mr::register_builtin_apps();
  const auto* wc = mr::AppRegistry::instance().find("word_count");
  const auto* cr = mr::AppRegistry::instance().find("count_range");
  const mr::LocalJobResult s1 = mr::run_local(*wc, corpus, {8, 4, 4, true});
  const mr::LocalJobResult s2 =
      mr::run_local(*cr, mr::serialize_kvs(s1.output), {4, 2, 4, true});

  if (chain.final_output == s2.output) {
    std::printf("\nchained output IDENTICAL to local two-stage run\n");
  } else {
    std::printf("\nchained output DIFFERS from the local oracle — bug\n");
    return 1;
  }

  std::printf("\nfrequency of word frequencies:\n");
  for (const auto& kv : chain.final_output) {
    std::printf("  %-22s %s words\n", kv.key.c_str(), kv.value.c_str());
  }
  return 0;
}
