// Tests for scenario XML parsing/serialization and linear workflows.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <regex>
#include <sstream>

#include "common/error.h"
#include "common/rng.h"
#include "core/scenario_io.h"
#include "mr/apps.h"
#include "mr/dataset.h"
#include "mr/local_runtime.h"
#include "workflow/workflow.h"

namespace vcmr::core {
namespace {

TEST(ScenarioIo, DefaultsRoundTrip) {
  const Scenario base;
  const Scenario back = scenario_from_xml(scenario_to_xml(base));
  EXPECT_EQ(back.seed, base.seed);
  EXPECT_EQ(back.n_nodes, base.n_nodes);
  EXPECT_EQ(back.n_maps, base.n_maps);
  EXPECT_EQ(back.n_reducers, base.n_reducers);
  EXPECT_EQ(back.input_size, base.input_size);
  EXPECT_EQ(back.app, base.app);
  EXPECT_EQ(back.boinc_mr, base.boinc_mr);
  EXPECT_EQ(back.project.target_nresults, base.project.target_nresults);
  EXPECT_EQ(back.client.backoff_max, base.client.backoff_max);
  EXPECT_FALSE(back.churn.has_value());
  EXPECT_FALSE(back.nat_mix.has_value());
  EXPECT_FALSE(back.byzantine.has_value());
}

TEST(ScenarioIo, FullDocument) {
  const std::string xml = R"(<scenario>
    <seed>9</seed>
    <nodes>12</nodes><maps>24</maps><reducers>6</reducers>
    <input_mb>500</input_mb>
    <app>grep</app>
    <boinc_mr>1</boinc_mr>
    <time_limit_s>7200</time_limit_s>
    <project>
      <target_nresults>3</target_nresults><min_quorum>2</min_quorum>
      <mirror_map_outputs>0</mirror_map_outputs>
      <report_map_results_immediately>1</report_map_results_immediately>
      <pipelined_reduce>1</pipelined_reduce>
      <resend_lost_results>1</resend_lost_results>
      <report_fetch_failures>1</report_fetch_failures>
    </project>
    <client>
      <backoff_max_s>300</backoff_max_s>
      <peer_fetch_attempts>5</peer_fetch_attempts>
    </client>
    <server_link><up_mbps>50</up_mbps><down_mbps>50</down_mbps><latency_ms>4</latency_ms></server_link>
    <hosts><preset>internet</preset></hosts>
    <churn><mean_on_s>3600</mean_on_s><mean_off_s>400</mean_off_s></churn>
    <nat><open>0.5</open><symmetric>0.5</symmetric>
         <full_cone>0</full_cone><restricted>0</restricted><port_restricted>0</port_restricted></nat>
    <overlay/>
    <byzantine><faulty_fraction>0.2</faulty_fraction><error_probability>0.9</error_probability></byzantine>
    <flow_failure_rate>0.01</flow_failure_rate>
  </scenario>)";
  const Scenario s = scenario_from_xml(xml);
  EXPECT_EQ(s.seed, 9u);
  EXPECT_EQ(s.n_nodes, 12);
  EXPECT_EQ(s.n_maps, 24);
  EXPECT_EQ(s.input_size, 500'000'000);
  EXPECT_EQ(s.app, "grep");
  EXPECT_TRUE(s.boinc_mr);
  EXPECT_EQ(s.time_limit, SimTime::seconds(7200));
  EXPECT_EQ(s.project.target_nresults, 3);
  EXPECT_FALSE(s.project.mirror_map_outputs);
  EXPECT_TRUE(s.project.report_map_results_immediately);
  EXPECT_TRUE(s.project.pipelined_reduce);
  EXPECT_TRUE(s.project.resend_lost_results);
  EXPECT_TRUE(s.project.report_fetch_failures);
  EXPECT_EQ(s.client.backoff_max, SimTime::seconds(300));
  EXPECT_EQ(s.client.peer_fetch.max_attempts, 5);
  EXPECT_DOUBLE_EQ(s.server_up_bps, 50e6 / 8);
  EXPECT_EQ(s.server_latency, SimTime::millis(4));
  EXPECT_EQ(s.host_preset, "internet");
  ASSERT_TRUE(s.churn.has_value());
  EXPECT_EQ(s.churn->mean_off, SimTime::seconds(400));
  ASSERT_TRUE(s.nat_mix.has_value());
  EXPECT_TRUE(s.use_traversal);
  EXPECT_TRUE(s.use_overlay);
  ASSERT_TRUE(s.byzantine.has_value());
  EXPECT_DOUBLE_EQ(s.byzantine->faulty_fraction, 0.2);
  EXPECT_DOUBLE_EQ(s.flow_failure_rate, 0.01);

  // Round-trips through its own serialization.
  const Scenario back = scenario_from_xml(scenario_to_xml(s));
  EXPECT_EQ(back.n_nodes, 12);
  EXPECT_EQ(back.host_preset, "internet");
  EXPECT_TRUE(back.use_overlay);
  EXPECT_TRUE(back.project.report_map_results_immediately);
  EXPECT_TRUE(back.project.resend_lost_results);
  EXPECT_TRUE(back.project.report_fetch_failures);
  ASSERT_TRUE(back.nat_mix.has_value());
  EXPECT_DOUBLE_EQ(back.nat_mix->symmetric, 0.5);
}

TEST(ScenarioIo, StorageTierRoundTrips) {
  Scenario s;
  s.data_servers.n_shards = 3;
  auto& vc = s.project.volunteer_store;
  vc.enabled = true;
  vc.filter_bits = 4096;
  vc.filter_hashes = 5;
  vc.max_store_peers = 3;
  vc.advert_ttl = SimTime::seconds(600);
  vc.dispatch_gate_width = 4;
  vc.dispatch_max_skips = 12;
  fault::ServerOutage outage;
  outage.down_at = SimTime::seconds(100);
  outage.up_at = SimTime::seconds(200);
  outage.shard = 1;
  s.faults.server_outages.push_back(outage);
  fault::ServerOutage whole_tier;
  whole_tier.down_at = SimTime::seconds(300);
  s.faults.server_outages.push_back(whole_tier);

  const Scenario back = scenario_from_xml(scenario_to_xml(s));
  EXPECT_EQ(back.data_servers, s.data_servers);
  EXPECT_EQ(back.project.volunteer_store, vc);
  ASSERT_EQ(back.faults.server_outages.size(), 2u);
  EXPECT_EQ(back.faults.server_outages[0].shard, 1);
  EXPECT_EQ(back.faults.server_outages[1].shard, -1);

  // A scenario that never mentions the storage tier keeps the defaults:
  // one shard, store off.
  const Scenario plain = scenario_from_xml("<scenario><nodes>4</nodes></scenario>");
  EXPECT_EQ(plain.data_servers.n_shards, 1);
  EXPECT_FALSE(plain.project.volunteer_store.enabled);
}

TEST(ScenarioIo, StorageErrorsCarryLineNumbers) {
  const auto message_of = [](const std::string& xml) -> std::string {
    try {
      scenario_from_xml(xml);
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  };

  // The offending element sits on line 3 of the document.
  std::string msg = message_of(
      "<scenario>\n"
      "  <data_servers>\n"
      "    <shards>0</shards>\n"
      "  </data_servers>\n"
      "</scenario>");
  EXPECT_NE(msg.find("scenario xml line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("<data_servers><shards>"), std::string::npos) << msg;

  msg = message_of(
      "<scenario>\n"
      "  <volunteer_store>\n"
      "    <enabled>1</enabled>\n"
      "    <filter_bits>4</filter_bits>\n"
      "  </volunteer_store>\n"
      "</scenario>");
  EXPECT_NE(msg.find("scenario xml line 4"), std::string::npos) << msg;
  EXPECT_NE(msg.find("filter_bits"), std::string::npos) << msg;

  // When the element is absent the error points at the block's open tag.
  msg = message_of(
      "<scenario>\n"
      "  <volunteer_store>\n"
      "    <advert_ttl_s>0</advert_ttl_s>\n"
      "  </volunteer_store>\n"
      "</scenario>");
  EXPECT_NE(msg.find("scenario xml line 3"), std::string::npos) << msg;

  EXPECT_THROW(
      scenario_from_xml("<scenario><volunteer_store>"
                        "<max_store_peers>0</max_store_peers>"
                        "</volunteer_store></scenario>"),
      Error);
  EXPECT_THROW(
      scenario_from_xml("<scenario><volunteer_store>"
                        "<dispatch_gate_width>0</dispatch_gate_width>"
                        "</volunteer_store></scenario>"),
      Error);
}

TEST(ScenarioIo, RejectsInvalid) {
  const auto message_of = [](const std::string& xml) -> std::string {
    try {
      scenario_from_xml(xml);
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_THROW(scenario_from_xml("<wrong/>"), Error);
  EXPECT_THROW(scenario_from_xml("<scenario><nodes>0</nodes></scenario>"),
               Error);
  EXPECT_THROW(scenario_from_xml(
                   "<scenario><hosts><preset>mars</preset></hosts></scenario>"),
               Error);
  EXPECT_EQ(message_of("<scenario><project><min_quorum>9</min_quorum>"
                       "</project></scenario>"),
            "scenario xml: need 1 <= min_quorum <= target_nresults");
  // A non-positive snapshot cadence would re-arm the snapshot daemon at the
  // same instant forever; it is refused at the element's line.
  for (const std::string period : {"0", "-5"}) {
    EXPECT_EQ(message_of("<scenario>\n"
                         "  <project>\n"
                         "    <snapshot_period_s>" + period +
                         "</snapshot_period_s>\n"
                         "  </project>\n"
                         "</scenario>"),
              "scenario xml line 3: <project><snapshot_period_s> must be "
              "positive")
        << period;
  }
  // Times SimTime cannot hold are refused at their element's line, and so
  // are fault instants before the run starts; each used to fail mid-run or
  // end the run at once.
  const auto at_line_2 = [&](const std::string& element) {
    return message_of("<scenario>\n  " + element + "\n</scenario>");
  };
  const std::string any = "must be a number of seconds in [-1e+12, 1e+12]";
  const std::string instant = "must be a number of seconds in [0, 1e+12]";
  for (const std::string v : {"nan", "inf", "-inf", "1e300"}) {
    EXPECT_EQ(at_line_2("<time_limit_s>" + v + "</time_limit_s>"),
              "scenario xml line 2: <scenario><time_limit_s> " + any)
        << v;
    EXPECT_EQ(at_line_2("<client><backoff_max_s>" + v +
                        "</backoff_max_s></client>"),
              "scenario xml line 2: <client><backoff_max_s> " + any)
        << v;
    EXPECT_EQ(at_line_2("<churn><mean_on_s>" + v + "</mean_on_s></churn>"),
              "scenario xml line 2: <churn><mean_on_s> " + any)
        << v;
  }
  for (const std::string v : {"nan", "inf", "1e300", "-5"}) {
    EXPECT_EQ(at_line_2("<faults><link_fault><host>0</host><down_s>" + v +
                        "</down_s></link_fault></faults>"),
              "scenario xml line 2: <link_fault><down_s> " + instant)
        << v;
    EXPECT_EQ(at_line_2("<faults><crash><host>0</host><at_s>1</at_s>"
                        "<restart_s>" + v + "</restart_s></crash></faults>"),
              "scenario xml line 2: <crash><restart_s> " + instant)
        << v;
  }
  EXPECT_EQ(message_of("<scenario><replication><trust_max_skips>-1"
                       "</trust_max_skips></replication></scenario>"),
            "scenario xml: trust_max_skips must be >= 0");
  // Durations have floors: a non-positive time limit ended the run at once
  // (TIME LIMIT, 0 RPCs), and a negative backoff re-polled the scheduler
  // without pause.
  for (const std::string v : {"0", "-5"}) {
    EXPECT_EQ(at_line_2("<time_limit_s>" + v + "</time_limit_s>"),
              "scenario xml line 2: <scenario><time_limit_s> must be positive")
        << v;
    EXPECT_EQ(at_line_2("<project><delay_bound_s>" + v +
                        "</delay_bound_s></project>"),
              "scenario xml line 2: <project><delay_bound_s> must be positive")
        << v;
    EXPECT_EQ(at_line_2("<client><backoff_min_s>" + v +
                        "</backoff_min_s></client>"),
              "scenario xml line 2: <client><backoff_min_s> must be positive")
        << v;
  }
  EXPECT_EQ(message_of("<scenario>\n"
                       "  <client>\n"
                       "    <backoff_min_s>-50</backoff_min_s>\n"
                       "    <backoff_max_s>-10</backoff_max_s>\n"
                       "  </client>\n"
                       "</scenario>"),
            "scenario xml line 3: <client><backoff_min_s> must be positive");
  EXPECT_EQ(message_of("<scenario>\n"
                       "  <client>\n"
                       "    <backoff_min_s>100</backoff_min_s>\n"
                       "    <backoff_max_s>50</backoff_max_s>\n"
                       "  </client>\n"
                       "</scenario>"),
            "scenario xml line 4: <client><backoff_max_s> must be >= "
            "<backoff_min_s>");
  // A floor above the default 600 s cap needs its own cap; the error points
  // at the <client> block.
  EXPECT_EQ(at_line_2("<client><backoff_min_s>900</backoff_min_s></client>"),
            "scenario xml line 2: <client><backoff_max_s> must be >= "
            "<backoff_min_s>");
  // A malformed number is an error at its element, not the default.
  EXPECT_EQ(at_line_2("<time_limit_s>abc</time_limit_s>"),
            "xml line 2: <time_limit_s> is not a number: \"abc\"");
  EXPECT_EQ(at_line_2("<nodes>4x</nodes>"),
            "xml line 2: <nodes> is not an integer: \"4x\"");
  // Megabytes and milliseconds whose conversion would overflow int64 (the
  // echo used to print -1).
  const std::string max_i64 = "9223372036854775807";
  EXPECT_EQ(at_line_2("<input_mb>" + max_i64 + "</input_mb>"),
            "scenario xml line 2: <scenario><input_mb> must be in "
            "[0, 9223372036854]");
  EXPECT_EQ(at_line_2("<workflow><node name=\"a\"><input_mb>" + max_i64 +
                      "</input_mb></node></workflow>"),
            "scenario xml line 2: <node><input_mb> must be in "
            "[0, 9223372036854]");
  EXPECT_EQ(at_line_2("<server_link><latency_ms>" + max_i64 +
                      "</latency_ms></server_link>"),
            "scenario xml line 2: <server_link><latency_ms> must be in "
            "[0, 1e+15]");
}

/// One seeded mutant of a scenario document: a digit changed, a leaf
/// element's value replaced by a hostile token, a leaf element dropped or
/// duplicated, or the document truncated.
std::string mutate_scenario(const std::string& xml, common::Rng& rng) {
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  static const std::regex kLeaf(R"(<(\w+)>([^<]*)</\1>)");
  std::vector<std::smatch> leaves;
  for (auto it = std::sregex_iterator(xml.begin(), xml.end(), kLeaf);
       it != std::sregex_iterator(); ++it) {
    leaves.push_back(*it);
  }
  std::string out = xml;
  switch (leaves.empty() ? 4 : rng.uniform_int(0, 4)) {
    case 0: {
      std::vector<std::size_t> digits;
      for (std::size_t i = 0; i < xml.size(); ++i) {
        if (xml[i] >= '0' && xml[i] <= '9') digits.push_back(i);
      }
      if (!digits.empty()) {
        out[digits[pick(digits.size())]] =
            static_cast<char>('0' + rng.uniform_int(0, 9));
      }
      break;
    }
    case 1: {
      static const char* const kTokens[] = {
          "nan", "inf", "-1", "1e300", "abc", "", "9223372036854775807"};
      const std::smatch& m = leaves[pick(leaves.size())];
      out.replace(static_cast<std::size_t>(m.position(2)),
                  static_cast<std::size_t>(m.length(2)),
                  kTokens[pick(std::size(kTokens))]);
      break;
    }
    case 2: {
      const std::smatch& m = leaves[pick(leaves.size())];
      out.erase(static_cast<std::size_t>(m.position(0)),
                static_cast<std::size_t>(m.length(0)));
      break;
    }
    case 3: {
      const std::smatch& m = leaves[pick(leaves.size())];
      out.insert(static_cast<std::size_t>(m.position(0)), m.str(0));
      break;
    }
    default:
      out.resize(pick(xml.size()));
      break;
  }
  return out;
}

// Seeded-mutation fuzz of the scenario reader over every shipped scenario:
// each mutant parses (and its echo serializes) or throws vcmr::Error.
// Nothing here runs a simulation.
TEST(ScenarioIo, MutatedScenarioParsesOrThrowsError) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(VCMR_SCENARIO_DIR)) {
    if (entry.path().extension() == ".xml") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  int parsed = 0, rejected = 0;
  for (const auto& file : files) {
    std::ifstream in(file);
    std::ostringstream buf;
    buf << in.rdbuf();
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
      common::Rng rng(seed);
      std::string xml = buf.str();
      for (auto n = rng.uniform_int(1, 3); n > 0; --n) {
        xml = mutate_scenario(xml, rng);
      }
      try {
        scenario_to_xml(scenario_from_xml(xml));
        ++parsed;
      } catch (const Error&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << file << ": " << e.what() << "\n" << xml;
      }
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(ScenarioIo, ParsedScenarioRuns) {
  const Scenario s = scenario_from_xml(
      "<scenario><nodes>6</nodes><maps>6</maps><reducers>2</reducers>"
      "<input_mb>50</input_mb><boinc_mr>1</boinc_mr></scenario>");
  Cluster cluster(s);
  EXPECT_TRUE(cluster.run_job().metrics.completed);
}

/// One stage of a linear workflow; the first stage carries the input.
server::MrJobSpec stage(const std::string& name, const std::string& app,
                        int maps, int reducers,
                        std::optional<std::string> input = std::nullopt) {
  server::MrJobSpec spec;
  spec.name = name;
  spec.app = app;
  spec.n_maps = maps;
  spec.n_reducers = reducers;
  spec.input_text = std::move(input);
  return spec;
}

TEST(Workflow, ChainMatchesLocalOracle) {
  common::RngStreamFactory f(123);
  common::Rng rng = f.stream("corpus");
  mr::ZipfOptions zo;
  zo.vocabulary = 400;
  const std::string corpus = mr::ZipfCorpus(zo).generate(80 * 1024, rng);

  Scenario s;
  s.seed = 4;
  s.n_nodes = 6;
  s.boinc_mr = true;
  s.input_text = corpus;
  Cluster cluster(s);
  const WorkflowRunResult chain =
      cluster.run_workflow(wf::linear_workflow({stage("wf_stage0", "word_count",
                                                      4, 2, corpus),
                                                stage("wf_stage1",
                                                      "count_range", 2, 2)}));
  ASSERT_TRUE(chain.completed);
  ASSERT_EQ(chain.nodes.size(), 2u);
  for (const wf::NodeOutcome& node : chain.nodes) {
    ASSERT_EQ(node.runs.size(), 1u);
    EXPECT_TRUE(compute_job_metrics(cluster.project().database(),
                                    node.runs.back().job)
                    .completed);
  }

  mr::register_builtin_apps();
  const auto* wc = mr::AppRegistry::instance().find("word_count");
  const auto* cr = mr::AppRegistry::instance().find("count_range");
  const auto s1 = mr::run_local(*wc, corpus, {4, 2, 2, true});
  const auto s2 = mr::run_local(*cr, mr::serialize_kvs(s1.output), {2, 2, 2, true});
  EXPECT_EQ(chain.final_output, s2.output);
}

// gcc 12 -O2 flags the optional<string> payload as maybe-uninitialized when
// the Scenario is copied into the Cluster constructor; the optional is
// engaged two lines above, so this is the well-known libstdc++ false
// positive, not a real read.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
TEST(Workflow, FailedStageStopsChain) {
  const std::string tiny = "tiny input";
  Scenario s;
  s.seed = 5;
  s.n_nodes = 4;
  s.boinc_mr = true;
  s.input_text = tiny;
  Cluster cluster(s);
  // Unknown app in stage 2: the workflow is refused before any stage runs.
  EXPECT_THROW(cluster.run_workflow(wf::linear_workflow(
                   {stage("wf_stage0", "word_count", 2, 1, tiny),
                    stage("wf_stage1", "no_such_app", 2, 1)})),
               Error);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

}  // namespace
}  // namespace vcmr::core
