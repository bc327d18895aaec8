#include "server/config.h"

#include "common/error.h"
#include "common/strings.h"
#include "common/xml.h"

namespace vcmr::server {

ProjectConfig parse_mr_jobtracker(const std::string& xml, ProjectConfig base) {
  const auto root = common::xml_parse(xml);
  require(root->name() == "mr_jobtracker",
          "mr_jobtracker.xml: root element must be <mr_jobtracker>");
  ProjectConfig cfg = base;
  cfg.default_n_maps =
      static_cast<int>(root->child_i64("n_maps", cfg.default_n_maps));
  cfg.default_n_reducers =
      static_cast<int>(root->child_i64("n_reducers", cfg.default_n_reducers));
  if (const common::XmlNode* r = root->child("replication")) {
    read_replication(*r, "mr_jobtracker.xml", cfg.reputation);
  }
  require(cfg.default_n_maps >= 1, "mr_jobtracker.xml: n_maps must be >= 1");
  require(cfg.default_n_reducers >= 1,
          "mr_jobtracker.xml: n_reducers must be >= 1");
  read_project_fields(*root, "mr_jobtracker.xml", cfg);
  return cfg;
}

std::string mr_jobtracker_xml(const ProjectConfig& cfg) {
  common::XmlNode root("mr_jobtracker");
  root.add_child_text("n_maps", std::to_string(cfg.default_n_maps));
  root.add_child_text("n_reducers", std::to_string(cfg.default_n_reducers));
  write_project_fields(root, cfg);
  write_replication(root, cfg.reputation);
  return root.to_string();
}

void read_project_fields(const common::XmlNode& p, const std::string& doc,
                         ProjectConfig& cfg) {
  const auto flag = [&p](const char* name, bool& v) {
    v = p.child_i64(name, v ? 1 : 0) != 0;
  };
  cfg.target_nresults =
      static_cast<int>(p.child_i64("target_nresults", cfg.target_nresults));
  cfg.min_quorum = static_cast<int>(p.child_i64("min_quorum", cfg.min_quorum));
  flag("mirror_map_outputs", cfg.mirror_map_outputs);
  flag("report_map_results_immediately", cfg.report_map_results_immediately);
  flag("pipelined_reduce", cfg.pipelined_reduce);
  flag("resend_lost_results", cfg.resend_lost_results);
  flag("report_fetch_failures", cfg.report_fetch_failures);
  if (cfg.min_quorum < 1 || cfg.min_quorum > cfg.target_nresults) {
    throw Error(doc + ": need 1 <= min_quorum <= target_nresults");
  }
}

void write_project_fields(common::XmlNode& p, const ProjectConfig& cfg) {
  const auto flag = [&p](const char* name, bool v) {
    p.add_child_text(name, v ? "1" : "0");
  };
  p.add_child_text("target_nresults", std::to_string(cfg.target_nresults));
  p.add_child_text("min_quorum", std::to_string(cfg.min_quorum));
  flag("mirror_map_outputs", cfg.mirror_map_outputs);
  flag("report_map_results_immediately", cfg.report_map_results_immediately);
  flag("pipelined_reduce", cfg.pipelined_reduce);
  flag("resend_lost_results", cfg.resend_lost_results);
  flag("report_fetch_failures", cfg.report_fetch_failures);
}

void read_replication(const common::XmlNode& r, const std::string& doc,
                      rep::ReputationConfig& rc) {
  if (const std::string* mode = r.attr("policy")) {
    rc.mode = rep::policy_mode_from_string(*mode);
  }
  rc.min_consecutive_valid = static_cast<int>(
      r.child_i64("min_consecutive_valid", rc.min_consecutive_valid));
  rc.max_error_rate = r.child_double("max_error_rate", rc.max_error_rate);
  rc.spot_check_probability =
      r.child_double("spot_check_probability", rc.spot_check_probability);
  rc.error_rate_prior = r.child_double("error_rate_prior", rc.error_rate_prior);
  rc.error_rate_decay = r.child_double("error_rate_decay", rc.error_rate_decay);
  rc.trust_max_skips =
      static_cast<int>(r.child_i64("trust_max_skips", rc.trust_max_skips));
  const auto check = [&doc](bool ok, const char* what) {
    if (!ok) throw Error(doc + ": " + what);
  };
  check(rc.min_consecutive_valid >= 1, "min_consecutive_valid must be >= 1");
  check(rc.spot_check_probability >= 0 && rc.spot_check_probability <= 1,
        "spot_check_probability must be in [0,1]");
  check(rc.error_rate_decay > 0 && rc.error_rate_decay < 1,
        "error_rate_decay must be in (0,1)");
  check(rc.trust_max_skips >= 0, "trust_max_skips must be >= 0");
}

void write_replication(common::XmlNode& parent,
                       const rep::ReputationConfig& rc) {
  common::XmlNode& r = parent.add_child("replication");
  r.set_attr("policy", rep::to_string(rc.mode));
  r.add_child_text("min_consecutive_valid",
                   std::to_string(rc.min_consecutive_valid));
  r.add_child_text("max_error_rate",
                   common::strprintf("%.6f", rc.max_error_rate));
  r.add_child_text("spot_check_probability",
                   common::strprintf("%.6f", rc.spot_check_probability));
  r.add_child_text("error_rate_prior",
                   common::strprintf("%.6f", rc.error_rate_prior));
  r.add_child_text("error_rate_decay",
                   common::strprintf("%.6f", rc.error_rate_decay));
  r.add_child_text("trust_max_skips", std::to_string(rc.trust_max_skips));
}

}  // namespace vcmr::server
