#include "core/scenario_io.h"

#include <limits>

#include "common/error.h"
#include "common/strings.h"
#include "common/xml.h"
#include "workflow/workflow.h"

namespace vcmr::core {

using common::XmlNode;

namespace {
/// Largest <input_mb> whose byte count still fits in Bytes.
constexpr std::int64_t kMaxInputMb =
    std::numeric_limits<Bytes>::max() / 1000000;
/// Largest <server_link><latency_ms>: the longest time SimTime accepts.
constexpr double kMaxLatencyMs = SimTime::kMaxInputSeconds * 1000;
}  // namespace

Scenario scenario_from_xml(const std::string& xml) {
  const auto root = common::xml_parse(xml);
  require(root->name() == "scenario",
          "scenario xml: root element must be <scenario>");
  Scenario s;

  // Validation errors carry line numbers (the trace loader's style): a bad
  // value points at the element that holds it, or at the block's open tag
  // when the element is absent.
  const auto fail_at = [](const XmlNode& block, std::string_view key,
                          const std::string& why) {
    const XmlNode* c = block.child(key);
    throw Error(common::strprintf(
        "scenario xml line %d: <%s><%s> %s",
        c != nullptr ? c->line() : block.line(), block.name().c_str(),
        std::string(key).c_str(), why.c_str()));
  };
  const auto flag = [](const XmlNode& block, std::string_view key, bool& v) {
    v = block.child_i64(key, v ? 1 : 0) != 0;
  };
  const auto int_of = [&fail_at](const XmlNode& block, std::string_view key,
                                 int fallback,
                                 int min = std::numeric_limits<int>::min()) {
    const int v = static_cast<int>(block.child_i64(key, fallback));
    if (v < min) fail_at(block, key, "must be >= " + std::to_string(min));
    return v;
  };
  // Every second-valued field is read here: a value SimTime cannot hold
  // (NaN, an infinity, beyond SimTime::kMaxInputSeconds) or below `min`
  // fails at its element's line. Fault instants pass min = 0.
  const auto seconds_of = [&fail_at](const XmlNode& block,
                                     std::string_view key, double fallback,
                                     double min = -SimTime::kMaxInputSeconds) {
    const double v = block.child_double(key, fallback);
    if (!(v >= min && v <= SimTime::kMaxInputSeconds)) {
      fail_at(block, key,
              common::strprintf("must be a number of seconds in [%g, %g]",
                                min, SimTime::kMaxInputSeconds));
    }
    return v;
  };
  const auto time_of = [&seconds_of](const XmlNode& block,
                                     std::string_view key, SimTime fallback) {
    return SimTime::seconds(seconds_of(block, key, fallback.as_seconds()));
  };
  // Durations with a floor: limits, cadences, deadlines and backoffs.
  const auto positive_time_of = [&fail_at, &time_of](const XmlNode& block,
                                                     std::string_view key,
                                                     SimTime fallback) {
    const SimTime t = time_of(block, key, fallback);
    if (!(t > SimTime::zero())) fail_at(block, key, "must be positive");
    return t;
  };
  // A byte count in megabytes, refused where it would overflow Bytes.
  const auto megabytes_of = [&fail_at](const XmlNode& block,
                                       std::string_view key, Bytes fallback) {
    const std::int64_t mb = block.child_i64(key, fallback / 1000000);
    if (mb < 0 || mb > kMaxInputMb) {
      fail_at(block, key,
              common::strprintf("must be in [0, %lld]",
                                static_cast<long long>(kMaxInputMb)));
    }
    return mb * 1000000;
  };

  s.seed = static_cast<std::uint64_t>(
      root->child_i64("seed", static_cast<std::int64_t>(s.seed)));
  s.n_nodes = int_of(*root, "nodes", s.n_nodes);
  s.n_maps = int_of(*root, "maps", s.n_maps);
  s.n_reducers = int_of(*root, "reducers", s.n_reducers);
  s.input_size = megabytes_of(*root, "input_mb", s.input_size);
  s.app = root->child_text("app", s.app);
  flag(*root, "boinc_mr", s.boinc_mr);
  flag(*root, "record_trace", s.record_trace);
  s.flow_failure_rate =
      root->child_double("flow_failure_rate", s.flow_failure_rate);
  s.time_limit = positive_time_of(*root, "time_limit_s", s.time_limit);

  if (const XmlNode* p = root->child("project")) {
    auto& cfg = s.project;
    cfg.target_nresults = int_of(*p, "target_nresults", cfg.target_nresults);
    cfg.min_quorum = int_of(*p, "min_quorum", cfg.min_quorum);
    flag(*p, "mirror_map_outputs", cfg.mirror_map_outputs);
    flag(*p, "report_map_results_immediately",
         cfg.report_map_results_immediately);
    flag(*p, "pipelined_reduce", cfg.pipelined_reduce);
    flag(*p, "resend_lost_results", cfg.resend_lost_results);
    flag(*p, "report_fetch_failures", cfg.report_fetch_failures);
    require(cfg.min_quorum >= 1 && cfg.min_quorum <= cfg.target_nresults,
            "scenario xml: need 1 <= min_quorum <= target_nresults");
    cfg.delay_bound = positive_time_of(*p, "delay_bound_s", cfg.delay_bound);
    cfg.max_wus_in_progress =
        int_of(*p, "max_wus_in_progress", cfg.max_wus_in_progress);
    cfg.snapshot_period =
        positive_time_of(*p, "snapshot_period_s", cfg.snapshot_period);
  }

  if (const XmlNode* r = root->child("replication")) {
    auto& rc = s.project.reputation;
    if (const std::string* mode = r->attr("policy")) {
      rc.mode = rep::policy_mode_from_string(*mode);
    }
    rc.min_consecutive_valid =
        int_of(*r, "min_consecutive_valid", rc.min_consecutive_valid);
    rc.max_error_rate = r->child_double("max_error_rate", rc.max_error_rate);
    rc.spot_check_probability =
        r->child_double("spot_check_probability", rc.spot_check_probability);
    rc.error_rate_prior =
        r->child_double("error_rate_prior", rc.error_rate_prior);
    rc.error_rate_decay =
        r->child_double("error_rate_decay", rc.error_rate_decay);
    rc.trust_max_skips = int_of(*r, "trust_max_skips", rc.trust_max_skips);
    require(rc.min_consecutive_valid >= 1,
            "scenario xml: min_consecutive_valid must be >= 1");
    require(rc.spot_check_probability >= 0 && rc.spot_check_probability <= 1,
            "scenario xml: spot_check_probability must be in [0,1]");
    require(rc.error_rate_decay > 0 && rc.error_rate_decay < 1,
            "scenario xml: error_rate_decay must be in (0,1)");
    require(rc.trust_max_skips >= 0,
            "scenario xml: trust_max_skips must be >= 0");
  }

  if (const XmlNode* c = root->child("client")) {
    auto& cfg = s.client;
    cfg.work_buf_min_seconds =
        seconds_of(*c, "work_buf_min_s", cfg.work_buf_min_seconds);
    cfg.backoff_min = positive_time_of(*c, "backoff_min_s", cfg.backoff_min);
    cfg.backoff_max = time_of(*c, "backoff_max_s", cfg.backoff_max);
    if (cfg.backoff_max < cfg.backoff_min) {
      fail_at(*c, "backoff_max_s", "must be >= <backoff_min_s>");
    }
    cfg.max_file_xfers = int_of(*c, "max_file_xfers", cfg.max_file_xfers);
    flag(*c, "report_results_immediately", cfg.report_results_immediately);
    cfg.peer_fetch.max_attempts =
        int_of(*c, "peer_fetch_attempts", cfg.peer_fetch.max_attempts);
  }

  if (const XmlNode* d = root->child("data_servers")) {
    s.data_servers.n_shards =
        int_of(*d, "shards", s.data_servers.n_shards, 1);
  }

  if (const XmlNode* v = root->child("volunteer_store")) {
    auto& vc = s.project.volunteer_store;
    flag(*v, "enabled", vc.enabled);
    vc.filter_bits = int_of(*v, "filter_bits", vc.filter_bits, 8);
    vc.filter_hashes = int_of(*v, "filter_hashes", vc.filter_hashes, 1);
    vc.max_store_peers = int_of(*v, "max_store_peers", vc.max_store_peers, 1);
    vc.advert_ttl = positive_time_of(*v, "advert_ttl_s", vc.advert_ttl);
    vc.dispatch_gate_width =
        int_of(*v, "dispatch_gate_width", vc.dispatch_gate_width, 1);
    vc.dispatch_max_skips =
        int_of(*v, "dispatch_max_skips", vc.dispatch_max_skips, 0);
  }

  if (const XmlNode* l = root->child("server_link")) {
    s.server_up_bps = l->child_double("up_mbps", 100) * 1e6 / 8;
    s.server_down_bps = l->child_double("down_mbps", 100) * 1e6 / 8;
    const std::int64_t latency_ms = l->child_i64("latency_ms", 1);
    if (latency_ms < 0 || static_cast<double>(latency_ms) > kMaxLatencyMs) {
      fail_at(*l, "latency_ms",
              common::strprintf("must be in [0, %g]", kMaxLatencyMs));
    }
    s.server_latency = SimTime::millis(latency_ms);
  }

  if (const XmlNode* h = root->child("hosts")) {
    s.host_preset = h->child_text("preset", s.host_preset);
    require(s.host_preset == "emulab" || s.host_preset == "internet",
            "scenario xml: <hosts><preset> must be emulab or internet");
  }

  if (const XmlNode* c = root->child("churn")) {
    volunteer::ChurnConfig churn;
    churn.mean_on = time_of(*c, "mean_on_s", SimTime::seconds(28800));
    churn.mean_off = time_of(*c, "mean_off_s", SimTime::seconds(3600));
    require(churn.mean_on.as_seconds() > 0 && churn.mean_off.as_seconds() > 0,
            "scenario xml: churn means must be positive");
    s.churn = churn;
  }

  if (const XmlNode* n = root->child("nat")) {
    volunteer::NatMix mix;
    mix.open = n->child_double("open", mix.open);
    mix.full_cone = n->child_double("full_cone", mix.full_cone);
    mix.restricted = n->child_double("restricted", mix.restricted);
    mix.port_restricted = n->child_double("port_restricted", mix.port_restricted);
    mix.symmetric = n->child_double("symmetric", mix.symmetric);
    s.nat_mix = mix;
    s.use_traversal = true;
  }

  if (root->has_child("overlay")) s.use_overlay = true;

  if (const XmlNode* b = root->child("byzantine")) {
    volunteer::ByzantineMix mix;
    mix.faulty_fraction = b->child_double("faulty_fraction", 0.1);
    mix.error_probability = b->child_double("error_probability", 1.0);
    s.byzantine = mix;
  }

  if (const XmlNode* f = root->child("faults")) {
    // Times are seconds; an absent up/heal/restart element means the fault
    // is never recovered. Host indices are 0-based volunteer indices.
    const auto at = [&seconds_of](const XmlNode& n, std::string_view name) {
      return SimTime::seconds(seconds_of(n, name, 0, 0));
    };
    const auto when = [&at](const XmlNode& n, std::string_view name) {
      return n.has_child(name) ? at(n, name) : SimTime::infinity();
    };
    for (const XmlNode* lf : f->children("link_fault")) {
      fault::LinkFault x;
      x.host = int_of(*lf, "host", -1);
      x.down_at = at(*lf, "down_s");
      x.up_at = when(*lf, "up_s");
      s.faults.link_faults.push_back(x);
    }
    for (const XmlNode* p : f->children("partition")) {
      fault::Partition x;
      for (const std::string& tok :
           common::split(p->child_text("hosts"), ',')) {
        std::int64_t v = 0;
        require(common::parse_i64(common::trim(tok), &v),
                "scenario xml: bad <partition><hosts> list");
        x.hosts.push_back(static_cast<int>(v));
      }
      x.at = at(*p, "at_s");
      x.heal_at = when(*p, "heal_s");
      s.faults.partitions.push_back(std::move(x));
    }
    for (const XmlNode* o : f->children("server_outage")) {
      fault::ServerOutage x;
      x.down_at = at(*o, "down_s");
      x.up_at = when(*o, "up_s");
      // Optional shard index; absent (-1) downs the whole tier, which is
      // the historical single-data-server outage.
      x.shard = int_of(*o, "shard", x.shard);
      s.faults.server_outages.push_back(x);
    }
    for (const XmlNode* c : f->children("crash")) {
      fault::ClientCrash x;
      x.host = int_of(*c, "host", -1);
      x.at = at(*c, "at_s");
      x.restart_at = when(*c, "restart_s");
      s.faults.crashes.push_back(x);
    }
    for (const XmlNode* g : f->children("group")) {
      fault::HostGroup x;
      const std::string* name = g->attr("name");
      require(name != nullptr && !name->empty(),
              "scenario xml: <group> needs a name attribute");
      x.name = *name;
      for (const std::string& tok :
           common::split(g->child_text("hosts"), ',')) {
        std::int64_t v = 0;
        require(common::parse_i64(common::trim(tok), &v),
                "scenario xml: bad <group><hosts> list");
        x.hosts.push_back(static_cast<int>(v));
      }
      s.faults.groups.push_back(std::move(x));
    }
    for (const XmlNode* gf : f->children("group_fault")) {
      fault::GroupFault x;
      x.group = gf->child_text("group");
      x.down_at = at(*gf, "down_s");
      x.up_at = when(*gf, "up_s");
      s.faults.group_faults.push_back(std::move(x));
    }
    for (const XmlNode* d : f->children("link_degrade")) {
      fault::LinkDegrade x;
      x.host = int_of(*d, "host", -1);
      x.factor = d->child_double("factor", x.factor);
      x.at = at(*d, "at_s");
      x.until = when(*d, "until_s");
      s.faults.degrades.push_back(x);
    }
    for (const XmlNode* sc : f->children("server_crash")) {
      fault::ServerCrash x;
      x.at = at(*sc, "at_s");
      x.restore_at = when(*sc, "restore_s");
      s.faults.server_crashes.push_back(x);
    }
    if (const XmlNode* tr = f->child("trace")) {
      const std::string* file = tr->attr("file");
      require(file != nullptr && !file->empty(),
              "scenario xml: <trace> needs a file attribute");
      s.faults.trace_file = *file;
    }
    if (const XmlNode* fl = f->child("link_flap")) {
      fault::LinkFlap x;
      x.mean_up = time_of(*fl, "mean_up_s", SimTime::seconds(1800));
      x.mean_down = time_of(*fl, "mean_down_s", SimTime::seconds(60));
      s.faults.link_flap = x;
    }
    s.faults.upload_corruption_rate =
        f->child_double("upload_corruption_rate", 0);
    s.faults.rpc_loss_rate = f->child_double("rpc_loss_rate", 0);
  }

  if (const XmlNode* w = root->child("workflow")) {
    // One <node name="..."> per MapReduce job; <deps> is a comma-separated
    // list of upstream node names. Structural validation (unknown apps and
    // deps, cycles, inputless roots) happens right here, at parse time,
    // with errors citing the offending <node>'s line.
    for (const XmlNode* n : w->children("node")) {
      wf::NodeSpec node;
      node.line = n->line();
      const std::string* name = n->attr("name");
      if (name == nullptr || name->empty()) {
        throw Error(common::strprintf(
            "scenario xml line %d: <workflow><node> needs a name attribute",
            n->line()));
      }
      node.job.name = *name;
      node.job.app = n->child_text("app", node.job.app);
      node.job.n_maps = int_of(*n, "maps", 0);
      node.job.n_reducers = int_of(*n, "reducers", 0);
      node.job.input_size = megabytes_of(*n, "input_mb", 0);
      if (n->has_child("input_text")) {
        node.job.input_text = n->child_text("input_text");
      }
      flag(*n, "shared_input", node.job.shared_input);
      for (const std::string& tok :
           common::split(n->child_text("deps"), ',')) {
        const std::string dep(common::trim(tok));
        if (!dep.empty()) node.deps.push_back(dep);
      }
      if (const XmlNode* it = n->child("iterate")) {
        node.iterate.max_iterations =
            int_of(*it, "max_iterations", node.iterate.max_iterations);
        node.iterate.threshold =
            it->child_double("threshold", node.iterate.threshold);
      }
      s.workflow.push_back(std::move(node));
    }
    if (s.workflow.empty()) {
      throw Error(common::strprintf(
          "scenario xml line %d: <workflow> has no <node> children",
          w->line()));
    }
    const wf::WorkflowGraph validate(s.workflow);  // throws, line-numbered
    (void)validate;
  }

  require(s.n_nodes >= 1 && s.n_maps >= 1 && s.n_reducers >= 1,
          "scenario xml: nodes/maps/reducers must be >= 1");
  return s;
}

std::string scenario_to_xml(const Scenario& s) {
  XmlNode root("scenario");
  auto put = [&root](const char* key, std::int64_t v) {
    root.add_child_text(key, std::to_string(v));
  };
  put("seed", static_cast<std::int64_t>(s.seed));
  put("nodes", s.n_nodes);
  put("maps", s.n_maps);
  put("reducers", s.n_reducers);
  put("input_mb", s.input_size / 1000000);
  root.add_child_text("app", s.app);
  put("boinc_mr", s.boinc_mr ? 1 : 0);
  put("record_trace", s.record_trace ? 1 : 0);
  root.add_child_text("time_limit_s",
                      common::strprintf("%.0f", s.time_limit.as_seconds()));
  if (s.flow_failure_rate > 0) {
    root.add_child_text("flow_failure_rate",
                        common::strprintf("%.6f", s.flow_failure_rate));
  }

  XmlNode& p = root.add_child("project");
  const auto flag = [&p](const char* name, bool v) {
    p.add_child_text(name, v ? "1" : "0");
  };
  p.add_child_text("target_nresults",
                   std::to_string(s.project.target_nresults));
  p.add_child_text("min_quorum", std::to_string(s.project.min_quorum));
  flag("mirror_map_outputs", s.project.mirror_map_outputs);
  flag("report_map_results_immediately",
       s.project.report_map_results_immediately);
  flag("pipelined_reduce", s.project.pipelined_reduce);
  flag("resend_lost_results", s.project.resend_lost_results);
  flag("report_fetch_failures", s.project.report_fetch_failures);
  p.add_child_text("delay_bound_s",
                   common::strprintf("%.0f", s.project.delay_bound.as_seconds()));
  p.add_child_text("max_wus_in_progress",
                   std::to_string(s.project.max_wus_in_progress));
  p.add_child_text(
      "snapshot_period_s",
      common::strprintf("%.0f", s.project.snapshot_period.as_seconds()));

  const auto& rc = s.project.reputation;
  XmlNode& r = root.add_child("replication");
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

  XmlNode& c = root.add_child("client");
  c.add_child_text("work_buf_min_s",
                   common::strprintf("%.0f", s.client.work_buf_min_seconds));
  c.add_child_text("backoff_min_s",
                   common::strprintf("%.0f", s.client.backoff_min.as_seconds()));
  c.add_child_text("backoff_max_s",
                   common::strprintf("%.0f", s.client.backoff_max.as_seconds()));
  c.add_child_text("max_file_xfers", std::to_string(s.client.max_file_xfers));
  c.add_child_text("report_results_immediately",
                   s.client.report_results_immediately ? "1" : "0");
  c.add_child_text("peer_fetch_attempts",
                   std::to_string(s.client.peer_fetch.max_attempts));

  XmlNode& ds = root.add_child("data_servers");
  ds.add_child_text("shards", std::to_string(s.data_servers.n_shards));

  const auto& vc = s.project.volunteer_store;
  XmlNode& vs = root.add_child("volunteer_store");
  vs.add_child_text("enabled", vc.enabled ? "1" : "0");
  vs.add_child_text("filter_bits", std::to_string(vc.filter_bits));
  vs.add_child_text("filter_hashes", std::to_string(vc.filter_hashes));
  vs.add_child_text("max_store_peers", std::to_string(vc.max_store_peers));
  vs.add_child_text("advert_ttl_s",
                    common::strprintf("%.0f", vc.advert_ttl.as_seconds()));
  vs.add_child_text("dispatch_gate_width",
                    std::to_string(vc.dispatch_gate_width));
  vs.add_child_text("dispatch_max_skips",
                    std::to_string(vc.dispatch_max_skips));

  XmlNode& l = root.add_child("server_link");
  l.add_child_text("up_mbps",
                   common::strprintf("%.3f", s.server_up_bps * 8 / 1e6));
  l.add_child_text("down_mbps",
                   common::strprintf("%.3f", s.server_down_bps * 8 / 1e6));
  l.add_child_text("latency_ms",
                   std::to_string(s.server_latency.as_micros() / 1000));

  XmlNode& h = root.add_child("hosts");
  h.add_child_text("preset", s.host_preset.empty() ? "emulab" : s.host_preset);

  if (s.churn) {
    XmlNode& ch = root.add_child("churn");
    ch.add_child_text("mean_on_s",
                      common::strprintf("%.0f", s.churn->mean_on.as_seconds()));
    ch.add_child_text("mean_off_s",
                      common::strprintf("%.0f", s.churn->mean_off.as_seconds()));
  }
  if (s.nat_mix) {
    XmlNode& n = root.add_child("nat");
    n.add_child_text("open", common::strprintf("%.4f", s.nat_mix->open));
    n.add_child_text("full_cone", common::strprintf("%.4f", s.nat_mix->full_cone));
    n.add_child_text("restricted",
                     common::strprintf("%.4f", s.nat_mix->restricted));
    n.add_child_text("port_restricted",
                     common::strprintf("%.4f", s.nat_mix->port_restricted));
    n.add_child_text("symmetric",
                     common::strprintf("%.4f", s.nat_mix->symmetric));
  }
  if (s.use_overlay) root.add_child("overlay");
  if (s.byzantine) {
    XmlNode& b = root.add_child("byzantine");
    b.add_child_text("faulty_fraction",
                     common::strprintf("%.4f", s.byzantine->faulty_fraction));
    b.add_child_text("error_probability",
                     common::strprintf("%.4f", s.byzantine->error_probability));
  }
  if (!s.faults.empty()) {
    XmlNode& f = root.add_child("faults");
    const auto secs = [](SimTime t) {
      return common::strprintf("%.6f", t.as_seconds());
    };
    for (const auto& lf : s.faults.link_faults) {
      XmlNode& n = f.add_child("link_fault");
      n.add_child_text("host", std::to_string(lf.host));
      n.add_child_text("down_s", secs(lf.down_at));
      if (lf.up_at < SimTime::infinity()) {
        n.add_child_text("up_s", secs(lf.up_at));
      }
    }
    for (const auto& p : s.faults.partitions) {
      XmlNode& n = f.add_child("partition");
      std::vector<std::string> hosts;
      hosts.reserve(p.hosts.size());
      for (const int h : p.hosts) hosts.push_back(std::to_string(h));
      n.add_child_text("hosts", common::join(hosts, ","));
      n.add_child_text("at_s", secs(p.at));
      if (p.heal_at < SimTime::infinity()) {
        n.add_child_text("heal_s", secs(p.heal_at));
      }
    }
    for (const auto& o : s.faults.server_outages) {
      XmlNode& n = f.add_child("server_outage");
      n.add_child_text("down_s", secs(o.down_at));
      if (o.up_at < SimTime::infinity()) {
        n.add_child_text("up_s", secs(o.up_at));
      }
      if (o.shard >= 0) n.add_child_text("shard", std::to_string(o.shard));
    }
    for (const auto& c : s.faults.crashes) {
      XmlNode& n = f.add_child("crash");
      n.add_child_text("host", std::to_string(c.host));
      n.add_child_text("at_s", secs(c.at));
      if (c.restart_at < SimTime::infinity()) {
        n.add_child_text("restart_s", secs(c.restart_at));
      }
    }
    for (const auto& g : s.faults.groups) {
      XmlNode& n = f.add_child("group");
      n.set_attr("name", g.name);
      std::vector<std::string> hosts;
      hosts.reserve(g.hosts.size());
      for (const int h : g.hosts) hosts.push_back(std::to_string(h));
      n.add_child_text("hosts", common::join(hosts, ","));
    }
    for (const auto& gf : s.faults.group_faults) {
      XmlNode& n = f.add_child("group_fault");
      n.add_child_text("group", gf.group);
      n.add_child_text("down_s", secs(gf.down_at));
      if (gf.up_at < SimTime::infinity()) {
        n.add_child_text("up_s", secs(gf.up_at));
      }
    }
    for (const auto& d : s.faults.degrades) {
      XmlNode& n = f.add_child("link_degrade");
      n.add_child_text("host", std::to_string(d.host));
      n.add_child_text("factor", common::strprintf("%.6f", d.factor));
      n.add_child_text("at_s", secs(d.at));
      if (d.until < SimTime::infinity()) {
        n.add_child_text("until_s", secs(d.until));
      }
    }
    for (const auto& sc : s.faults.server_crashes) {
      XmlNode& n = f.add_child("server_crash");
      n.add_child_text("at_s", secs(sc.at));
      if (sc.restore_at < SimTime::infinity()) {
        n.add_child_text("restore_s", secs(sc.restore_at));
      }
    }
    if (!s.faults.trace_file.empty()) {
      f.add_child("trace").set_attr("file", s.faults.trace_file);
    }
    if (s.faults.link_flap) {
      XmlNode& n = f.add_child("link_flap");
      n.add_child_text("mean_up_s", secs(s.faults.link_flap->mean_up));
      n.add_child_text("mean_down_s", secs(s.faults.link_flap->mean_down));
    }
    if (s.faults.upload_corruption_rate > 0) {
      f.add_child_text(
          "upload_corruption_rate",
          common::strprintf("%.6f", s.faults.upload_corruption_rate));
    }
    if (s.faults.rpc_loss_rate > 0) {
      f.add_child_text("rpc_loss_rate",
                       common::strprintf("%.6f", s.faults.rpc_loss_rate));
    }
  }
  if (!s.workflow.empty()) {
    XmlNode& w = root.add_child("workflow");
    for (const auto& node : s.workflow) {
      XmlNode& n = w.add_child("node");
      n.set_attr("name", node.job.name);
      n.add_child_text("app", node.job.app);
      n.add_child_text("maps", std::to_string(node.job.n_maps));
      n.add_child_text("reducers", std::to_string(node.job.n_reducers));
      if (node.job.input_text) {
        n.add_child_text("input_text", *node.job.input_text);
      } else if (node.job.input_size > 0) {
        n.add_child_text("input_mb",
                         std::to_string(node.job.input_size / 1000000));
      }
      if (node.job.shared_input) n.add_child_text("shared_input", "1");
      if (!node.deps.empty()) {
        n.add_child_text("deps", common::join(node.deps, ","));
      }
      if (node.iterate.max_iterations > 1 || node.iterate.threshold >= 0) {
        XmlNode& it = n.add_child("iterate");
        it.add_child_text("max_iterations",
                          std::to_string(node.iterate.max_iterations));
        if (node.iterate.threshold >= 0) {
          it.add_child_text(
              "threshold",
              common::strprintf("%.6f", node.iterate.threshold));
        }
      }
    }
  }
  return root.to_string();
}

}  // namespace vcmr::core
