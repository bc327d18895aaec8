#include "fault/fault.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <span>
#include <sstream>

#include "common/error.h"
#include "common/logging.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "sim/trace.h"

namespace vcmr::fault {

namespace {
common::Logger log_("fault");
}

std::vector<LinkFault> compile_availability_trace(const std::string& csv,
                                                  int n_hosts) {
  const auto fail = [](int line, const std::string& why) {
    throw Error(common::strprintf("availability trace line %d: %s", line,
                                  why.c_str()));
  };
  // host -> availability windows in file order; validated per host as rows
  // arrive so the error names the first offending line.
  struct Window {
    double on, off;
  };
  std::map<int, std::vector<Window>> windows;
  std::istringstream in(csv);
  std::string row;
  int line = 0;
  while (std::getline(in, row)) {
    ++line;
    const std::string_view t = common::trim(row);
    if (t.empty() || t[0] == '#') continue;
    const auto fields = common::split(t, ',');
    if (fields.size() != 3) fail(line, "expected host_id,on_at,off_at");
    std::int64_t host = 0;
    double on = 0, off = 0;
    if (!common::parse_i64(common::trim(fields[0]), &host)) {
      fail(line, "bad host_id '" + fields[0] + "'");
    }
    if (!common::parse_double(common::trim(fields[1]), &on) ||
        !common::parse_double(common::trim(fields[2]), &off)) {
      fail(line, "bad on_at/off_at");
    }
    // NaN and infinities fail these comparisons too.
    if (!(std::abs(on) <= SimTime::kMaxInputSeconds &&
          std::abs(off) <= SimTime::kMaxInputSeconds)) {
      fail(line, common::strprintf("on_at/off_at must be finite and within "
                                   "%g s",
                                   SimTime::kMaxInputSeconds));
    }
    if (host < 0 || host >= n_hosts) {
      fail(line, common::strprintf("host %lld out of range [0, %d)",
                                   static_cast<long long>(host), n_hosts));
    }
    if (on < 0) fail(line, "negative on_at");
    if (off <= on) fail(line, "interval is empty (off_at <= on_at)");
    auto& w = windows[static_cast<int>(host)];
    if (!w.empty()) {
      if (on < w.back().on) fail(line, "intervals not sorted for this host");
      if (on < w.back().off) fail(line, "interval overlaps the previous one");
    }
    w.push_back({on, off});
  }

  // A traced host is down in the complement of its windows. Adjacent
  // windows (on == previous off) leave no gap and emit nothing.
  std::vector<LinkFault> out;
  for (const auto& [host, w] : windows) {
    const auto add = [&](double down, double up_or_neg) {
      LinkFault lf;
      lf.host = host;
      lf.from_trace = true;
      lf.down_at = SimTime::seconds(down);
      if (up_or_neg >= 0) lf.up_at = SimTime::seconds(up_or_neg);
      out.push_back(lf);
    };
    if (w.front().on > 0) add(0, w.front().on);
    for (std::size_t i = 1; i < w.size(); ++i) {
      if (w[i].on > w[i - 1].off) add(w[i - 1].off, w[i].on);
    }
    add(w.back().off, -1);  // off at the end of the trace, never back
  }
  return out;
}

std::vector<LinkFault> load_availability_trace_file(const std::string& path,
                                                    int n_hosts) {
  std::ifstream f(path);
  if (!f) throw Error("availability trace: cannot read " + path);
  std::ostringstream body;
  body << f.rdbuf();
  return compile_availability_trace(body.str(), n_hosts);
}

Injector::Injector(sim::Simulation& sim, FaultPlan plan, Hooks hooks,
                   int n_hosts)
    : sim_(sim),
      plan_(std::move(plan)),
      hooks_(std::move(hooks)),
      n_hosts_(n_hosts),
      corrupt_rng_(sim.rng_stream("fault.corrupt")),
      drop_rng_(sim.rng_stream("fault.rpcloss")) {
  const auto check_host = [this](int host, const char* what) {
    if (host < 0 || host >= n_hosts_) {
      throw Error(std::string("FaultPlan: ") + what +
                  " host index out of range");
    }
  };
  for (const auto& lf : plan_.link_faults) {
    check_host(lf.host, "link_fault");
    require(lf.up_at > lf.down_at, "FaultPlan: link_fault up_at <= down_at");
  }
  for (const auto& p : plan_.partitions) {
    require(!p.hosts.empty(), "FaultPlan: partition with no hosts");
    for (const int h : p.hosts) check_host(h, "partition");
    require(p.heal_at > p.at, "FaultPlan: partition heal_at <= at");
  }
  for (const auto& o : plan_.server_outages) {
    require(o.up_at > o.down_at, "FaultPlan: server_outage up_at <= down_at");
    require(o.shard >= -1, "FaultPlan: server_outage shard must be >= -1");
  }
  for (const auto& c : plan_.crashes) {
    check_host(c.host, "crash");
    require(c.restart_at > c.at, "FaultPlan: crash restart_at <= at");
  }
  require(plan_.trace_file.empty(),
          "FaultPlan: trace_file must be compiled into link faults before "
          "the Injector is built (compile_availability_trace)");
  for (const auto& g : plan_.groups) {
    require(!g.name.empty(), "FaultPlan: group with no name");
    require(!g.hosts.empty(), "FaultPlan: group with no hosts");
    for (const int h : g.hosts) check_host(h, "group");
    const auto dup = std::count_if(
        plan_.groups.begin(), plan_.groups.end(),
        [&](const HostGroup& o) { return o.name == g.name; });
    require(dup == 1, "FaultPlan: duplicate group name");
  }
  for (const auto& gf : plan_.group_faults) {
    const auto it = std::find_if(
        plan_.groups.begin(), plan_.groups.end(),
        [&](const HostGroup& g) { return g.name == gf.group; });
    if (it == plan_.groups.end()) {
      throw Error("FaultPlan: group_fault references unknown group '" +
                  gf.group + "'");
    }
    require(gf.up_at > gf.down_at, "FaultPlan: group_fault up_at <= down_at");
  }
  for (const auto& d : plan_.degrades) {
    check_host(d.host, "link_degrade");
    require(d.factor > 0.0 && d.factor <= 1.0,
            "FaultPlan: link_degrade factor must be in (0,1]");
    require(d.until > d.at, "FaultPlan: link_degrade until <= at");
  }
  for (const auto& sc : plan_.server_crashes) {
    require(sc.restore_at > sc.at,
            "FaultPlan: server_crash restore_at <= at");
  }
  require(plan_.upload_corruption_rate >= 0 &&
              plan_.upload_corruption_rate <= 1,
          "FaultPlan: upload_corruption_rate must be in [0,1]");
  require(plan_.rpc_loss_rate >= 0 && plan_.rpc_loss_rate <= 1,
          "FaultPlan: rpc_loss_rate must be in [0,1]");
  if (plan_.link_flap) {
    require(plan_.link_flap->mean_up > SimTime::zero() &&
                plan_.link_flap->mean_down > SimTime::zero(),
            "FaultPlan: link_flap means must be positive");
    flap_rngs_.reserve(static_cast<std::size_t>(n_hosts_));
    for (int i = 0; i < n_hosts_; ++i) {
      flap_rngs_.push_back(sim.rng_stream(
          "fault.linkflap", static_cast<std::uint64_t>(i)));
    }
  }
}

namespace {
constexpr const char* kInjectionKinds[] = {
    "link_down", "partition",  "server_down",  "crash",      "corrupt_upload",
    "rpc_drop",  "group_down", "link_degrade", "trace_down", "server_crash"};
constexpr const char* kRecoveryKinds[] = {
    "link_up",  "partition_heal",    "server_up", "restart",
    "group_up", "link_restore_rate", "trace_up",  "server_restore"};

std::int64_t sum_kinds(const obs::MetricsRegistry& reg,
                       std::span<const char* const> kinds) {
  std::int64_t total = 0;
  for (const char* kind : kinds) total += injections(reg, kind);
  return total;
}
}  // namespace

std::int64_t injections(const obs::MetricsRegistry& reg,
                        const std::string& kind) {
  return reg.counter_value("fault", "injections", {{"kind", kind}});
}

std::int64_t injected(const obs::MetricsRegistry& reg) {
  return sum_kinds(reg, kInjectionKinds);
}

std::int64_t recovered(const obs::MetricsRegistry& reg) {
  return sum_kinds(reg, kRecoveryKinds);
}

void Injector::record(const std::string& label, const std::string& detail) {
  log_.debug(label, " ", detail, " at t=", sim_.now().str());
  obs::MetricsRegistry::instance()
      .counter("fault", "injections", {{"kind", label}})
      .add();
  if (auto* trace = sim_.trace()) {
    trace->point(sim_.now(), "fault", "fault", label, detail);
  }
}

void Injector::arm() {
  require(!armed_, "Injector::arm called twice");
  armed_ = true;

  for (const auto& lf : plan_.link_faults) {
    const int host = lf.host;
    const bool traced = lf.from_trace;
    sim_.at(lf.down_at, [this, host, traced] {
      record(traced ? "trace_down" : "link_down",
             "host" + std::to_string(host + 1));
      if (hooks_.set_link) hooks_.set_link(host, false);
    });
    if (lf.up_at < SimTime::infinity()) {
      sim_.at(lf.up_at, [this, host, traced] {
        record(traced ? "trace_up" : "link_up",
               "host" + std::to_string(host + 1));
        if (hooks_.set_link) hooks_.set_link(host, true);
      });
    }
  }

  for (const auto& gf : plan_.group_faults) {
    const auto git = std::find_if(
        plan_.groups.begin(), plan_.groups.end(),
        [&](const HostGroup& g) { return g.name == gf.group; });
    // Copy: the lambda must not dangle on plan_ internals being moved.
    const std::vector<int> members = git->hosts;
    const std::string name = gf.group;
    sim_.at(gf.down_at, [this, members, name] {
      record("group_down",
             common::strprintf("%s (%zu hosts)", name.c_str(),
                               members.size()));
      if (hooks_.set_link) {
        for (const int h : members) hooks_.set_link(h, false);
      }
    });
    if (gf.up_at < SimTime::infinity()) {
      sim_.at(gf.up_at, [this, members, name] {
        record("group_up", name);
        if (hooks_.set_link) {
          for (const int h : members) hooks_.set_link(h, true);
        }
      });
    }
  }

  for (const auto& d : plan_.degrades) {
    const int host = d.host;
    const double factor = d.factor;
    sim_.at(d.at, [this, host, factor] {
      record("link_degrade",
             common::strprintf("host%d x%.3f", host + 1, factor));
      if (hooks_.set_link_degrade) hooks_.set_link_degrade(host, factor);
    });
    if (d.until < SimTime::infinity()) {
      sim_.at(d.until, [this, host] {
        record("link_restore_rate", "host" + std::to_string(host + 1));
        if (hooks_.set_link_degrade) hooks_.set_link_degrade(host, 1.0);
      });
    }
  }

  for (const auto& sc : plan_.server_crashes) {
    sim_.at(sc.at, [this] {
      record("server_crash", "scheduler/daemon state lost");
      if (hooks_.crash_server) hooks_.crash_server();
    });
    if (sc.restore_at < SimTime::infinity()) {
      sim_.at(sc.restore_at, [this] {
        record("server_restore", "restored from DB snapshot");
        if (hooks_.restore_server) hooks_.restore_server();
      });
    }
  }

  // Each partition spec gets its own class id; concurrent partitions of
  // overlapping host sets compose last-write-wins.
  int cls = 0;
  for (const auto& p : plan_.partitions) {
    ++cls;
    const std::vector<int> hosts = p.hosts;
    const int this_cls = cls;
    sim_.at(p.at, [this, hosts, this_cls] {
      record("partition",
             common::strprintf("class%d (%zu hosts)", this_cls, hosts.size()));
      if (hooks_.set_partition) hooks_.set_partition(hosts, this_cls);
    });
    if (p.heal_at < SimTime::infinity()) {
      sim_.at(p.heal_at, [this, hosts, this_cls] {
        record("partition_heal", common::strprintf("class%d", this_cls));
        if (hooks_.set_partition) hooks_.set_partition(hosts, 0);
      });
    }
  }

  for (const auto& o : plan_.server_outages) {
    const int shard = o.shard;
    const std::string what =
        shard < 0 ? "data server" : "data shard " + std::to_string(shard);
    sim_.at(o.down_at, [this, shard, what] {
      record("server_down", what);
      if (hooks_.set_data_server) hooks_.set_data_server(shard, false);
    });
    if (o.up_at < SimTime::infinity()) {
      sim_.at(o.up_at, [this, shard, what] {
        record("server_up", what);
        if (hooks_.set_data_server) hooks_.set_data_server(shard, true);
      });
    }
  }

  for (const auto& c : plan_.crashes) {
    const int host = c.host;
    sim_.at(c.at, [this, host] {
      record("crash", "host" + std::to_string(host + 1));
      if (hooks_.crash_client) hooks_.crash_client(host);
    });
    if (c.restart_at < SimTime::infinity()) {
      sim_.at(c.restart_at, [this, host] {
        record("restart", "host" + std::to_string(host + 1));
        if (hooks_.restart_client) hooks_.restart_client(host);
      });
    }
  }

  if (plan_.link_flap) {
    for (int i = 0; i < n_hosts_; ++i) schedule_flap_down(i);
  }
}

void Injector::schedule_flap_down(int host) {
  const double up_s = flap_rngs_[static_cast<std::size_t>(host)].exponential(
      plan_.link_flap->mean_up.as_seconds());
  sim_.after(SimTime::seconds(up_s), [this, host] {
    record("link_down", "host" + std::to_string(host + 1) + " (flap)");
    if (hooks_.set_link) hooks_.set_link(host, false);
    schedule_flap_up(host);
  });
}

void Injector::schedule_flap_up(int host) {
  const double down_s = flap_rngs_[static_cast<std::size_t>(host)].exponential(
      plan_.link_flap->mean_down.as_seconds());
  sim_.after(SimTime::seconds(down_s), [this, host] {
    record("link_up", "host" + std::to_string(host + 1) + " (flap)");
    if (hooks_.set_link) hooks_.set_link(host, true);
    schedule_flap_down(host);
  });
}

bool Injector::corrupt_upload_draw() {
  if (!corrupt_rng_.chance(plan_.upload_corruption_rate)) return false;
  record("corrupt_upload", "");
  return true;
}

bool Injector::drop_message_draw() {
  if (!drop_rng_.chance(plan_.rpc_loss_rate)) return false;
  record("rpc_drop", "");
  return true;
}

}  // namespace vcmr::fault
