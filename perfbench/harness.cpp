// vcmr_perf: runs one scenario file as a full core::Cluster job and prints
// one JSON line describing the run.
//
//   vcmr_perf SCENARIO.xml [--trace STACKS_FILE]
//
// The harness sits outside the program: it times its own calls into `core`
// (scenario parse + Cluster construction, run_job, destruction) and reads only
// public accessors and the vcmr::obs registry. Everything is single-threaded.
// It builds and destroys kSetupReps - 1 throwaway clusters (each under its
// own obs registry) before the one that runs the job, and reports all the
// set-up times.
//
// --trace adds two samplers while run_job runs. A probe on the simulated
// clock records active flows and the wall time at which each simulated
// second was reached. A wall-clock timer (SIGALRM, kProfileHz) samples the
// call stack; each sample becomes one line of hex return addresses (offsets
// from the executable's load address) in STACKS_FILE.
//
// On SIGTERM (a budget kill) the harness prints `dnf sim_s=<t>` with the
// simulated second reached to stderr and exits with status 3.

#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/logging.h"
#include "core/cluster.h"
#include "core/scenario_io.h"
#include "obs/metrics.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetupReps = 9;          // set-up times per job
constexpr int kProfileHz = 1000;       // stack samples per wall second
constexpr double kProbePeriodS = 1.0;  // simulated seconds between probes

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// --- budget kill -------------------------------------------------------------

// The simulation being run, for the SIGTERM handler. The handler runs on the
// only thread, between two instructions of the event loop, so reading the
// clock there sees a value the loop has already stored.
const vcmr::sim::Simulation* g_running = nullptr;

void put_decimal(char* buf, std::size_t& n, std::int64_t v) {
  char tmp[24];
  std::size_t k = 0;
  if (v < 0) v = 0;
  do {
    tmp[k++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v > 0);
  while (k > 0) buf[n++] = tmp[--k];
}

extern "C" void on_sigterm(int) {
  char buf[64];
  std::size_t n = 0;
  for (const char* p = "dnf sim_s="; *p; ++p) buf[n++] = *p;
  const std::int64_t s =
      g_running ? static_cast<std::int64_t>(g_running->now().as_seconds()) : 0;
  put_decimal(buf, n, s);
  buf[n++] = '\n';
  (void)!write(STDERR_FILENO, buf, n);
  _exit(3);
}

// --- call-stack sampler ------------------------------------------------------

constexpr int kMaxDepth = 64;
// Flat sample store: [depth, pc_0 .. pc_{depth-1}] per sample, room for about
// a minute of samples. Allocated before the timer starts so the handler never
// allocates; a full store drops further samples, which then show up as a
// trace.attributed_ratio below 1.
constexpr std::size_t kStackCap = std::size_t{1} << 22;
void** g_stack_buf = nullptr;
std::size_t g_stack_used = 0;

extern "C" void on_sample(int) {
  const int saved_errno = errno;
  void* frames[kMaxDepth];
  const int depth = backtrace(frames, kMaxDepth);
  const std::size_t need = static_cast<std::size_t>(depth) + 1;
  if (g_stack_used + need <= kStackCap) {
    g_stack_buf[g_stack_used] =
        reinterpret_cast<void*>(static_cast<std::intptr_t>(depth));
    std::memcpy(g_stack_buf + g_stack_used + 1, frames,
                static_cast<std::size_t>(depth) * sizeof(void*));
    g_stack_used += need;
  }
  errno = saved_errno;
}

class StackSampler {
 public:
  StackSampler() : buf_(new void*[kStackCap]) {
    void* warm[4];
    backtrace(warm, 4);  // loads the unwinder outside the handler
    g_stack_buf = buf_.get();
    struct sigaction sa {};
    sa.sa_handler = on_sample;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGALRM, &sa, nullptr);
    itimerval it{};
    it.it_interval.tv_usec = 1000000 / kProfileHz;
    it.it_value = it.it_interval;
    setitimer(ITIMER_REAL, &it, nullptr);
  }
  ~StackSampler() { stop(); }

  StackSampler(const StackSampler&) = delete;
  StackSampler& operator=(const StackSampler&) = delete;

  void stop() {
    itimerval off{};
    setitimer(ITIMER_REAL, &off, nullptr);
  }

  void write(const std::string& path) const {
    std::uintptr_t base = 0;
    dl_iterate_phdr(
        [](dl_phdr_info* info, std::size_t, void* out) {
          *static_cast<std::uintptr_t*>(out) = info->dlpi_addr;
          return 1;  // the first object is the executable
        },
        &base);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    for (std::size_t i = 0; i < g_stack_used;) {
      const auto depth = reinterpret_cast<std::intptr_t>(buf_[i]);
      for (std::intptr_t d = 0; d < depth; ++d) {
        const auto pc = reinterpret_cast<std::uintptr_t>(buf_[i + 1 + d]);
        std::fprintf(f, d == 0 ? "%jx" : " %jx",
                     static_cast<std::uintmax_t>(pc - base));
      }
      std::fputc('\n', f);
      i += static_cast<std::size_t>(depth) + 1;
    }
    std::fclose(f);
  }

 private:
  std::unique_ptr<void*[]> buf_;  // uninitialised: pages fill as used
};

// Peak resident set of this process image (VmHWM). Unlike ru_maxrss it
// starts afresh at exec, so the launcher's memory never shows up in it.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

// --- output ------------------------------------------------------------------

// JsonWriter prints doubles with %.6g; times and the fingerprint need every
// digit, so doubles go in pre-rendered through field_json.
std::string full(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string full(const std::vector<double>& vs) {
  std::string s = "[";
  for (std::size_t i = 0; i < vs.size(); ++i) s += (i ? "," : "") + full(vs[i]);
  return s + "]";
}

std::string quoted(const std::vector<std::string>& vs) {
  std::string s = "[";
  for (std::size_t i = 0; i < vs.size(); ++i) {
    s += (i ? "," : "") + vcmr::common::JsonWriter::quoted(vs[i]);
  }
  return s + "]";
}

std::int64_t counter(const char* component, const char* name) {
  return vcmr::obs::MetricsRegistry::instance().counter_total(component, name);
}

std::int64_t labelled(const char* component, const char* name,
                      const char* key, const char* value) {
  const auto& all = vcmr::obs::MetricsRegistry::instance().counters();
  const auto it = all.find({component, name, {{key, value}}});
  return it == all.end() ? 0 : it->second.value();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vcmr;
  const bool traced = argc == 4 && argv[2] == std::string("--trace");
  if (argc != 2 && !traced) {
    std::fprintf(stderr,
                 "usage: vcmr_perf SCENARIO.xml [--trace STACKS_FILE]\n");
    return 2;
  }
  common::LogConfig::instance().set_level(common::LogLevel::kOff);
  signal(SIGTERM, on_sigterm);

  const std::string xml = read_file(argv[1]);
  std::vector<double> setup_s;
  for (int r = 1; r < kSetupReps; ++r) {
    obs::ScopedMetricsRegistry scratch;
    const auto t0 = Clock::now();
    auto c = std::make_unique<core::Cluster>(core::scenario_from_xml(xml));
    setup_s.push_back(seconds_since(t0));
  }
  auto t0 = Clock::now();
  auto cluster = std::make_unique<core::Cluster>(core::scenario_from_xml(xml));
  setup_s.push_back(seconds_since(t0));
  g_running = &cluster->simulation();

  Clock::time_point run_start;
  std::vector<double> probe_sim_s, probe_wall_s;
  std::size_t flows_peak = 0;
  std::unique_ptr<sim::PeriodicTask> probe;
  std::unique_ptr<StackSampler> sampler;
  if (traced) {
    probe = std::make_unique<sim::PeriodicTask>(
        cluster->simulation(), SimTime::seconds(kProbePeriodS), [&] {
          probe_sim_s.push_back(cluster->simulation().now().as_seconds());
          probe_wall_s.push_back(seconds_since(run_start));
          flows_peak =
              std::max(flows_peak, cluster->network().active_flow_count());
        });
    sampler = std::make_unique<StackSampler>();
  }

  run_start = Clock::now();
  const core::RunOutcome out = cluster->run_job();
  const double run_s = seconds_since(run_start);
  if (sampler) sampler->stop();

  // --- read the run's outputs ------------------------------------------------
  const sim::Simulation& sim = cluster->simulation();
  const std::int64_t probe_fired = probe ? probe->fired() : 0;
  const std::int64_t events =
      static_cast<std::int64_t>(sim.events_executed()) - probe_fired;
  const auto& db = cluster->project().database();
  std::vector<std::string> failed_checks;
  if (!out.metrics.completed || out.hit_time_limit) {
    failed_checks.push_back("job did not complete within its time limit");
  }
  const std::int64_t ic_fetched = counter("interclient", "bytes_fetched");
  const std::int64_t ic_served = counter("interclient", "bytes_served");
  if (ic_fetched != ic_served) {
    failed_checks.push_back("interclient bytes_fetched != bytes_served");
  }
  const std::int64_t tier_project =
      labelled("store", "tier_egress_bytes", "tier", "project");
  const std::int64_t shard_egress = counter("store", "egress_bytes");
  if (tier_project != shard_egress) {
    failed_checks.push_back("project tier egress != data-server egress");
  }
  // The two pairs above are counted side by side in one callback each. The
  // checks below pair counts kept by different modules.
  const auto& storage = cluster->project().storage();
  const std::int64_t tier_ingress =
      labelled("store", "tier_ingress_bytes", "tier", "project");
  // A data server counts a download when its HTTP handler answers; the tier
  // counts it when the body flow completes. Only a transfer cut short by
  // churn or an injected fault can tell them apart.
  const bool lossless = !cluster->scenario().churn && !cluster->injector();
  if (tier_project > storage.bytes_served() ||
      (lossless && tier_project != storage.bytes_served())) {
    failed_checks.push_back("project tier egress != bytes its servers served");
  }
  std::int64_t client_downloaded = 0;
  for (std::size_t i = 0; i < cluster->n_clients(); ++i) {
    client_downloaded += cluster->client(i).stats().bytes_downloaded_server;
  }
  if (client_downloaded != tier_project) {
    failed_checks.push_back("client downloads != project tier egress");
  }
  // The network settles every byte of every flow on its endpoints, whatever
  // the flow carries.
  const net::Network& net = cluster->network();
  std::int64_t tier_sent = net.traffic(cluster->server_node()).bytes_sent;
  std::int64_t tier_received =
      net.traffic(cluster->server_node()).bytes_received;
  for (const NodeId n : cluster->shard_nodes()) {
    tier_sent += net.traffic(n).bytes_sent;
    tier_received += net.traffic(n).bytes_received;
  }
  if (tier_sent < tier_project || tier_received < tier_ingress) {
    failed_checks.push_back("data-server nodes moved fewer bytes on the "
                            "network than the tier counted");
  }
  if (net.total_bytes_transferred() <
      tier_project + tier_ingress + counter("interclient", "bytes_served")) {
    failed_checks.push_back("network moved fewer bytes than the store and "
                            "interclient transfers add up to");
  }

  double map_begin = 1e300, map_end = 0, reduce_begin = 1e300, reduce_end = 0;
  for (const auto& t : out.metrics.map_tasks) {
    map_begin = std::min(map_begin, t.sent_seconds);
    map_end = std::max(map_end, t.received_seconds);
  }
  for (const auto& t : out.metrics.reduce_tasks) {
    reduce_begin = std::min(reduce_begin, t.sent_seconds);
    reduce_end = std::max(reduce_end, t.received_seconds);
  }

  common::JsonWriter j;
  j.field("completed", out.metrics.completed && !out.hit_time_limit);
  j.field_json("failed_checks", quoted(failed_checks));
  j.field_json("setup_s", full(setup_s));
  j.field_json("run_s", full(run_s));
  j.field_json("sim_makespan_s", full(out.metrics.total_seconds));
  j.field_json("sim_end_s", full(sim.now().as_seconds()));
  j.field("events_executed", events);
  j.field("server_egress_bytes", out.server_bytes_sent);
  j.field("server_ingress_bytes", out.server_bytes_received);
  j.field("scheduler_rpcs", out.scheduler_rpcs);
  j.field("backoffs", out.backoffs);
  j.field("http_requests", counter("http", "requests"));
  j.field("client_rpc_failures", counter("client", "rpc_failures"));
  j.field("ic_fetch_attempts", counter("interclient", "fetch_attempts"));
  j.field("ic_fetch_ok", counter("interclient", "fetch_ok"));
  j.field("ic_bytes", ic_fetched);
  j.field("results_dispatched", counter("scheduler", "results_dispatched"));
  j.field("deferrals", counter("scheduler", "locality_skips") +
                           counter("scheduler", "trust_skips") +
                           counter("scheduler", "store_gate_skips"));
  j.field("daemon_passes", counter("daemon", "passes"));
  j.field("daemon_rows", counter("daemon", "rows_touched"));
  j.field("store_project_egress", tier_project);
  j.field("store_volunteer_egress",
          labelled("store", "tier_egress_bytes", "tier", "volunteer"));
  j.field("fault_injections", counter("fault", "injections"));
  j.field("results_valid", counter("validator", "results_valid"));
  j.field("results_invalid", counter("validator", "results_invalid"));
  j.field("results", static_cast<std::int64_t>(db.result_count()));
  j.field("workunits", static_cast<std::int64_t>(db.workunit_count()));
  j.field_json("map_phase_s", full({map_begin, map_end}));
  j.field_json("reduce_phase_s", full({reduce_begin, reduce_end}));
  if (traced) {
    j.field("active_flows_peak", static_cast<std::int64_t>(flows_peak));
    j.field_json("probe_sim_s", full(probe_sim_s));
    j.field_json("probe_wall_s", full(probe_wall_s));
    j.field_json("profile_period_s", full(1.0 / kProfileHz));
    sampler->write(argv[3]);
  }

  // --- teardown --------------------------------------------------------------
  probe.reset();
  g_running = nullptr;
  t0 = Clock::now();
  cluster.reset();
  j.field_json("teardown_s", full(seconds_since(t0)));
  j.field_json("peak_rss_mb", full(peak_rss_mb()));
  j.emit();
  return 0;
}
