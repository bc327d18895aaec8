// E4/E5 — The §IV.C mitigations, implemented and measured.
//
// E4 "priority reporting": map results are reported as soon as their upload
// completes ("even if it meant increasing server congestion"), bypassing
// the backoff window.
// E5 "intermediate data downloads": reduce work units are created as soon
// as the first map validates; reducers are assigned early and stream mapper
// locations from subsequent scheduler RPCs, downloading map outputs as they
// become available instead of after the whole map phase.
//
// `--jobs N` runs the (variant, geometry, seed) grid on a bench::SeedPool
// and reduces in seed order; stdout and the BENCH doc are byte-identical
// at every N (only the headline's wall fields vary).

#include <chrono>

#include "bench_util.h"
#include "seed_pool.h"

namespace vcmr {
namespace {

double wall_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Variant {
  const char* name;
  bool immediate_report;
  bool pipelined;
  bool boinc_mr;
};

/// One (geometry, variant) sweep point, in historical emission order.
struct Point {
  int nodes, maps, reds;
  Variant v;
};

core::Scenario make_scenario(const Point& p) {
  core::Scenario s;
  s.n_nodes = p.nodes;
  s.n_maps = p.maps;
  s.n_reducers = p.reds;
  s.input_size = 1000LL * 1000 * 1000;
  s.boinc_mr = p.v.boinc_mr;
  s.project.report_map_results_immediately = p.v.immediate_report;
  s.project.pipelined_reduce = p.v.pipelined;
  return s;
}

/// One (point, seed) simulation; seeds are numbered from 1.
struct SeedRun {
  core::RunOutcome out;
  double wall_s = 0;
};

SeedRun run_point_seed(const Point& p, int i) {
  const auto t0 = std::chrono::steady_clock::now();
  core::Scenario s = make_scenario(p);
  s.seed = 1 + static_cast<std::uint64_t>(i);
  core::Cluster cluster(s);
  SeedRun r;
  r.out = cluster.run_job();
  r.wall_s = wall_since(t0);
  return r;
}

/// Renders one variant row from the seed-ordered outcomes; captures the
/// headline gaps for the 20-node geometry.
void render_row(const Point& p, const std::vector<core::RunOutcome>& outcomes,
                std::vector<std::string>& rows, double* baseline_gap,
                double* mitigated_gap) {
  const Variant& v = p.v;
  const bench::AveragedRow avg = bench::average(outcomes);
  std::int64_t total_rpcs = 0;
  for (const core::RunOutcome& o : outcomes) total_rpcs += o.scheduler_rpcs;
  const double rpcs = static_cast<double>(total_rpcs) /
                      static_cast<double>(outcomes.size());
  if (p.nodes == 20) {
    if (!v.immediate_report && !v.pipelined && v.boinc_mr)
      *baseline_gap = avg.gap;
    if (v.immediate_report && v.pipelined && v.boinc_mr)
      *mitigated_gap = avg.gap;
  }
  std::printf("%-26s | %-12s %-12s %-12s | %6.0f | %8.0f\n", v.name,
              bench::cell(avg.map_avg, avg.map_trimmed).c_str(),
              bench::cell(avg.reduce_avg, avg.reduce_trimmed).c_str(),
              bench::cell(avg.total, avg.total_trimmed).c_str(), avg.gap,
              rpcs);
  common::JsonWriter row;
  row.field("experiment", "E4E5")
      .field("variant", v.name)
      .field("nodes", p.nodes)
      .field("maps", p.maps)
      .field("reducers", p.reds)
      .field("immediate_report", v.immediate_report)
      .field("pipelined_reduce", v.pipelined)
      .field("boinc_mr", v.boinc_mr)
      .field("seeds", avg.runs)
      .field("completed", avg.completed)
      .field("map_s", avg.map_avg)
      .field("map_trimmed_s", avg.map_trimmed)
      .field("reduce_s", avg.reduce_avg)
      .field("total_s", avg.total)
      .field("gap_s", avg.gap)
      .field("rpcs_per_job", rpcs);
  std::printf("%s\n", row.str().c_str());
  rows.push_back(row.str());
}

void print_geometry_heading(const Point& p, int n_seeds) {
  std::printf(
      "\nE4/E5 — MITIGATIONS at (%d nodes, %d maps, %d reducers), 1 GB, %d "
      "seeds\n\n",
      p.nodes, p.maps, p.reds, n_seeds);
  std::printf("%-26s | %-12s %-12s %-12s | %6s | %8s\n", "variant",
              "Map (s)", "Reduce (s)", "Total (s)", "gap", "RPCs");
  std::printf("%s\n", std::string(96, '=').c_str());
}

void run(int n_seeds, const char* out_path, int jobs) {
  const auto t0 = std::chrono::steady_clock::now();
  double points_wall_s = 0;
  std::vector<std::string> rows;
  // Headline inputs: map->reduce gap with and without the mitigations at
  // the larger configuration.
  double baseline_gap = 0, mitigated_gap = 0;
  const std::vector<Variant> variants = {
      {"baseline BOINC", false, false, false},
      {"E4 immediate-report", true, false, false},
      {"baseline BOINC-MR", false, false, true},
      {"E4 on BOINC-MR", true, false, true},
      {"E5 pipelined reduce (MR)", false, true, true},
      {"E4+E5 (MR)", true, true, true},
  };
  std::vector<Point> points;
  for (const auto& [nodes, maps, reds] :
       std::vector<std::tuple<int, int, int>>{{15, 15, 3}, {20, 20, 5}}) {
    for (const Variant& v : variants) points.push_back({nodes, maps, reds, v});
  }
  const int n_variants = static_cast<int>(variants.size());
  const int n_points = static_cast<int>(points.size());

  bench::SeedPool pool(jobs);
  const auto results = pool.map(n_points * n_seeds, [&](int task) {
    return run_point_seed(points[static_cast<std::size_t>(task / n_seeds)],
                          task % n_seeds);
  });
  for (int p = 0; p < n_points; ++p) {
    const Point& point = points[static_cast<std::size_t>(p)];
    if (p % n_variants == 0) print_geometry_heading(point, n_seeds);
    std::vector<core::RunOutcome> outcomes;
    outcomes.reserve(static_cast<std::size_t>(n_seeds));
    for (int i = 0; i < n_seeds; ++i) {
      const SeedRun& r = results[static_cast<std::size_t>(p * n_seeds + i)];
      points_wall_s += r.wall_s;
      outcomes.push_back(r.out);
    }
    render_row(point, outcomes, rows, &baseline_gap, &mitigated_gap);
  }
  std::printf(
      "\nExpected shape: E4 collapses the map phase's report tail (map raw ~=\n"
      "map trimmed) at the cost of more RPCs; E5 shrinks the map->reduce gap\n"
      "and lets reduce downloads overlap the map phase.\n");

  const double wall_s = wall_since(t0);
  common::JsonWriter headline;
  headline.field("seeds", n_seeds)
      .field("points", static_cast<int>(rows.size()))
      .field("baseline_mr_gap_s", baseline_gap)
      .field("e4e5_mr_gap_s", mitigated_gap)
      .field("gap_reduction_s", baseline_gap - mitigated_gap)
      .field("jobs", jobs)
      .field("wall_s", wall_s)
      .field("points_wall_s", points_wall_s)
      .field("parallel_speedup_x", wall_s > 0 ? points_wall_s / wall_s : 0.0);
  bench::write_bench_doc(out_path, "E4E5", rows, headline.str());
}

}  // namespace
}  // namespace vcmr

int main(int argc, char** argv) {
  vcmr::bench::silence_logs();
  const int jobs = vcmr::bench::parse_jobs_flag(argc, argv);
  const int n_seeds = argc > 1 ? std::atoi(argv[1]) : 5;
  const char* out = argc > 2 ? argv[2] : "BENCH_MITIGATIONS.json";
  try {
    vcmr::run(n_seeds, out, jobs);
  } catch (const vcmr::bench::SeedPoolError& e) {
    std::fprintf(stderr, "error: sweep failed: %s\n", e.what());
    return 1;
  }
  return 0;
}
