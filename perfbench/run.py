#!/usr/bin/env python3
"""Repository benchmark: full core::Cluster word-count jobs on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the vcmr_perf harness linked
against ../src) into .bench_build/perfbench, derives the workload's job set
from --seed, runs the jobs one process at a time for about S seconds and
prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics, from untraced runs (counts) and traced runs (self times). See
perfbench/README.md for the metric definitions and the workloads.
"""

import argparse
import bisect
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(BUILD_DIR, "work")
HARNESS = os.path.join(BUILD_DIR, "vcmr_perf")
REFERENCE = os.path.join(BUILD_DIR, "vcmr_ref")
EXPECTED = os.path.join(BENCH_DIR, "expected.json")

JOB_WALL_BUDGET_S = 20  # a job running longer is killed (did not finish)
JOB_RSS_BUDGET_MB = 1024  # a job above this resident size is killed too
RUN_DEADLINE_S = 150    # no job runs past this point of a run
REFERENCE_S = 0.03      # vcmr_ref's time at the reference machine speed
TRACED_SHARE = 2        # a traced pass runs the first 1/TRACED_SHARE of the set

# --- workloads ----------------------------------------------------------------


def server_wave(seed, hosts):
    return f"""<scenario>
  <seed>{seed}</seed>
  <nodes>{hosts}</nodes>
  <maps>{hosts}</maps>
  <reducers>{max(1, hosts // 10)}</reducers>
  <input_mb>{10 * hosts}</input_mb>
  <app>word_count</app>
  <boinc_mr>1</boinc_mr>
  <time_limit_s>86400</time_limit_s>
</scenario>
"""


def shuffle_fanout(seed, hosts, maps, reducers):
    return f"""<scenario>
  <seed>{seed}</seed>
  <nodes>{hosts}</nodes>
  <maps>{maps}</maps>
  <reducers>{reducers}</reducers>
  <input_mb>{maps // 10}</input_mb>
  <app>word_count</app>
  <boinc_mr>1</boinc_mr>
  <time_limit_s>86400</time_limit_s>
</scenario>
"""


def hostile_churn(seed, hosts):
    return f"""<scenario>
  <seed>{seed}</seed>
  <nodes>{hosts}</nodes>
  <maps>{hosts}</maps>
  <reducers>{max(1, hosts // 8)}</reducers>
  <input_mb>{10 * hosts}</input_mb>
  <app>word_count</app>
  <boinc_mr>1</boinc_mr>
  <time_limit_s>172800</time_limit_s>
  <hosts><preset>internet</preset></hosts>
  <project>
    <delay_bound_s>2700</delay_bound_s>
    <resend_lost_results>1</resend_lost_results>
    <report_fetch_failures>1</report_fetch_failures>
  </project>
  <churn><mean_on_s>2880</mean_on_s><mean_off_s>360</mean_off_s></churn>
  <byzantine>
    <faulty_fraction>0.05</faulty_fraction>
    <error_probability>0.7</error_probability>
  </byzantine>
  <replication policy="adaptive">
    <min_consecutive_valid>1</min_consecutive_valid>
    <max_error_rate>0.05</max_error_rate>
    <spot_check_probability>0.1</spot_check_probability>
    <error_rate_prior>0</error_rate_prior>
    <error_rate_decay>0.8</error_rate_decay>
    <trust_max_skips>2</trust_max_skips>
  </replication>
  <data_servers><shards>4</shards></data_servers>
  <volunteer_store>
    <enabled>1</enabled>
    <filter_bits>2048</filter_bits>
    <filter_hashes>4</filter_hashes>
    <max_store_peers>6</max_store_peers>
    <advert_ttl_s>600</advert_ttl_s>
    <dispatch_gate_width>2</dispatch_gate_width>
    <dispatch_max_skips>16</dispatch_max_skips>
  </volunteer_store>
  <faults>
    <upload_corruption_rate>0.02</upload_corruption_rate>
    <rpc_loss_rate>0.02</rpc_loss_rate>
  </faults>
</scenario>
"""


# name -> scenario builder, full-size and smoke arguments, jobs per pass
# (full, smoke), and the held-out seed whose job set's fingerprints
# expected.json holds. README.md says why each workload exists and how it
# was sized.
WORKLOADS = {
    "server_wave": dict(make=server_wave, full=(48,), smoke=(8,),
                        jobs=(48, 2), held_out=7001),
    "shuffle_fanout": dict(make=shuffle_fanout, full=(12, 400, 6),
                           smoke=(4, 40, 2), jobs=(24, 2), held_out=7002),
    "hostile_churn": dict(make=hostile_churn, full=(32,), smoke=(8,),
                          jobs=(48, 2), held_out=7003),
}

# --- build --------------------------------------------------------------------


def build():
    """Configures and builds the harness; exits 1 when that fails."""
    def step(cmd):
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")

    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        step(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, *gen,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    step(["cmake", "--build", BUILD_DIR, "-j", "4"])


# --- one job ------------------------------------------------------------------


def job_seeds(workload, seed, n):
    """The scenario seeds of a run: the job set is a function of --seed."""
    out = []
    for k in range(n):
        h = hashlib.sha256(f"{workload}/{seed}/{k}".encode()).digest()
        out.append(int.from_bytes(h[:4], "little") or 1)
    return out


def rss_mb(pid):
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20
    except (OSError, IndexError, ValueError):
        return 0.0


def run_job(xml_path, tag, traced, wall_budget_s, rss_budget_mb):
    """Runs one job in its own process. Returns the harness's JSON dict, or a
    dict with "dnf" set when the job broke its wall or RSS budget or died."""
    out_path = os.path.join(WORK_DIR, tag + ".out")
    err_path = os.path.join(WORK_DIR, tag + ".err")
    cmd = [HARNESS, xml_path]
    if traced:
        cmd += ["--trace", os.path.join(WORK_DIR, tag + ".stacks")]
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        t0 = time.monotonic()
        why = None
        while proc.poll() is None:
            if time.monotonic() - t0 > wall_budget_s:
                why = f"wall budget {wall_budget_s} s"
            elif rss_mb(proc.pid) > rss_budget_mb:
                why = f"RSS budget {rss_budget_mb} MB"
            if why:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(timeout=5)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
                break
            time.sleep(0.01)
    with open(err_path) as f:
        err_text = f.read()
    if why is None and proc.returncode == 0:
        with open(out_path) as f:
            return json.loads(f.read().strip().splitlines()[-1])
    m = re.search(r"dnf sim_s=(\d+)", err_text)
    reached = m.group(1) if m else "?"
    why = why or f"exit status {proc.returncode}"
    return {"dnf": f"did not finish ({why}) at simulated second {reached}"}


# --- call-stack attribution ---------------------------------------------------

MODULES = {"sim", "net", "client", "server", "db", "proto", "common", "obs",
           "store", "fault", "rep", "mr", "volunteer", "wf", "core"}
LAYERS = sorted(MODULES) + ["other"]
VCMR_NS = re.compile(r"vcmr::(\w+)::")


def module_of(name):
    """Module of one demangled frame name, or None for a non-vcmr frame.
    A function inside namespace vcmr belongs to its own namespace (plain
    vcmr:: is src/common). A library template frame belongs to the first
    module type it is instantiated with, except std::function thunks, which
    run the callable named last; plain vcmr:: value types such as NodeId do
    not claim a library frame."""
    if name.startswith("vcmr::"):
        m = VCMR_NS.match(name)
        ns = m.group(1) if m else ""
        return ns if ns in MODULES else "common"
    found = [ns for ns in VCMR_NS.findall(name) if ns in MODULES]
    if not found:
        return None
    return found[-1] if name.startswith("std::_Function_handler<") else found[0]


# `nm -n -S` line of a code symbol: address, size, type, demangled name.
TEXT_SYMBOL = re.compile(r"^([0-9a-f]+) ([0-9a-f]+) [tTwWiI] (.*)$", re.M)


class Symbolizer:
    def __init__(self, exe):
        res = subprocess.run(["nm", "-C", "--defined-only", "-n", "-S", exe],
                             capture_output=True, text=True, check=True)
        self.starts, self.ends, self.modules = [], [], []
        for m in TEXT_SYMBOL.finditer(res.stdout):
            start = int(m.group(1), 16)
            self.starts.append(start)
            self.ends.append(start + int(m.group(2), 16))
            self.modules.append(module_of(m.group(3)))
        self.cache = {}

    def module_at(self, pc):
        if pc not in self.cache:
            i = bisect.bisect_right(self.starts, pc) - 1
            self.cache[pc] = (self.modules[i]
                              if i >= 0 and pc < self.ends[i] else None)
        return self.cache[pc]

    def attribute(self, stacks_path):
        """Samples per layer. Frame 0 is the signal handler and frame 1 the
        signal trampoline; frame 2 is the interrupted instruction,
        and deeper frames are return addresses (looked up one byte back)."""
        counts = dict.fromkeys(LAYERS, 0)
        with open(stacks_path) as f:
            for line in f:
                pcs = [int(x, 16) for x in line.split()[2:]]
                layer = "other"
                for depth, pc in enumerate(pcs):
                    mod = self.module_at(pc if depth == 0 else pc - 1)
                    if mod:
                        layer = mod
                        break
                counts[layer] += 1
        return counts


# --- a run --------------------------------------------------------------------


FINGERPRINT = ("sim_makespan_s", "sim_end_s", "events_executed",
               "scheduler_rpcs", "server_egress_bytes", "server_ingress_bytes")


def expected_fingerprints(workload, seed):
    """The committed fingerprints of the job set of (workload, seed), one
    list per job, or None when expected.json has none for it."""
    with open(EXPECTED) as f:
        return json.load(f).get(f"{workload}/{seed}")


class Pass:
    """One execution of the jobs of a pass. `scale` converts the pass's
    wall times to reference-speed seconds: REFERENCE_S / (mean time of the
    reference loop, timed before each job of the pass)."""

    def __init__(self, rows, reference_s):
        self.rows = rows
        self.scale = REFERENCE_S / statistics.mean(reference_s)

    def per_job(self, key, timed=True):
        """Mean of `key` over the jobs, in reference seconds if `timed`."""
        value = sum(r[key] for r in self.rows) / len(self.rows)
        return value * self.scale if timed else value

    def total(self, key):
        return sum(r[key] for r in self.rows)


class Run:
    """A run of one workload. `expected` holds a fingerprint per job that
    every run of the job must match; without it, each job's first run sets
    the fingerprint its later runs must match."""

    def __init__(self, args, expected=None):
        spec = WORKLOADS[args.workload]
        size = spec["smoke"] if args.smoke else spec["full"]
        n_jobs = spec["jobs"][1 if args.smoke else 0]
        self.symbols = Symbolizer(HARNESS) if args.trace else None
        self.start = time.monotonic()
        self.jobs = []
        for k, s in enumerate(job_seeds(args.workload, args.seed, n_jobs)):
            path = os.path.join(WORK_DIR,
                                f"{args.workload}-{args.seed}-{k}.xml")
            with open(path, "w") as f:
                f.write(spec["make"](s, *size))
            self.jobs.append(path)
        self.n_traced = max(1, len(self.jobs) // TRACED_SHARE)
        self.attempted = 0
        self.failures = []
        self.golden = expected is not None
        self.fingerprints = dict(enumerate(map(tuple, expected or [])))
        self.passes = {False: [], True: []}   # traced -> list of Pass

    def run_pass(self, traced):
        """Runs every job of the set once, or its first n_traced jobs when
        traced. Returns the pass's duration."""
        t0 = time.monotonic()
        rows, reference_s = [], []
        jobs = self.jobs[:self.n_traced] if traced else self.jobs
        for k, path in enumerate(jobs):
            left = RUN_DEADLINE_S - (time.monotonic() - self.start)
            if left <= 0:
                break
            reference_s.append(float(subprocess.run(
                [REFERENCE], capture_output=True, text=True,
                check=True).stdout.split()[0]))
            self.attempted += 1
            tag = f"job{k}-{'t' if traced else 'u'}"
            row = run_job(path, tag, traced, min(JOB_WALL_BUDGET_S, left),
                          JOB_RSS_BUDGET_MB)
            problem = row.get("dnf")
            if not problem and (not row["completed"] or row["failed_checks"]):
                problem = "; ".join(row["failed_checks"]) or "not completed"
            if not problem:
                fp = tuple(row[key] for key in FINGERPRINT)
                want = self.fingerprints.setdefault(k, fp)
                if want != fp:
                    problem = (f"fingerprint {fp} differs from {want}, "
                               + ("the one in expected.json" if self.golden
                                  else "that of its first run"))
            if problem:
                self.failures.append(f"job {k}: {problem}")
                print(f"run.py: job {k} ({path}) failed: {problem}",
                      file=sys.stderr)
                continue
            if traced:
                row["layer_samples"] = self.symbols.attribute(
                    os.path.join(WORK_DIR, tag + ".stacks"))
            rows.append(row)
        took = time.monotonic() - t0
        if len(rows) == len(jobs):
            p = Pass(rows, reference_s)
            self.passes[traced].append(p)
            print(f"run.py: {'traced' if traced else 'untraced'} pass of "
                  f"{len(rows)} jobs in {took:.2f} s: mean run_s "
                  f"{p.per_job('run_s', timed=False):.4f} raw, "
                  f"{p.per_job('run_s'):.4f} at reference speed "
                  f"(scale {p.scale:.3f})", file=sys.stderr)
        return took

    def measure(self, seconds, traced_too):
        """Rounds of passes (an untraced one, then a traced one with tracing)
        until the next round would overrun `seconds`; at least one round."""
        kinds = [False, True] if traced_too else [False]
        took = {}
        while True:
            for traced in kinds:
                took[traced] = self.run_pass(traced)
            elapsed = time.monotonic() - self.start
            if elapsed + sum(took.values()) > min(seconds, RUN_DEADLINE_S):
                break


def median_over(passes, per_pass):
    return statistics.median(per_pass(p) for p in passes)


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(run):
    ps = run.passes[False]

    def setup(p):
        return p.scale * statistics.mean(
            statistics.median(r["setup_s"]) for r in p.rows)

    return {
        "run_s": (median_over(ps, lambda p: p.per_job("run_s")), "s"),
        "setup_s": (median_over(ps, setup), "s"),
        "teardown_s": (median_over(ps, lambda p: p.per_job("teardown_s")),
                       "s"),
        "peak_rss_mb": (median_over(
            ps, lambda p: p.per_job("peak_rss_mb", timed=False)), "MB"),
        "sim_makespan_s": (statistics.median(
            r["sim_makespan_s"] for r in ps[0].rows), "sim_s"),
    }


def wall_in(row, begin, end):
    """Wall seconds the traced job spent while the simulated clock was in
    [begin, end], interpolated from the sim-clock probe."""
    sims, walls = row["probe_sim_s"], row["probe_wall_s"]

    def wall_at(t):
        if not sims:
            return 0.0
        i = bisect.bisect_left(sims, t)
        if i == 0:
            return walls[0] * t / sims[0] if sims[0] else walls[0]
        if i >= len(sims):
            return row["run_s"]
        s0, s1, w0, w1 = sims[i - 1], sims[i], walls[i - 1], walls[i]
        return w0 + (w1 - w0) * (t - s0) / (s1 - s0)

    return max(0.0, wall_at(end) - wall_at(begin))


def per_layer(run):
    untraced, traced = run.passes[False], run.passes[True]
    counts = untraced[0]   # counts repeat exactly, so any pass will do

    def per_job(key):
        return counts.per_job(key, timed=False)

    def total(key):
        return counts.total(key)

    def phase_wall(phase):
        return lambda p: p.scale * statistics.mean(
            wall_in(r, *r[phase]) for r in p.rows)

    # A traced pass runs only the first n_traced jobs; compare it with the
    # same jobs of the untraced passes.
    run_u = median_over(untraced, lambda p: p.scale * statistics.mean(
        r["run_s"] for r in p.rows[:run.n_traced]))
    run_t = median_over(traced, lambda p: p.per_job("run_s"))
    m = {
        "sim.events_executed": (per_job("events_executed"), "count"),
        "sim.events_per_wall_s": (median_over(
            untraced, lambda p: p.total("events_executed") /
            (p.total("run_s") * p.scale)), "1/s"),
        "sim.wall_per_sim_s": (median_over(
            untraced, lambda p: p.total("run_s") * p.scale /
            p.total("sim_end_s")), "s/s"),
        "net.active_flows_peak": (traced[0].per_job("active_flows_peak",
                                                    timed=False), "count"),
        "net.server_egress_bytes": (per_job("server_egress_bytes"), "B"),
        "net.server_ingress_bytes": (per_job("server_ingress_bytes"), "B"),
        "net.http_requests": (per_job("http_requests"), "count"),
        "client.backoffs": (per_job("backoffs"), "count"),
        "client.rpc_failures": (per_job("client_rpc_failures"), "count"),
        "interclient.fetch_ok_ratio": (ratio(total("ic_fetch_ok"),
                                             total("ic_fetch_attempts")),
                                       "ratio"),
        "interclient.bytes": (per_job("ic_bytes"), "B"),
        "scheduler.rpcs": (per_job("scheduler_rpcs"), "count"),
        "scheduler.dispatch_ratio": (ratio(total("results_dispatched"),
                                           total("scheduler_rpcs")), "ratio"),
        "scheduler.deferrals": (per_job("deferrals"), "count"),
        "daemon.rows_per_pass": (ratio(total("daemon_rows"),
                                       total("daemon_passes")), "count"),
        "store.volunteer_egress_share": (ratio(
            total("store_volunteer_egress"),
            total("store_volunteer_egress") + total("store_project_egress")),
            "ratio"),
        "fault.injections": (per_job("fault_injections"), "count"),
        "validator.valid_ratio": (ratio(
            total("results_valid"),
            total("results_valid") + total("results_invalid")), "ratio"),
        "job.results_per_wu": (ratio(total("results"), total("workunits")),
                               "ratio"),
        "phase.map_wall_s": (median_over(traced, phase_wall("map_phase_s")),
                             "s"),
        "phase.reduce_wall_s": (median_over(
            traced, phase_wall("reduce_phase_s")), "s"),
        "trace.overhead_ratio": (run_t / run_u, "ratio"),
    }
    # A module's self time is its samples x the sampling period; "other" is
    # the rest of the traced run_s, so time that no module's samples cover
    # shows up instead of vanishing. Means per job.
    def module_s(r, mod):
        return r["layer_samples"][mod] * r["profile_period_s"]

    def self_time(p, layer):
        per_job = [module_s(r, layer) if layer in MODULES else
                   r["run_s"] - sum(module_s(r, mod) for mod in MODULES)
                   for r in p.rows]
        return p.scale * statistics.mean(per_job)

    self_s = {layer: median_over(traced, lambda p, layer=layer:
                                 self_time(p, layer)) for layer in LAYERS}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_s[layer], "s")
    attributed = sum(self_s[mod] for mod in MODULES) / run_t
    if abs(attributed - 1) > 0.1:
        print(f"run.py: module self times add up to {attributed:.1%} of the "
              "traced run_s; samples were lost or time went unattributed",
              file=sys.stderr)
    m["trace.attributed_ratio"] = (attributed, "ratio")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny host counts and two jobs per pass, for the "
                         "benchmark's own tests")
    args = ap.parse_args()

    build()
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    run = Run(args, None if args.smoke else
              expected_fingerprints(args.workload, args.seed))
    run.measure(args.seconds, traced_too=bool(args.trace))

    complete = run.passes[False] and (run.passes[True] or not args.trace)
    metrics = {}
    if complete:
        metrics = per_layer(run) if args.trace else end_to_end(run)
    result = {
        "correct": bool(complete) and not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
