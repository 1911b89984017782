#!/usr/bin/env python3
"""XRBench performance ledger: host-time metrics for four workloads.

Run from the repository root:

    python3 ledger/run.py --workload session-1024 --seed 3233923584 \
        --seconds 25 --trace 0

The script builds the `xrbench` binary and the `xrledger` measuring
binary (ledger/Cargo.toml) from source, generates the workload run
documents from the seed, runs the chosen workload for `--seconds` host
seconds, checks every report, and prints one JSON object as the last
line of standard output:

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

`--trace 0` reports the end-to-end metrics of BENCHMARK.json;
`--trace 1` runs the traced ledger and reports its per-layer metrics.
`--workload all` measures the four workloads in turn, printing one
result line after each.
Every time is host time. See ledger/README.md for the workloads, the
metrics and what each layer metric should move.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# 0xC0FFEE00, the harness's default seed: reproduces the probe numbers
# quoted in ledger/README.md. Seed 7 is the held-out seed.
DEFAULT_SEED = 3233923584
# Run documents carry the seed as a JSON number, exact below 2^53.
SEED_SPACE = 2**53

WORKLOADS = ("session-1024", "fleet-65k", "design-sweep", "fleet-sharded")

# The builtin Table 2 catalog, in its own order.
SCENARIOS = [
    "Social Interaction A",
    "Social Interaction B",
    "Outdoor Activity A",
    "Outdoor Activity B",
    "AR Assistant",
    "AR Gaming",
    "VR Gaming",
]

# Simulated seconds of the 1024-user session: long enough that one run
# costs about a host second.
SESSION_DURATION_S = 8.0
FLEET_USERS, USERS_PER_DEVICE = 65_536, 32
SHARDS, MAX_PROCS = 4, 2
# Set-up runs of the sharded workload before its first timed run (one
# more follows each timed run), and the simulated duration of
# its set-up document (the same fleet with almost nothing to simulate).
SHARDED_SETUP_RUNS = 2
SETUP_DURATION_S = 1e-6
CLI_STARTUP_RUNS = 20
MIN_RUNS = 3


class LedgerError(Exception):
    """A failure that ends the run without a result line."""


def log(message):
    print(f"ledger: {message}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------- documents


def documents(seed):
    """The run documents of every workload for one seed."""
    uniform = {"uniform": {"engines": 16, "latency_s": 0.001, "energy_j": 0.001}}
    session = {
        "kind": "session",
        "hardware": uniform,
        "seed": seed,
        "duration_s": SESSION_DURATION_S,
        "scheduler": "latency-greedy",
        "session": {
            "name": "scale-1024",
            "mixed": {"scenarios": SCENARIOS, "users": 1024, "stagger_s": 0.002},
        },
    }
    devices = FLEET_USERS // USERS_PER_DEVICE
    groups = []
    for i, name in enumerate(SCENARIOS):
        groups.append(
            {
                "name": name,
                "replicas": devices // len(SCENARIOS) + (i < devices % len(SCENARIOS)),
                "session": {
                    "name": f"{name}-device",
                    "uniform": {
                        "scenario": name,
                        "users": USERS_PER_DEVICE,
                        "stagger_s": 0.002,
                    },
                },
            }
        )
    fleet = {
        "kind": "fleet",
        "hardware": uniform,
        "seed": seed,
        "duration_s": 1.0,
        "workers": 2,
        "fleet": {"name": f"fleet-{FLEET_USERS}", "groups": groups},
    }
    # One process per shard at most MAX_PROCS at a time: the same two
    # busy threads as fleet-65k's two workers.
    sharded = dict(fleet, workers=1)
    faults = {
        "failure_rate_per_s": 0.5,
        "mean_downtime_s": 0.05,
        "preemption_rate_per_s": 1.0,
        "mean_preemption_s": 0.02,
        "throttle": {"period_s": 1.0, "duty": 0.3, "factor": 0.5},
    }
    faulted = {
        "name": "faulted-fleet",
        "groups": [
            {
                "name": "vr",
                "replicas": 2,
                "faults": faults,
                "session": {
                    "name": "party",
                    "uniform": {"scenario": "VR Gaming", "users": 2, "stagger_s": 0.002},
                },
            },
            {
                "name": "assistant",
                "replicas": 2,
                "faults": faults,
                "session": {
                    "name": "walk",
                    "uniform": {"scenario": "AR Assistant", "users": 2, "stagger_s": 0.01},
                },
            },
        ],
    }
    sweep = {
        "kind": "sweep",
        "name": "figure5-design-space",
        "seed": seed,
        "accelerators": list("ABCDEFGHIJKLM"),
        "base_pes": 8192,
        "pe_scaling": [1.0, 0.5],
        "schedulers": [
            "latency-greedy",
            "round-robin",
            "slack-edf",
            "least-loaded",
            "failover-aware",
        ],
        "recovery": ["drop", "requeue", "migrate"],
        "workloads": [{"name": s, "scenario": s} for s in SCENARIOS]
        + [{"name": "faulted-fleet", "fleet": faulted}],
    }
    return {
        "session-1024": session,
        "fleet-65k": fleet,
        "design-sweep": sweep,
        "fleet-sharded": sharded,
        "fleet-sharded-setup": dict(sharded, duration_s=SETUP_DURATION_S),
    }


# ------------------------------------------------------------------- helpers


def median(values):
    return statistics.median(values)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Spans:
    """In-memory spans (name, start, end, parent) of this script's own calls."""

    def __init__(self):
        self.epoch = time.perf_counter()
        self.spans = []
        self.open = []

    def begin(self, name):
        self.spans.append(
            {
                "name": name,
                "start_s": time.perf_counter() - self.epoch,
                "end_s": None,
                "parent": self.open[-1] if self.open else None,
            }
        )
        self.open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, span_id):
        assert self.open.pop() == span_id, "spans close innermost-first"
        span = self.spans[span_id]
        span["end_s"] = time.perf_counter() - self.epoch
        return span["end_s"] - span["start_s"]

    def adopt(self, child_spans, parent_id):
        """Re-bases spans recorded by a child process under `parent_id`."""
        offset = len(self.spans)
        start = self.spans[parent_id]["start_s"]
        for s in child_spans:
            self.spans.append(
                {
                    "name": s["name"],
                    "start_s": start + s["start_s"],
                    "end_s": start + s["end_s"],
                    "parent": parent_id if s["parent"] is None else offset + s["parent"],
                }
            )


class Bench:
    """Paths, the build, and process helpers for one invocation."""

    def __init__(self, seed):
        target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        self.target = target if target.is_absolute() else ROOT / target
        self.env = dict(os.environ, CARGO_TARGET_DIR=str(self.target))
        self.work = ROOT / ".ledger-out"
        self.docs = self.work / f"seed-{seed}"
        self.xrbench = self.target / "release" / "xrbench"
        self.xrledger = self.target / "release" / "xrledger"

    def build(self):
        for manifest, extra in (
            (ROOT / "Cargo.toml", ["-p", "xrbench-cli", "--bin", "xrbench"]),
            (HERE / "Cargo.toml", []),
        ):
            cmd = ["cargo", "build", "--release", "--offline", "--quiet"]
            cmd += ["--manifest-path", str(manifest)] + extra
            done = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=sys.stderr)
            if done.returncode != 0:
                raise LedgerError(f"build failed: {' '.join(cmd)}")

    def write_documents(self, seed):
        self.docs.mkdir(parents=True, exist_ok=True)
        for name, doc in documents(seed).items():
            (self.docs / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")

    def doc(self, name):
        return self.docs / f"{name}.json"

    def ledger(self, *args):
        """Runs `xrledger` and returns the JSON object it prints."""
        done = subprocess.run(
            [str(self.xrledger), *map(str, args)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=sys.stderr,
            text=True,
        )
        if done.returncode != 0:
            raise LedgerError(f"xrledger {args[0]} exited with {done.returncode}")
        return json.loads(done.stdout.strip().splitlines()[-1])

    def spawn(self, args, out_path):
        """Runs `xrbench ARGS` with stdout to a file.

        Returns (exit code, host seconds spawn-to-exit, peak RSS in MiB
        of the process and every child it waited for).
        """
        err_path = out_path.with_suffix(".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            cmd = [str(self.xrbench), *map(str, args)]
            proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            stderr = err_path.read_text(errors="replace")[-2000:]
            log(f"{' '.join(cmd)} exited with {proc.returncode}: {stderr}")
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def sharded_args(self, name):
        return ["run-fleet", self.doc(name), "--shards", SHARDS, "--max-procs", MAX_PROCS]


# ------------------------------------------------------- counter bookkeeping


def compare_counters(bench, workload, seed, counters):
    """Flags simulated counters that differ from an earlier run of the
    same workload and seed in this checkout. Returns failure lines."""
    path = bench.work / "counters.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    key = f"{workload}/{seed}"
    if key not in seen:
        seen[key] = counters
        path.write_text(json.dumps(seen, indent=1, sort_keys=True) + "\n")
        return []
    return [
        f"counter {name}: {counters.get(name)} here, {seen[key].get(name)} in an earlier run "
        f"of seed {seed}"
        for name in sorted(set(seen[key]) | set(counters))
        if seen[key].get(name) != counters.get(name)
    ]


# ------------------------------------------------------------ end to end


def end_to_end(bench, workload, seconds):
    """Times complete runs. Returns the samples (a run that fails its
    check is marked not ok), the simulated counters, and the failed
    checks that spoil every run."""
    if workload == "fleet-sharded":
        return sharded_end_to_end(bench, seconds)
    r = bench.ledger("measure", "--doc", bench.doc(workload), "--seconds", seconds)
    runs = [
        {"wall_s": w, "ok": same, "rss_mib": r["peak_rss_mib"]}
        for w, same in zip(r["wall_s"], r["same_bytes"])
    ]
    if not all(r["same_bytes"]):
        log("repeated runs of one seed emitted different report bytes")
    return {"setup_s": r["setup_s"], "runs": runs}, r["counters"], list(r["failures"])


def sharded_end_to_end(bench, seconds):
    """`xrbench run-fleet --shards` spawn-to-exit, checked byte for byte
    against the in-process fleet-65k report of the same seed."""
    reference = bench.work / "fleet-65k.report.json"
    r = bench.ledger(
        "measure", "--doc", bench.doc("fleet-65k"), "--seconds", 0,
        "--min-runs", 0, "--report-out", reference,
    )
    failures = list(r["failures"])
    expected = reference.read_bytes()

    # Set-up runs go before the first timed run and after each one, so
    # set-up and runs see the same host conditions.
    setup = []

    def setup_run():
        args = bench.sharded_args("fleet-sharded-setup")
        code, wall, _ = bench.spawn(args, bench.work / "setup.out")
        if code != 0:
            failures.append(f"set-up run exited with {code}")
        setup.append(wall)

    for _ in range(SHARDED_SETUP_RUNS):
        setup_run()
    runs = []
    started = time.perf_counter()
    while len(runs) < MIN_RUNS or time.perf_counter() - started < seconds:
        out = bench.work / "sharded.out"
        code, wall, rss = bench.spawn(bench.sharded_args("fleet-sharded"), out)
        # The CLI terminates the report with a newline.
        same = out.read_bytes() == expected + b"\n"
        if code == 0 and not same:
            log("sharded report bytes differ from the in-process fleet-65k report")
        runs.append({"wall_s": wall, "ok": code == 0 and same, "rss_mib": rss})
        setup_run()
    return {"setup_s": setup, "runs": runs}, r["counters"], failures


def end_to_end_metrics(samples, counters):
    good = [run for run in samples["runs"] if run["ok"]] or samples["runs"]
    walls = [run["wall_s"] for run in good]
    evals = counters.get("distinct_evaluations", 1)
    return {
        "setup_s": ("s", samples["setup_s"]),
        "wall_s": ("s", walls),
        "sim_events_per_s": ("1/s", [counters["events"] / w for w in walls]),
        "sweep_evals_per_s": ("1/s", [evals / w for w in walls]),
        "peak_rss_mib": ("MiB", [run["rss_mib"] for run in good]),
    }


# ------------------------------------------------------------------ traced


def traced(bench, workload, seconds):
    """The per-layer ledger; returns (metrics, failures, spans)."""
    spans = Spans()
    failures = []
    metrics = {}

    def put(name, value, unit, base):
        metrics[name] = {"value": value, "unit": unit, "base": base}

    # Shard children spawned and timed alone, then one coordinator run.
    states, child = [], []
    for k in range(SHARDS):
        out = bench.work / f"state-{k}.json"
        sid = spans.begin("cli.shard_child")
        args = ["run-fleet", bench.doc("fleet-sharded"), "--shard", f"{k}/{SHARDS}"]
        code, wall, _ = bench.spawn(args, out)
        spans.end(sid)
        if code != 0:
            raise LedgerError(f"shard child {k} exited with {code}")
        states.append(out)
        child.append(wall)
    coordinator = bench.work / "coordinator.json"
    sid = spans.begin("cli.run_fleet_sharded")
    code, coordinator_wall, _ = bench.spawn(bench.sharded_args("fleet-sharded"), coordinator)
    spans.end(sid)
    if code != 0:
        raise LedgerError(f"sharded coordinator exited with {code}")
    mean = statistics.fmean(child)
    base = f"each of {SHARDS} `--shard k/{SHARDS}` children spawned alone, spawn to exit"
    put("fleet.shard_child_s.max", max(child), "s", base)
    put("fleet.shard_child_s.mean", mean, "s", base)
    put("fleet.shard_imbalance", max(child) / mean, "ratio", "slowest child / mean child")
    put(
        "fleet.supervisor_idle_s",
        coordinator_wall - sum(child) / MAX_PROCS,
        "s",
        f"coordinator wall - sum of child walls / {MAX_PROCS} max-procs",
    )
    startup = []
    for _ in range(CLI_STARTUP_RUNS):
        sid = spans.begin("cli.list_models")
        code, wall, _ = bench.spawn(["list", "models"], bench.work / "list.out")
        spans.end(sid)
        if code != 0:
            raise LedgerError(f"`xrbench list models` exited with {code}")
        startup.append(wall)
    base = f"`xrbench list models` spawn to exit, median of {CLI_STARTUP_RUNS}"
    put("cli.startup_s", median(startup), "s", base)

    # The in-process layers; in-process workloads also time untraced and
    # traced complete runs for the tracing overhead.
    budget = seconds / 2
    sid = spans.begin("ledger.trace")
    r = bench.ledger(
        "trace", "--workload", workload, "--dir", bench.docs, "--seconds", budget,
        "--states", *states, "--coordinator-report", coordinator,
    )
    spans.end(sid)
    spans.adopt(r["spans"], sid)
    failures += r["failures"]
    for m in r["metrics"]:
        put(m["name"], m["value"], m["unit"], m["base"])

    if workload == "fleet-sharded":
        untraced, with_spans = [], []
        started = time.perf_counter()
        while not untraced or time.perf_counter() - started < budget:
            untraced.append(bench.spawn(bench.sharded_args("fleet-sharded"), coordinator)[1])
            sid = spans.begin("cli.run_fleet_sharded")
            bench.spawn(bench.sharded_args("fleet-sharded"), coordinator)
            with_spans.append(spans.end(sid))
        base = f"median of {len(untraced)} untraced vs {len(with_spans)} traced coordinator runs"
        put("ledger.wall_s", median(untraced), "s", base)
        put("ledger.traced_wall_s", median(with_spans), "s", base)
        put("ledger.trace_overhead_s", median(with_spans) - median(untraced), "s", base)
    builds = r["builds_per_run"]
    put(
        "accel.build_share",
        metrics["accel.build_s"]["value"] * builds / metrics["ledger.wall_s"]["value"],
        "ratio",
        f"accel.build_s x {builds} build(s) per run / wall_s",
    )
    return metrics, failures, spans


# -------------------------------------------------------------------- main


def metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


def print_table(rows):
    for row in rows:
        print("  " + "  ".join(str(c) for c in row))


def run_workload(bench, workload, seed, seconds, trace):
    """Measures one workload and returns its result object."""
    e2e_names, layer_names = metric_names()
    if trace:
        metrics, failures, spans = traced(bench, workload, seconds)
        spans_path = bench.work / f"spans-{workload}-{seed}.json"
        spans_path.write_text(json.dumps(spans.spans) + "\n")
        print(f"per-layer ledger, {workload}, seed {seed} (host time)")
        print(f"  spans: {spans_path}")
        print_table(
            [f"{name:<40}", f"{m['value']:>14.6g}", f"{m['unit']:<6}", m["base"]]
            for name, m in metrics.items()
        )
        missing = [n for n in layer_names if n not in metrics]
        if missing:
            raise LedgerError(f"per-layer metrics not measured: {missing}")
        out = {n: {k: metrics[n][k] for k in ("value", "unit")} for n in layer_names}
        attempted, failed = len(metrics), len(failures)
    else:
        samples, counters, failures = end_to_end(bench, workload, seconds)
        failures += compare_counters(bench, workload, seed, counters)
        runs = samples["runs"]
        if failures:
            for run in runs:
                run["ok"] = False
        measured = end_to_end_metrics(samples, counters)
        attempted, failed = len(runs), sum(not run["ok"] for run in runs)
        print(
            f"end-to-end, {workload}, seed {seed}: {attempted} runs, {failed} failed "
            f"({failed / attempted:.0%}) (host time)"
        )
        print_table(
            [f"{name:<18}", f"median {median(v):.6g}", "q1..q3 %.6g..%.6g" % quartiles(v),
             unit, f"n={len(v)}"]
            for name, (unit, v) in measured.items()
        )
        shown = ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
        print(f"  simulated counters: {shown}")
        out = {n: {"value": median(measured[n][1]), "unit": measured[n][0]} for n in e2e_names}
    for line in failures:
        log(f"CHECK FAILED: {line}")
    attempted = max(attempted, 1)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": min(failed, attempted),
        "metrics": out,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    seed = args.seed % SEED_SPACE
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        bench = Bench(seed)
        bench.build()
        bench.write_documents(seed)
        for workload in workloads:
            result = run_workload(bench, workload, seed, args.seconds, args.trace)
            print(json.dumps(result), flush=True)
    except (LedgerError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
