"""kstab benchmark: four workloads timed from outside the engine.

    python3 perfbench/run.py --workload {cli,surfaces,discrete,ladder,all} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  A run makes passes over the workload's
tasks in a closed loop (one caller, each task issued after the previous
one completes) for about ``--seconds`` seconds, at least one pass.
Between passes it sets the workload up in fresh interpreters, eleven times
in all, and reports the median as ``setup_s``.  Every output is checked; an
operation that raises, exits with the wrong code or fails its check counts
as failed and the pass goes on.

On a shared host other tenants slow every task by up to ~1.7x for seconds
to minutes at a time, often for a whole run, so no statistic of raw times
within a run is steady from run to run.  The benchmark therefore runs
``hostspeed.probe()``, a fixed piece of Fraction arithmetic that never
changes with kstab, after every task and after every set-up, with this
process and all it starts pinned to one CPU.  ``wall_s`` and ``setup_s``
are given at the host's quiet speed: each time is multiplied by
PROBE_QUIET_S / (the median probe next to it).  ``wall_s`` is one pass: the
sum over the pass's tasks of each task's median scaled time.  The raw
median pass is printed as ``wall_median_s``, and the per-group and
per-task figures are raw.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a separate traced
pass, run after an untraced pass of the same tasks so the tracing
overhead is measured too.  Everything, with provenance, is also written
to ``perfbench/out/``.
"""

import sys

sys.dont_write_bytecode = True  # keep the checkout free of bytecode caches

import argparse
import json
import os
import platform
import statistics
import subprocess
import traceback
from time import perf_counter

import hostspeed
import tracer
import wl_cli
import wl_discrete
import wl_surfaces

PINNED_ENV = {"PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")
WORKLOADS = ("cli", "surfaces", "discrete", "ladder")
SETUP_SAMPLES = 11
# hostspeed.probe() on a quiet host: the fastest probes seen on the 2-vCPU
# x86_64 development host.  Only ratios between runs matter; this constant
# just keeps wall_s and setup_s near seconds.
PROBE_QUIET_S = 0.006
PROBE_WINDOW = 3  # probes on each side of a task that give its local host speed

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
GROUP_METRICS = {
    "cli": ("verify_paper_s",),
    "surfaces": ("volume_1p_s", "flag_2p_s", "point_query_s"),
    "discrete": ("overlattice_s", "box_search_s", "toric_s"),
    "ladder": ("volume_1p_s", "flag_2p_s"),
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _load_workload(name: str, seed: int):
    with open(os.path.join(ROOT, "perfbench", "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)[name]
    cls = {"cli": wl_cli.CliWorkload, "surfaces": wl_surfaces.SurfacesWorkload,
           "discrete": wl_discrete.DiscreteWorkload, "ladder": wl_surfaces.LadderWorkload}[name]
    return cls(ROOT, seed, reference)


def _timed_setup(name: str, seed: int) -> tuple[float, float]:
    """Set-up seconds, and the median of three host-speed probes right after."""
    t0 = perf_counter()
    _load_workload(name, seed)
    seconds = perf_counter() - t0
    return seconds, statistics.median(hostspeed.probe() for _ in range(3))


def _setup_probe(args) -> float:
    """Set-up time of a fresh interpreter, importing and building from scratch, at quiet host speed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)]
    probe = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    seconds, probe_s = map(float, probe.stdout.split()[-2:])
    return seconds * PROBE_QUIET_S / probe_s


def _run_pass(tasks) -> list[tuple]:
    """Run tasks in order, timing only the call; exceptions are recorded, not raised."""
    records = []
    for task in tasks:
        t0 = perf_counter()
        try:
            result, error = task.run(), None
        except Exception as exc:  # a failed op; the pass goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - t0
        records.append((task, seconds, result, error, hostspeed.probe()))
    return records


def _check_pass(records) -> list[dict]:
    rows = []
    for task, seconds, result, error, probe_s in records:
        problems = [error] if error else []
        if not problems:
            try:
                problems = task.check(result)
            except Exception:  # a check that cannot run fails the op
                problems = ["check raised: " + traceback.format_exc(limit=3)]
        rows.append({"task": task.name, "group": task.group, "seconds": seconds, "probe_s": probe_s,
                     "problems": problems})
    return rows


def _timed_passes(wl, args, setup: list[float]):
    """Closed-loop passes until the next one would overrun the budget.

    A set-up probe follows each pass until ``setup`` holds SETUP_SAMPLES, so
    the set-up samples are spread over the run like the passes.
    """
    passes, t_begin, index = [], perf_counter(), 0
    while True:
        t_pass = perf_counter()
        passes.append(_one_pass(wl, index))
        index += 1
        now = perf_counter()
        if now - t_begin + (now - t_pass) > args.seconds:
            return passes
        if len(setup) < SETUP_SAMPLES:
            setup.append(_setup_probe(args))


def _one_pass(wl, index: int) -> list[dict]:
    return _check_pass(_run_pass(wl.tasks(index)))


def _traced_pass(wl, index: int, trace_dir: str):
    """One pass with every entry point wrapped; returns rows and the span summary."""
    if not wl.in_process:
        records = _run_pass(wl.tasks(index, trace_dir))
        summaries = []
        for _, seconds, inv, _, _ in records:
            if inv is not None and os.path.exists(inv.trace_path):
                with open(inv.trace_path, encoding="utf-8") as fh:
                    summary = json.load(fh)
                summary["counts"]["cli.startup_s"] = seconds - summary["main_s"]
                summaries.append(summary)
        return _check_pass(records), tracer.merge(summaries)
    tasks = wl.tasks(index)
    spans = tracer.Tracer()
    spans.install()
    try:
        records = _run_pass(tasks)
    finally:
        spans.uninstall()
    spans.dump(os.path.join(trace_dir, f"{index:03d}-spans.tsv"))
    return _check_pass(records), spans.summary()


def _trace_run(wl, args):
    """Alternate untraced and traced passes; per-layer metrics are per traced pass."""
    trace_dir = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}")
    os.makedirs(trace_dir, exist_ok=True)
    plain, traced, summaries, t_begin, index = [], [], [], perf_counter(), 0
    while True:
        plain.append(_one_pass(wl, index))
        rows, summary = _traced_pass(wl, index + 1, trace_dir)
        traced.append(rows)
        summaries.append(summary)
        index += 2
        pair_s = sum(r["seconds"] for r in plain[-1] + traced[-1])
        if perf_counter() - t_begin + pair_s > args.seconds:
            break
    metrics = tracer.layer_metrics(tracer.merge(summaries), len(traced))
    metrics["trace.overhead_ratio"] = _median_wall(traced) / _median_wall(plain)
    units = dict(tracer.metric_specs())
    return plain + traced, {name: (metrics[name], units[name]) for name, _ in tracer.metric_specs()}


def _pass_walls(passes) -> list[float]:
    return [sum(r["seconds"] for r in rows) for rows in passes]


def _quiet_wall(passes) -> float:
    """One pass at quiet host speed: the sum over tasks of each task's median scaled time."""
    scaled: dict[str, list[float]] = {}
    for rows in passes:
        for i, r in enumerate(rows):
            near = [x["probe_s"] for x in rows[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1]]
            scaled.setdefault(r["task"], []).append(r["seconds"] * PROBE_QUIET_S / statistics.median(near))
    return sum(statistics.median(v) for v in scaled.values())


def _median_wall(passes) -> float:
    return statistics.median(_pass_walls(passes))


def _group_medians(passes, groups) -> dict:
    return {g: statistics.median(sum(r["seconds"] for r in rows if r["group"] == g) for rows in passes)
            for g in groups}


def _tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, samples beyond)."""
    xs = sorted(samples)
    n = len(xs)
    for pct in (99.9, 99, 95, 90, 75, 50):
        beyond = int(n * (100 - pct) / 100)
        if beyond >= 10:
            return xs[n - beyond - 1], pct, beyond
    return xs[-1], 100.0, 0


def _workload_metrics(name: str, passes) -> dict:
    """The workload's own end-to-end figures; printed and written, not on the last line."""
    rows = [r for p in passes for r in p]
    out = {g: (v, "s") for g, v in _group_medians(passes, GROUP_METRICS[name]).items()}
    out["wall_median_s"] = (_median_wall(passes), "s")
    attempted = len(rows)
    failed = sum(1 for r in rows if r["problems"])
    out["failed_ratio"] = (failed / attempted, "1")
    if name == "cli":
        times = [r["seconds"] for r in rows]
        value, pct, beyond = _tail(times)
        out["cmd_p50_s"] = (statistics.median(times), "s")
        out["cmd_tail_s"] = (value, "s")
        out["cmd_tail_percentile"] = (pct, "%")
        out["cmd_tail_beyond"] = (beyond, "count")
        out["cmd_samples"] = (len(times), "count")
    return out


def _task_medians(passes) -> dict:
    by_task: dict[str, list[float]] = {}
    for rows in passes:
        for r in rows:
            by_task.setdefault(r["task"], []).append(r["seconds"])
    return {task: statistics.median(v) for task, v in by_task.items()}


def _provenance(args, wl) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "pinned_env": PINNED_ENV,
        "load": "closed loop, one caller, no extra threads",
        "inputs": wl.sizes(),
    }


def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")


def _run(args) -> int:
    wl = _load_workload(args.workload, args.seed)
    setup: list[float] = []
    if args.trace:
        passes, reported = _trace_run(wl, args)
        extra = {}
    else:
        passes = _timed_passes(wl, args, setup)
        setup += [_setup_probe(args) for _ in range(SETUP_SAMPLES - len(setup))]
        values = {"setup_s": statistics.median(setup), "wall_s": _quiet_wall(passes),
                  "peak_rss_mb": wl.peak_rss_mb()}
        reported = {name: (values[name], unit) for name, unit in END_TO_END}
        extra = _workload_metrics(args.workload, passes)
    rows = [r for p in passes for r in p]
    failures = [r for r in rows if r["problems"]]
    provenance = _provenance(args, wl)
    provenance["passes"] = len(passes)
    print(json.dumps(provenance, sort_keys=True))
    for r in failures:
        print(f"FAILED {r['task']}: {'; '.join(r['problems'])[:500]}")
    if extra:
        _print_table("workload metrics", extra)
    _print_table("task medians (s)", {k: (v, "s") for k, v in _task_medians(passes).items()})
    _print_table("per-layer metrics" if args.trace else "end-to-end metrics", reported)
    result = {
        "correct": not failures,
        "attempted": len(rows),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"provenance": provenance, "setup_samples_s": setup, "result": result,
                   "workload_metrics": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
                   "passes": passes}, fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        print(f"== {name}")
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged, sort_keys=True))
    return 0


def pin_environment(script: str) -> None:
    """Re-execute ``script`` unless the environment already holds PINNED_ENV.

    Same hash seed and no bytecode writes in this process and all it starts.
    """
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, os.path.abspath(script), *sys.argv[1:]],
                  {**os.environ, **PINNED_ENV})


def main(argv=None) -> int:
    pin_environment(__file__)
    # one CPU for this process and all it starts, so the host-speed probe and
    # the tasks it scales always run on the same CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    args = _parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "kstab", "__init__.py")):
        print(f"run.py: no kstab sources under {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.setup_probe:
        print(*_timed_setup(args.workload, args.seed))
        return 0
    if args.workload == "all":
        return _run_all(args)
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
