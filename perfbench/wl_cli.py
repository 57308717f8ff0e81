"""The ``cli`` workload: the README commands, each a fresh interpreter.

One pass runs the twelve commands once, as sequential subprocesses of
``python -m kstab.cli <cmd> --json``, in an order shuffled per pass from
the seed.  Each invocation is timed from spawn to reap, so process start
and import count.  Its stdout must match the seed commit byte for byte.

Set-up writes the prism vertex file and runs one warm-up command.  Every
command imports kstab afresh, so the import is timed in each invocation;
the warm-up's interpreter start, import and first read of the sources are
what ``setup_s`` measures here.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass

import checks
from tasks import Task

PRISM = ((-1, -1, -1), (1, 0, -1), (0, 1, -1), (-1, -1, 1), (1, 0, 1), (0, 1, 1))
VERTEX_FILE = "perfbench/out/prism.txt"

COMMANDS = (
    ("sinv", ["sinv", "--model", "bl_p3_quintic", "--divisor", "Qtilde", "--A", "1"]),
    ("flag-sinv", ["flag-sinv", "--model", "bl_p3_quintic", "--surface", "S", "--curve", "L - e1 - e2"]),
    ("zariski", ["zariski", "--model", "dp4", "--class", "9/4 L - e1 - e2 - e3 - e4 - e5"]),
    ("lattice-disc", ["lattice", "disc", "--gram", "22 0; 0 -2"]),
    ("lattice-overlattices", ["lattice", "overlattices", "--gram", "2 0; 0 -2"]),
    ("lattice-primitive", ["lattice", "primitive", "--gram", "22 0; 0 -2"]),
    ("lattice-saturate", ["lattice", "saturate", "--gram", "22 11 6; 11 4 1; 6 1 -2", "--sub", "1 0 0; 0 1 0"]),
    ("lattice-search", ["lattice", "search", "--form", "-22 + 28*c - 8*c^2", "--op", ">", "--box", "c=-100..100"]),
    ("nl-classify", ["nl", "classify", "--h", "11", "--m", "4"]),
    ("toric-check", ["toric", "check", "--vertices", VERTEX_FILE]),
    ("models-list", ["models", "list"]),
    ("verify-paper", ["verify-paper"]),
)

# verify-paper exits 2 on its one known mismatch: the printed 29/44 of the
# line flag against the certified 73/88.
EXPECTED_FAIL = ("flag:dp4-line", "73/88")
VERIFY_ROWS = 42


@dataclass
class Invocation:
    code: int
    stdout: bytes
    trace_path: str | None = None


class CliWorkload:
    name = "cli"
    in_process = False

    def __init__(self, root: str, seed: int, reference: dict):
        self.root = root
        self.seed = seed
        self.reference = reference
        os.makedirs(os.path.join(root, "perfbench", "out"), exist_ok=True)
        with open(os.path.join(root, VERTEX_FILE), "w", encoding="utf-8") as fh:
            fh.write("".join(" ".join(map(str, v)) + "\n" for v in PRISM))
        self.env = {
            "PYTHONPATH": os.path.join(root, "src"),
            "PYTHONHASHSEED": "0",
            "PYTHONDONTWRITEBYTECODE": "1",
        }
        self.child_env = {**os.environ, **self.env}
        self.peak_rss_kb = 0
        # one warm-up command, so interpreter and sources are in the page cache
        warm = self._spawn([sys.executable, "-m", "kstab.cli", "models", "list", "--json"])
        if warm.code != 0:
            raise RuntimeError(f"warm-up `kstab models list` exited with {warm.code}")
        self.peak_rss_kb = 0

    def sizes(self) -> dict:
        return {
            "commands": [name for name, _ in COMMANDS],
            "prism_vertices": len(PRISM),
            "verify_paper_rows": VERIFY_ROWS,
            "child_env": self.env,
        }

    def tasks(self, index: int, trace_dir: str | None = None) -> list[Task]:
        order = list(COMMANDS)
        random.Random(f"{self.seed}:{index}").shuffle(order)
        out = []
        for name, argv in order:
            group = "verify_paper_s" if name == "verify-paper" else "cmd_s"
            out.append(Task(name, group, self._runner(name, argv, index, trace_dir), self._checker(name)))
        return out

    def _runner(self, name: str, argv: list[str], index: int, trace_dir: str | None):
        if trace_dir is None:
            cmd = [sys.executable, "-m", "kstab.cli", *argv, "--json"]
            summary_path = None
        else:
            summary_path = os.path.join(trace_dir, f"{index:03d}-{name}")
            launcher = os.path.join(self.root, "perfbench", "cli_child.py")
            cmd = [sys.executable, launcher, summary_path, *argv, "--json"]

        def run() -> Invocation:
            trace_path = summary_path and summary_path + ".json"
            if trace_path and os.path.exists(trace_path):
                os.remove(trace_path)  # never read a summary left by an earlier run
            inv = self._spawn(cmd)
            inv.trace_path = trace_path
            return inv

        return run

    def _spawn(self, cmd: list[str]) -> Invocation:
        proc = subprocess.Popen(cmd, cwd=self.root, env=self.child_env, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL)
        with proc.stdout:
            stdout = proc.stdout.read()
        # reap with wait4 for this child's own peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return Invocation(proc.returncode, stdout)

    def _checker(self, name: str):
        def check(inv: Invocation) -> list[str]:
            problems = []
            want_code = 2 if name == "verify-paper" else 0
            if inv.code != want_code:
                problems.append(f"exit code {inv.code}, expected {want_code}")
            if checks.digest(inv.stdout) != self.reference[name]:
                problems.append("stdout differs from the seed output")
            if name == "verify-paper":
                problems += _verify_report(inv.stdout)
            return problems

        return check

    def peak_rss_mb(self) -> float:
        return self.peak_rss_kb / 1024

    def record(self) -> dict:
        """Digest of every command's stdout, for the reference file."""
        return {task.name: checks.digest(task.run().stdout) for task in self.tasks(0)}


def _verify_report(stdout: bytes) -> list[str]:
    try:
        report = json.loads(stdout)
    except ValueError:
        return ["verify-paper stdout is not JSON"]
    rows = report.get("rows", [])
    fails = [(r["claim"], r["computed"]) for r in rows if r["status"] != "PASS"]
    problems = []
    if len(rows) != VERIFY_ROWS:
        problems.append(f"verify-paper has {len(rows)} rows, expected {VERIFY_ROWS}")
    if fails != [EXPECTED_FAIL]:
        problems.append(f"verify-paper failures {fails}, expected only {EXPECTED_FAIL}")
    return problems
