"""Benchmark of `sah` run end to end, one fresh interpreter per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports `sah` from `src/` there and
writes only to a temporary directory `.perfbench-*` beside it.  Children
keep their bytecode cache there (PYTHONPYCACHEPREFIX), whatever
PYTHONDONTWRITEBYTECODE says, as an installed `sah` has its own.  The seed
makes the input (see workloads.py); every run's result document and exit
code are checked against the workload's expected values.

--trace 0 spawns a warm-up child, then solving children one after another
until they have taken S seconds; at least one, and no more than keeps the
total within 1.5 S.  Before each solve, and
after the last, set-up probes import `sah` and parse the input only; there
are at least SETUP_PROBES of them.  The run reports the medians of the
end-to-end metrics.  --trace 1 runs one untraced and one traced child and
reports the per-layer metrics of the traced one (layers.py).  The metric
names and units are those of BENCHMARK.json.

Standard output ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it records the environment and every sample.  A child
that crashes, overruns the deadline, exits with the wrong code or writes a
wrong document counts as failed.  When no child measured one of the
metrics, the result line carries no metrics and the exit code is 1.
Without `src/sah` the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Workload, check_result

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"

BUDGET_S = 170.0       # every child is killed by then; the run ends < 180 s
SETUP_PROBES = 15      # at least this many set-up probes per run
PROBES_PER_GAP = 3     # probes before each solve and after the last

LIMITS = ("nothing is pinned to a core; no file cache is dropped; the "
          "machine is shared with other workloads; numpy/BLAS threads are "
          "left at their default")


@dataclass
class Child:
    """One child process: what it reported and what it cost."""

    stage: str
    spawn_s: float                 # monotonic clock just before the spawn
    wall_s: float
    cpu_s: float                   # user + sys of the child, from rusage
    exit_code: int | None          # None when killed at the deadline
    report: dict | None
    stderr: str = ""
    error: str | None = None

    @property
    def setup_s(self) -> float | None:
        if self.report is None or "t_parsed" not in self.report:
            return None
        return self.report["t_parsed"] - self.spawn_s

    @property
    def solve_s(self) -> float | None:
        return (self.report or {}).get("solve_s")


def child_env(work: Path) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(work / "pycache")
    return env


def run_child(stage: str, work: Path, wl: Workload, timeout: float,
              env: bool = False) -> Child:
    cmd = [sys.executable, str(CHILD), "--src", str(ROOT / "src"),
           "--input", str(work / "input.json"),
           "--options", json.dumps(wl.options),
           "--stage", stage] + (["--env"] if env else [])
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(work),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 0.0))
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        code = None
    wall = time.monotonic() - spawn
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    report = None
    lines = out.strip().splitlines()
    if code is not None and lines:
        try:
            report = json.loads(lines[-1])
        except json.JSONDecodeError:
            report = None
    child = Child(stage, spawn, wall, cpu, code, report, err[-2000:])
    if code is None:
        child.error = f"killed at the deadline after {wall:.1f} s"
    elif report is None:
        child.error = f"exit code {code} without a report"
    elif stage != "setup":
        child.error = check_result(wl, report["document"], code)
    elif code != 0:
        child.error = f"set-up child exited with {code}"
    return child


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def solve_metrics(probes: list[Child], solves: list[Child]) -> dict:
    """Medians over the children that measured them; a metric no child
    measured is left out."""
    out = {}
    setups = [c.setup_s for c in probes if c.setup_s is not None]
    if setups:
        out["setup_s"] = statistics.median(setups)
    ok = [c for c in solves if c.solve_s is not None]
    if ok:
        out["solve_s"] = statistics.median(c.solve_s for c in ok)
        out["cpu_s"] = statistics.median(c.cpu_s for c in ok)
        out["peak_rss_mb"] = statistics.median(c.report["maxrss_kb"] / 1024.0
                                               for c in ok)
    return out


def layer_metrics(untraced: Child, traced: Child) -> dict:
    if "layers" not in (traced.report or {}):
        return {}
    out = {**traced.report["layers"], "trace.solve_s": traced.solve_s}
    if untraced.solve_s is not None:
        out["trace.overhead_s"] = traced.solve_s - untraced.solve_s
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    if not (ROOT / "src" / "sah" / "__init__.py").is_file():
        print(f"error: no sah package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    start = time.monotonic()

    def remaining() -> float:
        return BUDGET_S - (time.monotonic() - start)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        wl.write_input(str(work / "input.json"), args.seed)
        # fills the bytecode cache and the page cache
        warm = run_child("setup", work, wl, remaining(), env=True)
        if warm.error:
            print(f"error: sah does not start: {warm.error}\n{warm.stderr}",
                  file=sys.stderr)
            return 2
        probes: list[Child] = []
        solves: list[Child] = []

        def probe(count: int) -> None:
            for _ in range(count):
                probes.append(run_child("setup", work, wl, remaining()))

        if args.trace:
            solves.append(run_child("solve", work, wl, remaining()))
            solves.append(run_child("trace", work, wl, remaining()))
            metrics = layer_metrics(*solves)
        else:
            # set-up probes are spread over the run, so that their median
            # sees the same machine as the solves
            while True:
                probe(PROBES_PER_GAP)
                solves.append(run_child("solve", work, wl, remaining()))
                measured = sum(c.wall_s for c in solves)
                last = solves[-1].wall_s
                # S seconds of solves; none that would take them past 1.5 S
                # (one long solve is enough) or the run past its budget
                if (solves[-1].exit_code is None or measured >= args.seconds
                        or measured + last > 1.5 * args.seconds
                        or last * 1.5 > remaining()):
                    break
            probe(max(PROBES_PER_GAP, SETUP_PROBES - len(probes)))
            metrics = solve_metrics(probes, solves)

    children = probes + solves
    failed = [c for c in children if c.error]
    missing = sorted(set(units) - set(metrics))
    env = dict(warm.report.get("env", {}))
    env["git_commit"] = git_commit() or "unknown: not a git checkout"
    env["limits"] = LIMITS
    print(json.dumps({"perfbench": {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env,
        "failed_ratio": len(failed) / len(children),
        "children": [{"stage": c.stage, "wall_s": c.wall_s, "cpu_s": c.cpu_s,
                      "setup_s": c.setup_s, "exit_code": c.exit_code,
                      "solve_s": c.solve_s, "error": c.error}
                     for c in sorted(children, key=lambda c: c.spawn_s)],
    }}))
    for c in failed:
        print(f"failed {c.stage} child: {c.error}\n{c.stderr}", file=sys.stderr)
    if missing:
        print(f"error: not measured: {', '.join(missing)}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed and not missing,
        "attempted": len(children),
        "failed": len(failed),
        "metrics": {} if missing else {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()},
    }))
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
