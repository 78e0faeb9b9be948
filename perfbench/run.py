"""Benchmark of the ``csfkit`` command-line tool.

    python3 perfbench/run.py --workload {oracle-check,sweep,short-commands}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; ``csfkit`` is imported from ``src``.

``--trace 0`` measures end to end.  Each command of the workload runs as a
fresh ``python -m csfkit`` process, one at a time, as a user runs it.  One
pass runs the workload's commands in an order drawn from the seed; passes
repeat until ``--seconds`` is used up.  Set-up time is the median of
several ``python -m csfkit --help`` runs.

``--trace 1`` runs the same untraced passes, then one traced pass that calls
``csfkit.cli.main(argv)`` in this process with every layer wrapped (see
``layertrace.py``), and reports per-layer self time and counts.

Every command's output is checked (see ``workloads.check``).  The last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it show each metric with its
quartiles and sample count, and the environment.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layertrace  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_RUNS = 11
HELP = wl.Command("--help", ("--help",), 0)


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    load_before: tuple
    load_after: tuple
    outcomes: List[wl.Outcome]


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_pass(cmds: Sequence[wl.Command], rng: random.Random, expected) -> Pass:
    """Run every command once in a shuffled order; the pass's wall time is
    the sum of the commands' wall times."""
    order = list(cmds)
    rng.shuffle(order)
    load_before = os.getloadavg()
    cpu = children_cpu_s()
    outcomes = [wl.run_cli(cmd) for cmd in order]
    cpu = children_cpu_s() - cpu
    wl.check_pass(outcomes, expected)
    return Pass(sum(o.wall_s for o in outcomes), cpu, load_before,
                os.getloadavg(), outcomes)


def untraced_passes(cmds, rng, expected, seconds: float) -> List[Pass]:
    """Passes until the next one would end after ``seconds``; at least one."""
    passes: List[Pass] = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start
                         + statistics.median(p.wall_s for p in passes) <= seconds):
        passes.append(run_pass(cmds, rng, expected))
    return passes


def traced_pass(cmds, rng, expected):
    """One in-process pass with every layer traced; returns (wall, tracer,
    outcomes)."""
    import csfkit.cli

    order = list(cmds)
    rng.shuffle(order)
    tracer = layertrace.Tracer()
    outcomes = []
    start = time.perf_counter()
    with layertrace.instrument(tracer):
        for cmd in order:
            layertrace.clear_caches()
            out, err = io.StringIO(), io.StringIO()
            began = time.perf_counter()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = csfkit.cli.main(list(cmd.argv))
                except SystemExit as exc:  # argparse rejected the argv
                    code = exc.code
            outcomes.append(wl.Outcome(cmd, code, out.getvalue().encode(),
                                       err.getvalue().encode(),
                                       time.perf_counter() - began))
    wall = time.perf_counter() - start
    wl.check_pass(outcomes, expected)
    return wall, tracer, outcomes


def measure_setup(runs: int) -> List[wl.Outcome]:
    wl.run_cli(HELP)  # warm the bytecode and file caches first
    outcomes = [wl.run_cli(HELP) for _ in range(runs)]
    for outcome in outcomes:
        outcome.problems = [] if (
            outcome.returncode == 0 and outcome.stdout.startswith(b"usage: csfkit")
        ) else ["--help failed"]
    return outcomes


def quartiles(values: Sequence[float]):
    """(q1, median, q3) of the values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def per_command_medians(passes: Sequence[Pass]) -> Dict[str, float]:
    walls: Dict[str, List[float]] = {}
    for p in passes:
        for o in p.outcomes:
            walls.setdefault(o.command.label, []).append(o.wall_s)
    return {label: statistics.median(v) for label, v in walls.items()}


def git_sha() -> str:
    if not (wl.ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def end_to_end(passes: Sequence[Pass], setup: Sequence[wl.Outcome]) -> dict:
    """End-to-end metrics as name -> (values, unit); one value per sample."""
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "wall_s": ([p.wall_s for p in passes], "s"),
        "cpu_s": ([p.cpu_s for p in passes], "s"),
        "setup_s": ([o.wall_s for o in setup], "s"),
        "peak_rss_mb": ([peak_kib / 1024], "MB"),
    }


def per_layer(passes, traced_wall, tracer, traced_outcomes) -> dict:
    """Per-layer metrics as name -> (value, unit)."""
    metrics = layertrace.layer_metrics(tracer)
    walls = per_command_medians(passes)
    one, two = (walls.get(label) for label in wl.WORKER_PAIR)
    untraced = statistics.median(p.wall_s for p in passes)
    metrics.update({
        "verify.pool_speedup": (one / two if one and two else 0.0, "ratio"),
        "cli.stdout_bytes": (sum(len(o.stdout) for o in traced_outcomes), "bytes"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced, "s"),
        "trace.unattributed_s": (traced_wall - tracer.total_self(), "s"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (wl.SRC / "csfkit" / "cli.py").is_file():
        print(f"error: no csfkit source tree at {wl.SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # the traced pass runs csfkit in this process, under the same conditions
    # as the child processes
    os.environ.pop("CSFKIT_MAX_N", None)
    sys.path.insert(0, str(wl.SRC))
    expected = wl.load_digests()
    cmds = wl.commands(args.workload, args.seed)
    rng = random.Random(args.seed)

    print(f"workload {args.workload}  seed {args.seed}  held-out seed {wl.HELD_OUT_SEED}")
    print(f"env git {git_sha()}  python {platform.python_version()}  "
          f"nproc {os.cpu_count()}  load {os.getloadavg()}")
    setup = [] if args.trace else measure_setup(SETUP_RUNS)
    passes = untraced_passes(cmds, rng, expected, args.seconds)
    outcomes = setup + [o for p in passes for o in p.outcomes]
    for i, p in enumerate(passes, start=1):
        print(f"pass {i}: wall {p.wall_s:.3f} s  cpu {p.cpu_s:.3f} s  "
              f"load {p.load_before[0]:.2f} -> {p.load_after[0]:.2f}")
    for label, wall in per_command_medians(passes).items():
        print(f"  {wall:8.3f} s  {label}")

    if args.trace:
        load_before = os.getloadavg()
        wall, tracer, traced = traced_pass(cmds, rng, expected)
        outcomes += traced
        print(f"traced pass: wall {wall:.3f} s  "
              f"load {load_before[0]:.2f} -> {os.getloadavg()[0]:.2f}")
        metrics = per_layer(passes, wall, tracer, traced)
        for name, (value, unit) in metrics.items():
            print(f"{name:36s} {value:14.6g} {unit}")
    else:
        metrics = {}
        for name, (values, unit) in end_to_end(passes, setup).items():
            q1, med, q3 = quartiles(values)
            metrics[name] = (med, unit)
            print(f"{name:12s} {med:10.4f} {unit:3s}  q1 {q1:.4f}  q3 {q3:.4f}  n={len(values)}")

    failed = [o for o in outcomes if o.problems]
    for o in failed:
        print(f"FAILED {o.command.label}: {'; '.join(o.problems)}", file=sys.stderr)
    print(f"fail_rate {len(failed) / len(outcomes):.4f} ({len(failed)} of {len(outcomes)} commands)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
