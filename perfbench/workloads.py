"""The benchmark's workloads and the correctness gate for each command.

A workload is a fixed list of ``csfkit`` command lines.  Only the
triple-deletion command takes the benchmark seed; its stdout does not
contain the seed, so one recorded digest covers every seed.

Run ``python3 perfbench/workloads.py`` to record the stdout digests in
``expected_digests.json`` from the code as it stands; do so only when a
change is meant to alter CLI output.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS_FILE = HERE / "expected_digests.json"

# Seed used only to validate a claimed gain after the change was written.
HELD_OUT_SEED = 7919

# one command per line: the argv template and the exit code it must give;
# "{seed}" is replaced by the benchmark seed
WORKLOADS: Dict[str, List[tuple]] = {
    "oracle-check": [
        ("oracle-check --family clock --a 9 --b 8", 0),
        ("oracle-check --family theta --a 6 --b 6 --c 5", 0),
        ("oracle-check --family cycle-chord --a 9 --b 9", 0),
        ("oracle-check --family tadpole --a 12 --l 6", 0),
        ("oracle-check --family path --n 20", 0),
    ],
    "sweep": [
        ("verify --suite phi-involution --n 14", 0),
        ("verify --suite theta-duality --n 16", 0),
        ("verify --suite lemma-bounds --n 14", 0),
        ("verify --suite fiber --n-max 18", 0),
        ("verify --suite c-doubleprime --a-max 10 --b-max 10 --workers 1", 0),
        ("verify --suite c-doubleprime --a-max 10 --b-max 10 --workers 2", 0),
    ],
    "short-commands": [
        ("expand --family path --n 20", 0),
        ("expand --family cycle --n 20 --format csv", 0),
        ("expand --family tadpole --a 12 --l 8 --format json", 0),
        ("expand --family cycle-chord --a 10 --b 10 --form theta-sum", 0),
        ("expand --family theta --a 8 --b 7 --c 6 --variant c-prime --format csv", 0),
        ("expand --family clock --a 10 --b 9 --format json", 0),
        ("fibers --I 7,2,2 --a 6 --b 4", 0),
        ("fibers --I 5,2,2,2 --a 6 --b 4", 0),
        ("oracle-check --family theta --a 3 --b 3 --c 3", 0),
        ("verify --suite positivity --n-max 16", 0),
        ("verify --suite triple-deletion --count 50 --seed {seed}", 0),
        ("expand --family theta --a 2 --b 1 --c 1", 2),
        ("oracle-check --family theta --a 9 --b 9 --c 8", 3),
    ],
}

# the two commands whose stdout must be byte-identical in every pass
WORKER_PAIR = (
    "verify --suite c-doubleprime --a-max 10 --b-max 10 --workers 1",
    "verify --suite c-doubleprime --a-max 10 --b-max 10 --workers 2",
)


@dataclass(frozen=True)
class Command:
    label: str  # the argv template; names the command independently of the seed
    argv: tuple
    exit_code: int


@dataclass
class Outcome:
    command: Command
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    problems: Optional[List[str]] = None


def commands(workload: str, seed: int) -> List[Command]:
    """The workload's command list in its fixed order."""
    return [
        Command(label, tuple(label.format(seed=seed).split()), code)
        for label, code in WORKLOADS[workload]
    ]


def child_env() -> dict:
    """Environment for a ``csfkit`` process: the checkout's source tree on
    the path and the default degree budget."""
    env = {k: v for k, v in os.environ.items() if k != "CSFKIT_MAX_N"}
    env["PYTHONPATH"] = str(SRC)
    return env


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> Dict[str, str]:
    return json.loads(DIGESTS_FILE.read_text())


def check(outcome: Outcome, expected: Dict[str, str]) -> List[str]:
    """Problems with one command's result; empty when it is correct."""
    cmd = outcome.command
    problems = []
    if outcome.returncode != cmd.exit_code:
        problems.append(f"exit code {outcome.returncode}, expected {cmd.exit_code}")
    if digest(outcome.stdout) != expected.get(cmd.label):
        problems.append("stdout differs from the recorded digest")
    lines = outcome.stdout.decode("utf-8", "replace").splitlines()
    if cmd.exit_code == 0 and cmd.argv[0] == "oracle-check":
        if not any(line.startswith("OK ") for line in lines):
            problems.append("no OK line")
    if cmd.exit_code == 0 and cmd.argv[0] == "verify":
        if not lines or not lines[-1].endswith(" VIOLATIONS 0"):
            problems.append("summary line does not read VIOLATIONS 0")
    if cmd.exit_code != 0:
        err = outcome.stderr.decode("utf-8", "replace")
        if len(err.splitlines()) != 1 or "Traceback" in err:
            problems.append("stderr is not exactly one message line")
    return problems


def check_pass(outcomes: Sequence[Outcome], expected: Dict[str, str]) -> None:
    """Set ``problems`` on every outcome of one pass, including the
    worker-count determinism check on the c-doubleprime pair."""
    for outcome in outcomes:
        outcome.problems = check(outcome, expected)
    by_label = {o.command.label: o for o in outcomes}
    if all(label in by_label for label in WORKER_PAIR):
        one, two = (by_label[label] for label in WORKER_PAIR)
        if one.stdout != two.stdout:
            two.problems.append("stdout differs between --workers 1 and --workers 2")


def run_cli(cmd: Command, timeout: float = 60.0) -> Outcome:
    """Run one command as a fresh ``python -m csfkit`` process.  A command
    that outlives ``timeout`` is killed and reported with exit code -1."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "csfkit", *cmd.argv],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        return Outcome(cmd, -1, exc.stdout or b"", exc.stderr or b"",
                       time.perf_counter() - start)
    return Outcome(cmd, proc.returncode, proc.stdout, proc.stderr,
                   time.perf_counter() - start)


def record_digests() -> Dict[str, str]:
    """Run every command once and return its stdout digest by label."""
    recorded = {}
    for workload in WORKLOADS:
        for cmd in commands(workload, HELD_OUT_SEED):
            outcome = run_cli(cmd)
            if outcome.returncode != cmd.exit_code:
                raise SystemExit(
                    f"{cmd.label}: exit code {outcome.returncode}, expected {cmd.exit_code}"
                )
            recorded[cmd.label] = digest(outcome.stdout)
    return recorded


if __name__ == "__main__":
    DIGESTS_FILE.write_text(json.dumps(record_digests(), indent=2) + "\n")
    print(f"wrote {DIGESTS_FILE.name}")
