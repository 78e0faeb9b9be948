"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py

The traced-digest test makes one traced pass over every workload and takes
about a minute.
"""

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

sys.path.insert(0, str(wl.SRC))

BENCHMARK = json.loads((wl.ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_on_synthetic_nested_spans():
    # A [0, 10] holds B [1, 5], which holds C [2, 4], then B again [6, 7]
    tracer = layertrace.Tracer(clock=FakeClock([0, 1, 2, 4, 5, 6, 7, 10]))
    tracer.enter("A")
    tracer.enter("B")
    tracer.enter("C")
    tracer.exit()
    tracer.exit()
    tracer.enter("B")
    tracer.exit()
    tracer.exit()
    assert tracer.spans == {
        ("", "A"): [5.0, 1],
        ("A", "B"): [3.0, 2],
        ("B", "C"): [2.0, 1],
    }
    assert tracer.total_self() == 10.0
    assert tracer.self_time("B", "C") == 5.0
    assert tracer.self_time("C", under=("B",)) == 2.0
    assert tracer.self_time("B", "C", outside=("B",)) == 3.0
    assert tracer.calls("B", exact=True) == 2


def test_traced_stdout_matches_untraced_digests():
    expected = wl.load_digests()
    for workload in wl.WORKLOADS:
        cmds = wl.commands(workload, wl.HELD_OUT_SEED)
        _, tracer, outcomes = run.traced_pass(cmds, random.Random(0), expected)
        assert [o.problems for o in outcomes] == [[] for _ in outcomes], workload
        assert len(tracer.stack) == 1


def test_instrument_restores_the_originals():
    import csfkit.cli
    import csfkit.compositions

    main, init = csfkit.cli.main, csfkit.compositions.Composition.__init__
    with layertrace.instrument(layertrace.Tracer()):
        assert csfkit.cli.main is not main
    assert csfkit.cli.main is main
    assert csfkit.compositions.Composition.__init__ is init


def test_metric_names_are_valid_and_match_benchmark_json():
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    e2e = run.end_to_end([run.Pass(1.0, 1.0, (0,), (0,), [])], [])
    passes = [run.Pass(1.0, 1.0, (0,), (0,), [])]
    layers = run.per_layer(passes, 1.0, layertrace.Tracer(), [])
    assert list(e2e) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(layers) == [m["name"] for m in BENCHMARK["per_layer"]]
    for name, (_, unit) in [*e2e.items(), *layers.items()]:
        assert pattern.fullmatch(name), name
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    assert {**{n: u for n, (_, u) in e2e.items()},
            **{n: u for n, (_, u) in layers.items()}} == units


def test_corrupted_digest_raises_fail_rate():
    fibers = [c for c in wl.commands("short-commands", 0) if c.argv[0] == "fibers"]
    expected = wl.load_digests()
    good = run.run_pass(fibers, random.Random(0), expected)
    assert [o for o in good.outcomes if o.problems] == []
    corrupted = dict(expected)
    corrupted[fibers[0].label] = "0" * 64
    bad = run.run_pass(fibers, random.Random(0), corrupted)
    failed = [o.command.label for o in bad.outcomes if o.problems]
    assert failed == [fibers[0].label]


def test_worker_count_difference_is_a_failure():
    stdouts = (b"SUITE c-doubleprime CHECKED 1 VIOLATIONS 0\n",
               b"SUITE c-doubleprime CHECKED 2 VIOLATIONS 0\n")
    expected = {label: wl.digest(stdouts[0]) for label in wl.WORKER_PAIR}
    outcomes = [
        wl.Outcome(wl.Command(label, tuple(label.split()), 0), 0, out, b"", 0.0)
        for label, out in zip(wl.WORKER_PAIR, stdouts)
    ]
    wl.check_pass(outcomes, expected)
    assert outcomes[0].problems == []
    assert "stdout differs between --workers 1 and --workers 2" in outcomes[1].problems


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
