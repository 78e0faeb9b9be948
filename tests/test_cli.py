"""Command-line behavior: formats, exit codes, budgets, determinism."""

import bisect
import importlib
import json

import pytest

import csfkit.cli as cli
from csfkit.errors import ResourceLimitError
from csfkit.verify import (
    MAX_INSTANCE_COUNT,
    MAX_REPORTED_VIOLATIONS,
    SUITES,
    SuiteResult,
    run_c_doubleprime,
    run_fiber,
    run_lemma_bounds,
    run_positivity,
    run_suite,
    run_triple_deletion,
)
from csfkit.graphs import EExpansion
from csfkit.coefficients import _in_w_gt, _theta_coeff
from csfkit.compositions import Composition


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_expand_path_csv(capsys):
    code, out, _ = run(capsys, "expand", "--family", "path", "--n", "3",
                       "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["partition,coefficient", "3,3", "21,1"]


def test_expand_clock_csv_matches_library(capsys):
    import csv as csv_mod
    import io

    from csfkit.graphs import closed_form_clock
    from csfkit.compositions import format_parts

    code, out, _ = run(capsys, "expand", "--family", "clock", "--a", "6",
                       "--b", "4", "--format", "csv")
    assert code == 0
    rows = list(csv_mod.reader(io.StringIO(out)))
    assert rows[0] == ["partition", "coefficient"]
    grouped = closed_form_clock(6, 4).grouped_by_rho()
    expected = [
        [format_parts(lam), str(coef)] for lam, coef in grouped.items_sorted()
    ]
    assert rows[1:] == expected
    # a partition with a two-digit part stays one quoted field
    ten_one = next(row for row in rows if row[0] == "10,1")
    assert len(ten_one) == 2


def test_expand_json_is_valid_and_exact(capsys):
    code, out, _ = run(capsys, "expand", "--family", "cycle", "--n", "3",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["basis"] == "e" and data["degree"] == 3
    assert data["terms"] == [{"partition": [3], "num": "6", "den": "1"}]


def test_expand_text_has_header_and_rows(capsys):
    code, out, _ = run(capsys, "expand", "--family", "path", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["partition", "coefficient"]
    assert lines[1].split() == ["3", "3"]


def test_expand_rejects_bad_parameters(capsys):
    code, _, err = run(capsys, "expand", "--family", "cycle", "--n", "2")
    assert code == 2
    assert "cycle" in err


def test_expand_respects_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("CSFKIT_MAX_N", "8")
    code, _, err = run(capsys, "expand", "--family", "path", "--n", "10")
    assert code == 3
    assert "budget" in err
    monkeypatch.setenv("CSFKIT_MAX_N", "not-a-number")
    code, _, err = run(capsys, "expand", "--family", "path", "--n", "3")
    assert code == 2


def test_expand_refuses_a_degree_past_the_window_dp_at_once(capsys, monkeypatch):
    import time

    # the budget admits n = 64, which the closed forms' DP refuses before any work
    monkeypatch.setenv("CSFKIT_MAX_N", "64")
    for argv in (("--family", "path", "--n", "64"),
                 ("--family", "theta", "--a", "22", "--b", "22", "--c", "21",
                  "--variant", "c-prime")):
        start = time.perf_counter()
        code, out, err = run(capsys, "expand", *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert (code, out) == (3, ""), argv
        assert err == "resource error: closed-form budget exceeded: n 64 > limit 48\n", argv


def test_expand_c_prime_prints_the_c_form_past_the_reach_of_a_walk(capsys, monkeypatch):
    # n = 30: Fib(30) terms, which the c-prime form no longer walks
    monkeypatch.setenv("CSFKIT_MAX_N", "30")
    triple = ("--family", "theta", "--a", "11", "--b", "10", "--c", "10")
    code, out, err = run(capsys, "expand", *triple, "--variant", "c-prime")
    assert (code, err) == (0, "")
    assert run(capsys, "expand", *triple, "--variant", "c") == (0, out, "")


def test_oracle_check_passes_for_known_families(capsys, monkeypatch):
    assert run(capsys, "oracle-check", "--family", "clock",
               "--a", "2", "--b", "2")[0] == 0
    assert run(capsys, "oracle-check", "--family", "theta",
               "--a", "3", "--b", "3", "--c", "3")[0] == 0
    assert run(capsys, "oracle-check", "--family", "tadpole",
               "--a", "4", "--l", "2")[0] == 0
    # the packed oracle at n = 26, past the default budget: 27 edges
    monkeypatch.setenv("CSFKIT_MAX_N", "26")
    assert run(capsys, "oracle-check", "--family", "theta", "--a", "10", "--b", "9",
               "--c", "8") == (
        0, "OK theta (10, 9, 8): 2 form(s) match the oracle exactly (n=26)\n", "")


def test_oracle_check_reports_first_differing_partition(capsys, monkeypatch):
    import csfkit.graphs as graphs

    def corrupted(family, **params):
        expansion = EExpansion(3)
        expansion.add_term(Composition((3,)), 1)  # should be 1 per unit weight
        expansion.add_term(Composition((1, 2)), 5)  # corrupted coefficient
        return expansion

    monkeypatch.setattr(graphs, "expansion_closed_form", corrupted)
    code, out, _ = run(capsys, "oracle-check", "--family", "path", "--n", "3")
    assert code == 1
    assert out.startswith("MISMATCH")
    assert "21" in out


def test_oracle_check_edge_guard_fires_before_the_oracle_runs(capsys, monkeypatch):
    import csfkit.graphs as graphs
    import csfkit.symfunc as symfunc

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle ran past its edge guard")

    monkeypatch.setattr(graphs, "csf_pbasis_subsets", forbidden)
    monkeypatch.setattr(graphs, "expansion_closed_form", forbidden)
    monkeypatch.setattr(symfunc, "_convert", forbidden)
    monkeypatch.setenv("CSFKIT_MAX_N", "30")
    # theta(11, 10, 10) has n = 30 and 31 edges, one over the oracle's cap
    code, out, err = run(capsys, "oracle-check", "--family", "theta",
                         "--a", "11", "--b", "10", "--c", "10")
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and "31 edges > limit 30" in err


def test_verify_fiber_rejects_n_that_disagrees_with_the_pair(capsys):
    code, out, err = run(capsys, "verify", "--suite", "fiber",
                         "--n", "5", "--a", "6", "--b", "4")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "a+b+1 = 11" in err


def test_verify_fiber_accepts_n_that_agrees_with_the_pair(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "fiber",
                       "--n", "11", "--a", "6", "--b", "4")
    assert code == 0
    assert out == run(capsys, "verify", "--suite", "fiber", "--a", "6", "--b", "4")[1]
    assert out.endswith("VIOLATIONS 0\n")


def test_verify_fiber_rejects_n_max_below_the_pair(capsys):
    code, out, err = run(capsys, "verify", "--suite", "fiber",
                         "--n-max", "5", "--a", "6", "--b", "4")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "--n-max 5 is below a+b+1 = 11" in err


def test_verify_fiber_accepts_n_max_at_or_above_the_pair(capsys):
    expected = run(capsys, "verify", "--suite", "fiber", "--a", "6", "--b", "4")[1]
    for n_max in ("11", "18"):
        code, out, _ = run(capsys, "verify", "--suite", "fiber",
                           "--n-max", n_max, "--a", "6", "--b", "4")
        assert code == 0
        assert out == expected
    assert expected.endswith("VIOLATIONS 0\n")


def test_verify_fiber_fixture_pair(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "fiber", "--n", "11",
                       "--a", "6", "--b", "4")
    assert code == 0
    last = out.splitlines()[-1]
    fields = last.split()
    assert fields[:2] == ["SUITE", "fiber"]
    assert fields[2] == "CHECKED" and int(fields[3]) > 0
    assert fields[4] == "VIOLATIONS" and fields[5] == "0"


def test_verify_c_doubleprime_small_range(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "c-doubleprime",
                       "--a-max", "5", "--b-max", "5")
    assert code == 0
    assert out.splitlines()[-1].startswith("SUITE c-doubleprime CHECKED")


def test_verify_lemma_bounds_reports_branch_counts(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lemma-bounds", "--n", "9")
    assert code == 0
    assert "W> q=p" in out
    assert out.splitlines()[-1].endswith("VIOLATIONS 0")


def test_verify_json_format_keeps_summary_last(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "theta-duality",
                       "--n-max", "6", "--format", "json")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("SUITE theta-duality")
    payload = json.loads("\n".join(lines[:-1]))
    assert payload["violations"] == []


def test_verify_triple_deletion_smoke(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "triple-deletion",
                       "--count", "3", "--seed", "7")
    assert code == 0
    assert out.splitlines()[-1].endswith("VIOLATIONS 0")


def test_verify_budget_exceeded(capsys, monkeypatch):
    monkeypatch.setenv("CSFKIT_MAX_N", "10")
    code, _, err = run(capsys, "verify", "--suite", "positivity",
                       "--n-max", "12")
    assert code == 3
    # a double fault, over the budget and outside the clock domain: every
    # entry point that reads the budget checks it first
    pair = ("--a", "2", "--b", "30")
    lines = {run(capsys, *argv) for argv in (("verify", "--suite", "fiber", *pair),
                                              ("expand", "--family", "clock", *pair),
                                              ("oracle-check", "--family", "clock", *pair))}
    assert lines == {(3, "", "resource error: requested n 33 exceeds the budget 10\n")}


def test_fibers_known_example(capsys):
    code, out, _ = run(capsys, "fibers", "--I", "7,2,2", "--a", "6", "--b", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("I = 722")
    assert "class = W>" in lines[1]
    assert "q - p = 2" in lines[2]
    assert "H_1 = 272   w = 12   D = 2" in lines
    assert "H_2 = 227   w = 12   D = -2" in lines
    assert lines[-1] == "c'' = 147"


def test_fibers_reports_c_doubleprime_for_exact_suffix_example(capsys):
    code, out, _ = run(capsys, "fibers", "--I", "5,2,2,2", "--a", "6", "--b", "4")
    assert code == 0
    assert "in_A = yes" in out
    lines = out.splitlines()
    for line in ("H_1 = 2522   w = 8   D = -2", "H_2 = 2252   w = 8   D = -2"):
        assert line in lines
    assert lines[-1] == "c'' = 23"


def test_fibers_low_class_prints_psi_image(capsys):
    code, out, _ = run(capsys, "fibers", "--I", "2,5,2,2", "--a", "6", "--b", "4")
    assert code == 0
    assert "class = W<=" in out
    assert "psi(I) = 5222" in out


def test_fibers_wrong_modulus_is_usage_error(capsys):
    code, _, err = run(capsys, "fibers", "--I", "7,2,2", "--a", "6", "--b", "5")
    assert code == 2
    assert "modulus" in err


def test_fibers_non_integer_part_is_usage_error(capsys):
    code, out, err = run(capsys, "fibers", "--I", "7.5,2,2", "--a", "6", "--b", "4")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_cli_import_leaves_multiprocessing_unloaded():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(cli.__file__).resolve().parents[1])
    # a command loads only what it runs: no command here needs the process
    # pool, CSV or dataclasses, only --format json needs JSON, and each loads
    # only its own modules
    probe = ("import sys, csfkit.cli\n"
             "unused = ('multiprocessing', 'concurrent.futures.process',\n"
             "          'dataclasses', 'json', 'csv')\n"
             "print(sorted(m for m in unused if m in sys.modules))\n"
             "try:\n"
             "    csfkit.cli.main(sys.argv[1:])\n"
             "except SystemExit:\n"
             "    pass\n"
             "print(sorted(m for m in unused if m in sys.modules))\n"
             "print(' '.join(sorted(m[7:] for m in sys.modules if m.startswith('csfkit.'))))\n"
             "print('fractions' in sys.modules)")
    composition = "cli coefficients compositions errors"
    # no command loads fractions: only a Fraction coefficient needs it; no
    # closed form loads coefficients, theta's c-prime form included
    closed_form = "cli compositions errors graphs symfunc"
    for argv, loaded in (
        (("--help",), "cli errors"),
        (("fibers", "--I", "7,2,2", "--a", "6", "--b", "4"), composition),
        (("verify", "--suite", "phi-involution", "--n", "5"), f"{composition} verify"),
        (("verify", "--suite", "positivity", "--n-max", "5"), f"{composition} verify"),
        (("verify", "--suite", "c-doubleprime", "--a-max", "3", "--b-max", "3"),
         f"{composition} verify"),
        (("oracle-check", "--family", "path", "--n", "5"), closed_form),
        (("expand", "--family", "clock", "--a", "6", "--b", "4", "--format", "json"),
         closed_form),
        (("expand", "--family", "theta", "--a", "4", "--b", "3", "--c", "2", "--variant",
          "c-prime"), closed_form),
    ):
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                             capture_output=True, text=True, check=True).stdout
        lines = out.splitlines()
        assert lines[0] == "[]", (argv, out)
        assert lines[-3] == ("['json']" if "json" in argv else "[]"), (argv, out)
        assert lines[-2] == loaded, (argv, out)
        assert lines[-1] == "False", (argv, out)
        if argv[0] == "oracle-check":
            assert lines[1].startswith("OK path (5,)")


def test_failing_c_doubleprime_run_leaves_symfunc_unloaded():
    import os
    import subprocess
    import sys
    from pathlib import Path

    # a failed regrouping is worded from the task's own two sums
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = ("import sys\n"
             "from unittest import mock\n"
             "import csfkit.verify as verify\n"
             "body = verify._c_doubleprime_parts\n"
             "with mock.patch.object(verify, '_c_doubleprime_parts',\n"
             "                       lambda *args: body(*args) + 1):\n"
             "    result = verify.run_c_doubleprime(5, 3, 20)\n"
             "print(len(result.violations), result.violations[-1].split(':')[0])\n"
             "print('csfkit.symfunc' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [
        "7 fiber regrouping disagrees with the clock expansion at (a,b)=(5,3)", "False"]


def test_bad_clock_pair_is_usage_error_before_any_output(capsys):
    for argv in (("fibers", "--I", "7,2,2", "--a", "4", "--b", "6"),
                 ("verify", "--suite", "fiber", "--a", "4", "--b", "6")):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and "a >= b >= 2" in err
    with pytest.raises(ValueError):
        run_fiber([11], 4, 6)


def test_verify_bounds_workers_and_count(capsys):
    for flag, value, expected in (("--workers", "0", 2), ("--workers", "-3", 2),
                                  ("--count", "-5", 2),
                                  ("--count", str(cli.MAX_INSTANCE_COUNT + 1), 3)):
        code, out, err = run(capsys, "verify", "--suite", "triple-deletion",
                             flag, value)
        assert code == expected, (flag, value)
        assert out == ""
        assert len(err.splitlines()) == 1 and flag in err


def test_run_suite_bounds_workers_and_count():
    # the library entry point holds the same bounds as the CLI
    with pytest.raises(ValueError, match="--count"):
        run_suite("triple-deletion", 20, count=-5)
    with pytest.raises(ResourceLimitError, match="--count"):
        run_suite("triple-deletion", 20, count=MAX_INSTANCE_COUNT + 1)
    with pytest.raises(ValueError, match="--workers"):
        run_suite("c-doubleprime", 20, workers=0)
    with pytest.raises(ValueError, match="--workers"):
        run_suite("positivity", 20, workers=-3)
    with pytest.raises(ValueError, match="^unknown suite 'nope'; expected one of "):
        run_suite("nope", 20)


def test_c_doubleprime_notes_dropped_pairs_on_stderr(capsys, monkeypatch):
    monkeypatch.delenv("CSFKIT_MAX_N", raising=False)
    # (10, 10) has n = 21, above the default budget 20: swept 44 of 45 pairs
    code, out, err = run(capsys, "verify", "--suite", "c-doubleprime",
                         "--a-max", "10", "--b-max", "10")
    assert code == 0 and "pairs swept: 44" in out
    assert err == "note: skipped 1 pair(s) with a+b+1 above the degree budget 20\n"
    code, _, err = run(capsys, "verify", "--suite", "c-doubleprime",
                       "--a-max", "5", "--b-max", "5")
    assert (code, err) == (0, "")


def test_c_doubleprime_counts_the_pairs_above_the_budget_without_listing_them(monkeypatch):
    # a million-wide request at budget 5 sweeps (2, 2) alone, at once
    result = run_c_doubleprime(10**6, 10**6, 5)
    assert result.notes == ["pairs swept: 1"] and result.ok
    assert result.stderr_notes == [
        "skipped 499999499999 pair(s) with a+b+1 above the degree budget 5"]
    # the count is that of the listed pairs a >= b >= 2 above the budget
    for a_max in range(-1, 10):
        for b_max in range(-1, 10):
            requested = [(a, b) for a in range(2, a_max + 1) for b in range(2, min(a, b_max) + 1)]
            skipped = sum(a + b + 1 > 7 for a, b in requested)
            notes = run_c_doubleprime(a_max, b_max, 7).stderr_notes
            assert notes == ([f"skipped {skipped} pair(s) with a+b+1 above the degree budget 7"]
                             if skipped else []), (a_max, b_max)
    # each task holds the clock pairs of its degree inside the box, a ascending:
    # the grid a >= b >= 2, a <= a_max, b <= b_max, a + b + 1 <= n_cap, by degree
    import csfkit.verify as verify

    tasks = []
    monkeypatch.setattr(verify, "_cdp_task", lambda task: tasks.append(task) or (0, []))
    for a_max in range(-1, 11):
        for b_max in range(-1, 11):
            for n_cap in range(3, 15):
                pairs = [(a, b) for a in range(2, min(a_max, n_cap - 3) + 1)
                         for b in range(2, min(a, b_max, n_cap - 1 - a) + 1)]
                grid = [(n, tuple(p for p in pairs if sum(p) + 1 == n))
                        for n in sorted({sum(p) + 1 for p in pairs})]
                tasks.clear()
                notes = run_c_doubleprime(a_max, b_max, n_cap).notes
                assert (tasks, notes) == (grid, [f"pairs swept: {len(pairs)}"]), (
                    a_max, b_max, n_cap)

    # a box that reaches degree 65 is refused before any pair is swept
    def unreachable(task):
        raise AssertionError(f"task {task[0]} ran before the degree check")

    monkeypatch.setattr(verify, "_cdp_task", unreachable)
    for bound in (100, 10**5):
        with pytest.raises(ValueError, match=r"^n 65 exceeds the supported bound 64$"):
            run_c_doubleprime(bound, bound, bound)
    monkeypatch.undo()
    assert run_c_doubleprime(3, 100, 100).notes == ["pairs swept: 3"]
    assert run_c_doubleprime(5, 3, 100).notes == ["pairs swept: 7"]


def test_workers_clamped_to_cpu_count(capsys, monkeypatch):
    import concurrent.futures
    import os

    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    argv = ("verify", "--suite", "c-doubleprime", "--a-max", "4", "--b-max", "4")
    code, out, _ = run(capsys, *argv, "--workers", "64")
    assert code == 0 and pools == [3]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert run(capsys, *argv, "--workers", "64") == (0, out, "")
    assert pools == [3]  # one CPU: no pool at all


def test_output_independent_of_worker_count(capsys):
    for argv in (("verify", "--suite", "c-doubleprime", "--a-max", "6", "--b-max", "5"),
                 ("verify", "--suite", "positivity", "--n-max", "9")):
        serial = run(capsys, *argv, "--workers", "1")
        pooled = run(capsys, *argv, "--workers", "2")
        assert serial[0] == 0
        assert pooled == serial


def test_suites_are_the_suite_table():
    from csfkit.verify import SUITE_TABLE, SUITES

    assert SUITES == tuple(SUITE_TABLE)
    # the parser's copy, which spares every other command loading verify
    assert cli.SUITES == SUITES


def test_parser_names_are_the_family_table():
    from csfkit.graphs import FAMILIES, FAMILY_TABLE

    # the parser's copies, which spare --help and the other commands loading graphs
    assert cli.FAMILIES == FAMILIES == tuple(FAMILY_TABLE)
    assert cli.THETA_FORMS == tuple(FAMILY_TABLE["theta"].forms)
    assert cli.CYCLE_CHORD_FORMS == tuple(FAMILY_TABLE["cycle-chord"].forms)


def test_every_verify_flag_is_read_by_a_suite_and_every_runner_takes_its_flags():
    import inspect

    from csfkit.verify import SUITE_TABLE, suite_flags

    read = {key for name in SUITE_TABLE for key in suite_flags(name)}
    assert read == set(cli.VERIFY_FLAGS)
    for name, run_suite in SUITE_TABLE.items():
        params = tuple(inspect.signature(run_suite).parameters)
        assert params == ("budget",) + suite_flags(name), name


def test_verify_rejects_every_flag_a_suite_does_not_read(capsys):
    from csfkit.verify import SUITE_TABLE, suite_flags

    for name in SUITE_TABLE:
        for key in cli.VERIFY_FLAGS:
            if key in suite_flags(name):
                continue
            flag = f"--{key.replace('_', '-')}"
            code, out, err = run(capsys, "verify", "--suite", name, flag, "3")
            assert code == 2, (name, flag)
            assert out == ""
            assert len(err.splitlines()) == 1
            assert f"suite {name} does not read {flag}" in err


def test_verify_refuses_flags_it_would_have_ignored(capsys):
    for argv, flags in ((("--suite", "positivity", "--n", "18"), "--n"),
                        (("--suite", "positivity", "--a", "3", "--b", "7"), "--a, --b")):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2, argv
        assert out == ""
        assert err == f"error: suite positivity does not read {flags}\n"
    for flag in ("--a", "--b"):
        code, out, err = run(capsys, "verify", "--suite", "fiber", flag, "6")
        assert code == 2
        assert out == ""
        assert err == "error: suite fiber reads --a and --b only together\n"


# each suite's defaults as README's suite table gives them
DOCUMENTED_DEFAULTS = {
    "phi-involution": ("--n-max", "10"),
    "theta-duality": ("--n-max", "10"),
    "lemma-bounds": ("--n-max", "10"),
    "fiber": ("--n-max", "10"),
    "c-doubleprime": ("--a-max", "8", "--b-max", "8", "--workers", "1"),
    "positivity": ("--n-max", "14", "--workers", "1"),
    "triple-deletion": ("--count", "25", "--seed", "2024"),
}


@pytest.mark.parametrize("suite", SUITES)
def test_verify_defaults_equal_the_documented_values(capsys, suite):
    # every suite at its defaults exits 0 and finds no violation
    implicit = run(capsys, "verify", "--suite", suite)
    assert implicit[0] == 0 and implicit[1].endswith(" VIOLATIONS 0\n"), implicit
    assert implicit == run(capsys, "verify", "--suite", suite, *DOCUMENTED_DEFAULTS[suite])


def test_budget_env_is_bounded_by_the_largest_modulus(capsys, monkeypatch):
    from csfkit.compositions import MAX_MODULUS

    for raw in ("0", "-3", str(MAX_MODULUS + 1)):
        monkeypatch.setenv("CSFKIT_MAX_N", raw)
        for argv in (("expand", "--family", "path", "--n", "3"),
                     ("verify", "--suite", "fiber", "--a", "6", "--b", "4")):
            code, out, err = run(capsys, *argv)
            assert code == 2, (raw, argv)
            assert out == ""
            assert err == f"error: CSFKIT_MAX_N must be between 1 and 64, got {raw}\n"
    monkeypatch.setenv("CSFKIT_MAX_N", str(MAX_MODULUS))
    code, out, _ = run(capsys, "verify", "--suite", "fiber", "--a", "6", "--b", "4")
    assert code == 0 and out.endswith("VIOLATIONS 0\n")
    assert run(capsys, "expand", "--family", "path", "--n", "3")[0] == 0


def test_budget_env_is_ascii_digits_after_an_optional_minus(capsys, monkeypatch):
    # int() alone would run "1_0" with budget 10, and "+12" or Arabic-Indic
    # digits with budget 12
    for raw in ("1_0", "+12", "\u0661\u0662", "1.0", "--3", "-", "12a", "0x10"):
        monkeypatch.setenv("CSFKIT_MAX_N", raw)
        code, out, err = run(capsys, "expand", "--family", "path", "--n", "3")
        assert (code, out) == (2, ""), raw
        assert err == f"error: CSFKIT_MAX_N must be an integer, got {raw!r}\n"
    for raw, budget in ((" 12 ", 12), ("07", 7)):
        monkeypatch.setenv("CSFKIT_MAX_N", raw)
        assert cli._n_budget() == budget


def test_closed_pipe_exits_1_without_a_traceback():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("CSFKIT_MAX_N", None)
    # a long output breaks inside the handler, a short one at the final flush
    for argv in (("expand", "--family", "path", "--n", "20"),
                 ("expand", "--family", "path", "--n", "3")):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "csfkit", *argv], env=env,
                                  stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert proc.returncode == 1, argv
        assert proc.stderr == b"", proc.stderr.decode()


def test_verify_refuses_a_range_that_checks_nothing(capsys, monkeypatch):
    for argv, lowest in ((("--suite", "phi-involution", "--n-max", "0"), "n = 1"),
                         (("--suite", "phi-involution", "--n", "0"), "n = 1"),
                         (("--suite", "theta-duality", "--n-max", "-1"), "n = 1"),
                         (("--suite", "lemma-bounds", "--n", "2"), "n = 3"),
                         (("--suite", "lemma-bounds", "--n-max", "4"), "n = 5"),
                         (("--suite", "fiber", "--n", "4"), "n = 5"),
                         (("--suite", "positivity", "--n-max", "3"), "n = 4"),
                         (("--suite", "c-doubleprime", "--a-max", "1"), "(a,b) = (2,2)"),
                         (("--suite", "c-doubleprime", "--b-max", "1"), "(a,b) = (2,2)")):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2, argv
        assert out == ""
        assert len(err.splitlines()) == 1 and f"{argv[-2]} {argv[-1]} checks nothing" in err
        assert err.rstrip().endswith(f"starts at {lowest}"), err
    # the lowest degree or pair itself still runs and checks something
    for argv in (("--suite", "phi-involution", "--n-max", "1"),
                 ("--suite", "lemma-bounds", "--n", "3"),
                 ("--suite", "positivity", "--n-max", "4"),
                 ("--suite", "c-doubleprime", "--a-max", "2", "--b-max", "2")):
        code, out, _ = run(capsys, "verify", *argv)
        assert code == 0, argv
        assert "CHECKED 0 " not in out
    # both given, --n runs alone: above --n-max it would run a degree outside
    # the range asked
    for suite, n, n_max in (("phi-involution", "6", "3"), ("theta-duality", "4", "2"),
                            ("lemma-bounds", "6", "5"), ("fiber", "11", "5")):
        code, out, err = run(capsys, "verify", "--suite", suite, "--n", n, "--n-max", n_max)
        assert (code, out) == (2, ""), suite
        assert err == f"error: --n-max {n_max} is below --n {n}\n"
    for n_max in ("6", "7"):
        code, out, _ = run(capsys, "verify", "--suite", "phi-involution",
                           "--n", "6", "--n-max", n_max)
        assert (code, out) == (0, "SUITE phi-involution CHECKED 192 VIOLATIONS 0\n")
    # a budget below the lowest pair drops every c-doubleprime pair: exit 3
    monkeypatch.setenv("CSFKIT_MAX_N", "4")
    code, out, err = run(capsys, "verify", "--suite", "c-doubleprime")
    assert (code, out, len(err.splitlines())) == (3, "", 1)


def _phi_rotating_the_interior(parts, moduli, a):
    # keeps the partition, the first part, the weight, the suffix Q and so
    # A-membership, but a second rotation does not undo the first
    cut = max(bisect.bisect_right(moduli, moduli[-1] - a) - 1, 1)
    interior = parts[1:cut]
    return parts[:1] + interior[1:] + interior[:1] + parts[cut:]


# (suite, verify flags, module and name of the kernel it reads, a broken
# stand-in, the start of its first violation); the last two rows each trip one
# check alone: the involution check, and the grouped clock sum at exactly -1
BROKEN_KERNELS = [
    pytest.param("phi-involution", ("--n", "4"), "csfkit.verify", "_phi_parts",
                 lambda parts, moduli, a: (1, *parts), "phi not an involution at I=1111, a=1",
                 id="phi-involution"),
    pytest.param("theta-duality", ("--n", "4"), "csfkit.verify", "_theta_plus",
                 lambda moduli, a: -1, "undershoot/overshoot duality fails at I=1111, a=0",
                 id="theta-duality"),
    pytest.param("lemma-bounds", ("--n", "5"), "csfkit.verify", "_theta_minus",
                 lambda moduli, a: -1, "i_p - s mismatch with reversed undershoot at I=11111",
                 id="lemma-bounds"),
    pytest.param("fiber", ("--n", "7"), "csfkit.verify", "_psi_parts",
                 lambda parts, moduli, a: parts, "fiber element 232 does not map back to 322",
                 id="fiber"),
    pytest.param("c-doubleprime", ("--a-max", "2", "--b-max", "2", "--workers", "1"),
                 "csfkit.verify", "_c_doubleprime_parts", lambda parts, p, q, term: -1,
                 "fiber-grouped coefficient -1 < 0 at I=32, (a,b)=(2,2)", id="c-doubleprime"),
    pytest.param("positivity", ("--n-max", "4", "--workers", "1"), "csfkit.verify",
                 "_theta_coeff", lambda a, b, c, twisted: lambda parts, moduli: -1,
                 "negative cycle-chord term at I=13, (a,b)=(2,2)", id="positivity"),
    pytest.param("triple-deletion", ("--count", "2"), "csfkit.graphs", "verify_triple_deletion",
                 lambda graph, triple: False, "deletion identities fail on instance 0",
                 id="triple-deletion"),
    pytest.param("phi-involution", ("--n", "6"), "csfkit.verify", "_phi_parts",
                 _phi_rotating_the_interior, "phi not an involution at I=11121, a=1",
                 id="phi-involution-not-an-involution"),
    pytest.param("positivity", ("--n-max", "5", "--workers", "1"), "csfkit.verify",
                 "_theta_coeff",
                 lambda a, b, c, twisted: (_theta_coeff(a, b, c, twisted) if c == 1
                                           else lambda parts, moduli: -(parts == (1, 2, 2))),
                 "negative grouped coefficient for clock (a,b)=(2,2): ['221']",
                 id="positivity-one-grouped-clock-coefficient-minus-1"),
]


@pytest.mark.parametrize("suite, argv, module, name, broken, first", BROKEN_KERNELS)
def test_every_suite_reports_a_broken_kernel(capsys, monkeypatch, suite, argv, module, name,
                                             broken, first):
    monkeypatch.setattr(importlib.import_module(module), name, broken)
    flags = {argv[k][2:].replace("-", "_"): int(argv[k + 1]) for k in range(0, len(argv), 2)}
    result = run_suite(suite, 20, **flags)
    assert result.checked > 0 and result.violations and not result.ok
    assert result.violations[0].startswith(first), result.violations[0]
    code, out, err = run(capsys, "verify", "--suite", suite, *argv)
    assert (code, err) == (1, "")
    lines = out.splitlines()
    reported = [line for line in lines if line.startswith("VIOLATION: ")]
    assert reported == [f"VIOLATION: {message}" for message in result.violations]
    assert lines[-1] == (f"SUITE {suite} CHECKED {result.checked} "
                         f"VIOLATIONS {len(result.violations)}")
    assert lines[-1 - len(reported):-1] == reported


def test_no_passing_sweep_formats_a_composition(monkeypatch):
    # a composition is formatted only inside a failure message
    import csfkit.verify as verify

    calls = []
    real = verify.format_parts
    monkeypatch.setattr(verify, "format_parts", lambda parts: calls.append(parts) or real(parts))
    for sweep in (lambda: verify.run_phi_involution([8]), lambda: verify.run_theta_duality([8]),
                  lambda: run_lemma_bounds(range(3, 11)), lambda: run_fiber(range(5, 11)),
                  lambda: run_c_doubleprime(6, 6, 13), lambda: run_positivity(10),
                  lambda: run_triple_deletion(3, 1)):
        result = sweep()
        assert result.ok and calls == [], result.name


def _c2_minus(theta_coeff, shift):
    # every c = 2 kernel, twisted or not, less shift(parts)
    def broken(a, b, c, twisted):
        kernel = theta_coeff(a, b, c, twisted)
        return kernel if c != 2 else lambda parts, moduli: kernel(parts, moduli) - shift(parts)
    return broken


def _q_plus_1(solve):
    def broken(parts, moduli, b):
        p, s, q, t = solve(parts, moduli, b)
        return p, s, min(q + 1, len(parts)), t
    return broken


# Each lemma-bounds branch under one broken kernel, pinned at n = 7 and 8:
# (checked, violations, sha256 of the joined violations, first violation).
# Each entry maps the kernel in csfkit.verify to its broken version.
LEMMA_BOUNDS_MUTATIONS = {
    "c2-kernel-minus-4": ("_theta_coeff", lambda theta: _c2_minus(theta, lambda parts: 4), {
        7: (357, 31, "6a60aefe96c17820bba4ed5b7fd65a85d0b09d47f33304a57d1ed428bae7ed41",
            "first-part-1 coefficient negative at I=1222"),
        8: (833, 46, "e1066b34e6ca6c5af1c539b5e522a3b76559a1ab48f140ded2cc2efadf00636d",
            "first-part-1 coefficient negative at I=1223"),
    }),
    "first-part-1-minus-9": ("_theta_coeff",
                             lambda theta: _c2_minus(theta, lambda parts: 9 * (parts[0] == 1)), {
        7: (357, 13, "c92ca9ef8630dd77a09907996a0b607f745afeaa6a506fa7ba42c4a91bc3aa07",
            "first-part-1 coefficient negative at I=1222"),
        8: (832, 19, "3554634ee72b8046b0b11ea290ef24e14df46e19fe3fe227272a6c637d1faf70",
            "first-part-1 coefficient negative at I=1223"),
    }),
    "delta-plus-1": ("_delta_parts", lambda delta: lambda parts, sol: delta(parts, sol) + 1, {
        7: (357, 1, "38df4962bcd82c6334f7d91fdfe3e8733958557261756f886435c092a24f8dac",
            "c' below its delta term at I=223, (a,b,c)=(3,3,2)"),
        8: (832, 4, "dea5b22ab2259969704fab2d01857c52d2e12cae853bba9827525d8f37f443e7",
            "c' below its delta term at I=1223, (a,b,c)=(3,3,3)"),
    }),
    "q-plus-1": ("_solve_psqt_parts", _q_plus_1, {
        7: (357, 51, "b863ee0d2cd86c73336877c525401c0f55c7041c19fc57f968bfe9468fed981f",
            "|i_p..i_q| != i_1 + s - t at I=1111111, b=1"),
        8: (832, 51, "46b121151e106df8b299c6a9e562c6d78be7f50713feb086602b394bb7cdd0ab",
            "|i_p..i_q| != i_1 + s - t at I=11111111, b=1"),
    }),
}


@pytest.mark.parametrize("mutation", LEMMA_BOUNDS_MUTATIONS)
def test_lemma_bounds_failing_output_is_pinned_per_branch(monkeypatch, mutation):
    import hashlib

    import csfkit.verify as verify

    name, broken, pins = LEMMA_BOUNDS_MUTATIONS[mutation]
    monkeypatch.setattr(verify, name, broken(getattr(verify, name)))
    for n, (checked, count, digest, first) in pins.items():
        result = run_lemma_bounds([n])
        assert (result.checked, len(result.violations)) == (checked, count), n
        assert hashlib.sha256("\n".join(result.violations).encode()).hexdigest() == digest, n
        assert result.violations[0] == first, n


def _fiber_patch(change):
    # every fiber the sweep computes, changed by change(I, fiber)
    return "_fiber_parts", lambda fiber_parts: (
        lambda parts, p, q: change(parts, fiber_parts(parts, p, q)))


def _q_minus_2(solve):
    def broken(parts, moduli, b):
        p, s, q, t = solve(parts, moduli, b)
        return p, s, q - 2, t
    return broken


def _negative_on_w_le(theta_coeff):
    # each pair's kernel reads -1 on W_<=: first part >= 2 and not in W_>
    def broken(a, b, c, twisted):
        kernel = theta_coeff(a, b, c, twisted)
        return lambda parts, moduli: (-1 if parts[0] >= 2 and not _in_w_gt(parts, moduli, a)
                                      else kernel(parts, moduli))
    return broken


# One patch in csfkit.<module> per failure message that no passing run
# reaches: (module, name, patch, run, checked, violation count, one message).
FAILURE_MESSAGES = {
    "fiber not in W_<=": ("verify", *_fiber_patch(lambda I, fiber: fiber + [I]),
                          lambda: run_fiber([11]), 278, 51,
                          "fiber element 22223 of 22223 is not in W_<="),
    "fiber changes the partition": (
        "verify", *_fiber_patch(lambda I, fiber: [H[:-1] + (H[-1] + 1,) for H in fiber]),
        lambda: run_fiber([11]), 114, 51, "fiber element 23223 changes the partition of 32222"),
    "fiber wrong suffix split": (
        "verify", "_split_cut", lambda cut: lambda moduli, a: cut(moduli, a) + 1,
        lambda: run_fiber([11]), 114, 42, "fiber element 23222 has the wrong suffix split"),
    "fiber appears twice": ("verify", *_fiber_patch(lambda I, fiber: fiber * 2),
                            lambda: run_fiber([11]), 170, 51,
                            "23222 appears in two fibers: 32222 and 32222"),
    "fiber fixture mismatch": (
        "verify", "_theta_coeff", lambda theta: _c2_minus(theta, lambda parts: 1),
        lambda: run_fiber([11]), 114, 2,
        "fixture fiber mismatch at I=5222: got (((2, 5, 2, 2), -3), ((2, 2, 5, 2), -3)), "
        "want (((2, 5, 2, 2), -2), ((2, 2, 5, 2), -2))"),
    "fiber missing element": ("verify", *_fiber_patch(lambda I, fiber: fiber[:-1]),
                              lambda: run_fiber([11]), 63, 51,
                              "23222 missing from the fiber of its image 32222"),
    "lemma-bounds q < p - 1": ("verify", "_solve_psqt_parts", _q_minus_2,
                               lambda: run_lemma_bounds([7]), 353, 51,
                               "q < p - 1 at I=1111111, b=1"),
    "lemma-bounds negative W_<=": (
        "verify", "_theta_coeff", _negative_on_w_le, lambda: run_lemma_bounds([9]), 1949, 15,
        "negative W_<= coefficient with s=3 at I=27"),
    "triple-deletion four-graph identity": (
        "graphs", "build_tadpole", lambda tadpole: lambda a, l: tadpole(a + 1, l - 1),
        lambda: run_triple_deletion(0, 1), 2, 1,
        "four-graph deletion identity fails at (3,3,3)"),
}


@pytest.mark.parametrize("kind", FAILURE_MESSAGES)
def test_every_verify_failure_message_is_reached(monkeypatch, kind):
    module, name, broken, run_suite_once, checked, count, message = FAILURE_MESSAGES[kind]
    module = importlib.import_module(f"csfkit.{module}")
    monkeypatch.setattr(module, name, broken(getattr(module, name)))
    result = run_suite_once()
    assert (result.checked, len(result.violations)) == (checked, count)
    assert message in result.violations


def test_lemma_bounds_refuses_a_w_le_value_below_minus_2_that_equals_its_closed_form(
        monkeypatch):
    # at (a,b) = (4,2), I = 232 is in W_<= with (p, s) = (2, 1) and D = -2; with
    # s = 2 and D = -3, D equals (s - 1)(i_p - s - i_1) - 2 = -3, so only the
    # bound D >= -2 can fail
    import csfkit.verify as verify

    solve, theta_coeff = verify._solve_psqt_parts, verify._theta_coeff

    def solve_with_s_2(parts, moduli, b):
        p, s, q, t = solve(parts, moduli, b)
        return (p, 2, q, t) if (parts, b) == ((2, 3, 2), 2) else (p, s, q, t)

    def minus_3_at_232(a, b, c, twisted):
        kernel = theta_coeff(a, b, c, twisted)
        if (a, b, c, twisted) != (4, 2, 2, False):
            return kernel
        return lambda parts, moduli: -3 if parts == (2, 3, 2) else kernel(parts, moduli)

    assert solve((2, 3, 2), (0, 2, 5, 7), 2)[:2] == (2, 1)
    assert theta_coeff(4, 2, 2, False)((2, 3, 2), (0, 2, 5, 7)) == -2
    monkeypatch.setattr(verify, "_solve_psqt_parts", solve_with_s_2)
    monkeypatch.setattr(verify, "_theta_coeff", minus_3_at_232)
    violations = run_lemma_bounds([7]).violations
    assert "W_<= closed form fails at I=232, (a,b)=(4,2)" in violations
    assert not [v for v in violations if v.startswith("negative W_<= coefficient")]


def test_lemma_bounds_counts_one_solver_check_per_split():
    # n = 1 and 2 have no split n = a + b + 1 with a, b >= 1
    assert run_lemma_bounds([1]).checked == 0
    assert run_lemma_bounds([1, 2, 3, 4]).checked == 20


def test_violations_past_the_cap_are_suppressed_in_one_line():
    result = SuiteResult("x")
    for k in range(60):
        result.fail(f"v{k}")
    assert len(result.violations) == MAX_REPORTED_VIOLATIONS + 1 == 51
    assert result.violations[:-1] == [f"v{k}" for k in range(50)]
    assert result.violations[-1] == "... further violations suppressed"
    assert not result.ok


def test_pooled_tasks_format_at_most_one_message_past_the_cap(monkeypatch):
    # a task's messages past the cap would only be suppressed on merging
    import csfkit.verify as verify

    monkeypatch.setattr(verify, "_theta_coeff", lambda a, b, c, twisted: lambda parts, moduli: -1)
    monkeypatch.setattr(verify, "_c_doubleprime_parts", lambda parts, p, q, term: -1)
    checked, violations, _ = verify._positivity_task(20)
    assert checked > 0 and len(violations) == MAX_REPORTED_VIOLATIONS + 1
    checked, violations = verify._cdp_task((14, tuple(verify.clock_pairs(14))))
    assert checked > 0 and len(violations) == MAX_REPORTED_VIOLATIONS + 1


def test_library_suites_fail_a_range_that_checks_nothing():
    # the library runners take any range; one that checks nothing is not ok
    for result in (run_fiber([4]), run_lemma_bounds([2]), run_positivity(3),
                   run_c_doubleprime(1, 8, 20)):
        assert result.checked == 0 and not result.violations, result.name
        assert not result.ok, result.name
    assert not SuiteResult("empty").ok
    # each result owns its lists
    first, second = SuiteResult("x"), SuiteResult("x")
    first.fail("v")
    first.notes.append("n")
    first.stderr_notes.append("s")
    assert (second.violations, second.notes, second.stderr_notes) == ([], [], [])
    # the smallest ranges the CLI accepts still check something and pass
    nothing_random = run_triple_deletion(count=0, seed=1)
    assert nothing_random.checked == 2 and nothing_random.ok
    assert run_positivity(4).ok and run_lemma_bounds([3]).ok


def test_each_domain_rule_prints_one_line_at_every_entry_point(capsys):
    from csfkit.coefficients import coeff_c, coeff_c_doubleprime, coeff_D
    from csfkit.graphs import (build_clock, build_cycle, build_cycle_chord, build_path,
                               build_theta, closed_form_clock, closed_form_cycle,
                               closed_form_cycle_chord, closed_form_path, closed_form_theta,
                               expansion_closed_form)

    def message(fn, *args):
        with pytest.raises(ValueError) as info:
            fn(*args)
        return str(info.value)

    # the composition is checked after the parameters, so any one will do
    I = Composition([2, 2, 2])
    for a, b, c in ((2, 1, 1), (3, 4, 2), (3, 3, 0), (1, 1, 1), (5, 3, 4)):
        flags = ("--family", "theta", "--a", str(a), "--b", str(b), "--c", str(c))
        lines = {run(capsys, command, *flags) for command in ("expand", "oracle-check")}
        assert len(lines) == 1, lines
        code, out, err = lines.pop()
        assert (code, out) == (2, "")
        assert err == "error: " + message(coeff_c, I, a, b, c) + "\n"
        assert {message(fn, a, b, c) for fn in (build_theta, closed_form_theta)} == {
            message(coeff_c, I, a, b, c)}
        assert "a >= b >= c >= 1 with b >= 2" in err
    for a, b in ((2, 3), (3, 1), (1, 1), (4, 6)):
        pair = ("--a", str(a), "--b", str(b))
        lines = {run(capsys, *argv) for argv in (
            ("expand", "--family", "clock", *pair),
            ("oracle-check", "--family", "clock", *pair),
            ("fibers", "--I", "7,2,2", *pair),
            ("verify", "--suite", "fiber", *pair),
        )}
        assert len(lines) == 1, lines
        code, out, err = lines.pop()
        assert (code, out) == (2, "")
        assert err == "error: " + message(coeff_D, I, a, b) + "\n"
        assert {message(fn, a, b) for fn in (build_clock, closed_form_clock)} == {
            message(coeff_D, I, a, b)}
        assert message(run_fiber, [a + b + 1], a, b) == message(coeff_D, I, a, b)
        # the clock rule before the fiber's modulus and range rules
        assert message(coeff_c_doubleprime, I, a, b) == message(coeff_D, I, a, b)
        assert "a >= b >= 2" in err
    # --n against a+b+1: the suite function prints the CLI's line
    code, out, err = run(capsys, "verify", "--suite", "fiber", "--n", "12",
                         "--a", "6", "--b", "4")
    assert (code, out) == (2, "")
    assert err == "error: " + message(run_fiber, [12], 6, 4) + "\n"
    # an unknown display label: each closed form prints expansion_closed_form's line
    for family, closed_form, args in (("theta", closed_form_theta, (3, 3, 2)),
                                      ("cycle-chord", closed_form_cycle_chord, (2, 3))):
        params = dict(zip(("a", "b", "c"), args))
        assert message(closed_form, *args, "bad") == message(
            lambda: expansion_closed_form(family, "bad", **params))
    for family, flags, builder, closed_form, args, text in (
        ("path", ("--n", "0"), build_path, closed_form_path, (0,), "path needs n >= 1, got 0"),
        ("path", ("--n", "-2"), build_path, closed_form_path, (-2,),
         "path needs n >= 1, got -2"),
        ("cycle", ("--n", "2"), build_cycle, closed_form_cycle, (2,),
         "cycle needs n >= 3, got 2"),
        ("cycle-chord", ("--a", "1", "--b", "3"), build_cycle_chord, closed_form_cycle_chord,
         (1, 3), "cycle-chord needs a, b >= 2, got (1, 3)"),
        ("cycle-chord", ("--a", "4", "--b", "1"), build_cycle_chord, closed_form_cycle_chord,
         (4, 1), "cycle-chord needs a, b >= 2, got (4, 1)"),
    ):
        lines = {run(capsys, command, "--family", family, *flags)
                 for command in ("expand", "oracle-check")}
        assert lines == {(2, "", f"error: {text}\n")}
        assert {message(builder, *args), message(closed_form, *args)} == {text}


def test_run_fiber_refuses_half_a_pair():
    # half a pair is refused, not read as no pair
    for half in ({"a": 6}, {"b": 4}):
        with pytest.raises(ValueError, match="only together"):
            run_fiber([11], **half)
    assert run_fiber([11], 6, 4).checked == 32
    with pytest.raises(ValueError, match="a\\+b\\+1"):
        run_fiber([12], 6, 4)


def test_family_flags_are_the_family_parameters():
    from csfkit.graphs import FAMILY_TABLE

    assert len(set(cli.FAMILY_FLAGS)) == len(cli.FAMILY_FLAGS)
    params = {name for family in FAMILY_TABLE.values() for name in family.params}
    assert set(cli.FAMILY_FLAGS) == params

