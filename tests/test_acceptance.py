"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a PASS line on success (visible with ``pytest -s``); the
test name itself doubles as the criterion label under ``pytest -v``.
"""

import time

import pytest

from csfkit.coefficients import (
    WClass,
    classify,
    coeff_c,
    coeff_c_prime,
    coeff_D,
    fiber,
)
from csfkit.compositions import Composition, weight_positive_compositions
from csfkit.graphs import (
    FAMILIES,
    FAMILY_TABLE,
    MAX_ORACLE_EDGES,
    build_clock,
    build_cycle,
    build_cycle_chord,
    build_family_graph,
    build_path,
    build_tadpole,
    build_theta,
    closed_form_clock,
    closed_form_cycle,
    closed_form_cycle_chord,
    closed_form_path,
    closed_form_tadpole,
    closed_form_theta,
    csf_pbasis,
    e_positivity_report,
    expansion_closed_form,
    family_degree,
)
from csfkit.symfunc import Basis, BasisVector, evector_to_p, pvector_to_e
from csfkit.verify import (
    clock_pairs,
    run_c_doubleprime,
    run_fiber,
    run_lemma_bounds,
    run_phi_involution,
    run_positivity,
    run_theta_duality,
    run_triple_deletion,
    theta_triples,
)

C = Composition


def _passed(label):
    print(f"ACCEPTANCE {label}: PASS")


def test_acceptance_oracle_paths_and_cycles():
    started = time.monotonic()
    for n in range(3, 13):
        path = evector_to_p(closed_form_path(n).grouped_by_rho())
        assert path.equals(csf_pbasis(build_path(n))), f"path n={n}"
        cycle = evector_to_p(closed_form_cycle(n).grouped_by_rho())
        assert cycle.equals(csf_pbasis(build_cycle(n))), f"cycle n={n}"
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"paths/cycles oracle sweep took {elapsed:.1f}s"
    _passed("oracle equivalence, paths and cycles (n <= 12)")


def test_acceptance_oracle_tadpoles():
    for a in range(3, 13):
        for l in range(0, 13 - a):
            expansion = evector_to_p(closed_form_tadpole(a, l).grouped_by_rho())
            assert expansion.equals(csf_pbasis(build_tadpole(a, l))), (a, l)
    # end-of-range reductions of the same formula
    for n in range(3, 13):
        assert closed_form_tadpole(n, 0).grouped_by_rho().equals(
            closed_form_cycle(n).grouped_by_rho()
        ), f"tail 0 vs cycle at n={n}"
        assert closed_form_tadpole(2, n - 2).grouped_by_rho().equals(
            closed_form_path(n).grouped_by_rho()
        ), f"tail n-2 vs path at n={n}"
    _passed("oracle equivalence, tadpoles (a + l <= 12) and end reductions")


def test_acceptance_oracle_cycle_chords():
    for total in range(4, 13):
        for a in range(2, total - 1):
            b = total - a
            if b < 2:
                continue
            delta_form = closed_form_cycle_chord(a, b, form="delta").grouped_by_rho()
            theta_sum = closed_form_cycle_chord(a, b, form="theta-sum").grouped_by_rho()
            assert delta_form.equals(theta_sum), f"forms differ at ({a},{b})"
            oracle = csf_pbasis(build_cycle_chord(a, b))
            assert evector_to_p(delta_form).equals(oracle), f"oracle differs at ({a},{b})"
    _passed("oracle equivalence, cycle-chords, both forms (a + b <= 12)")


def test_acceptance_oracle_thetas():
    for n in range(4, 13):
        for a, b, c in theta_triples(n):
            oracle = csf_pbasis(build_theta(a, b, c))
            plain = closed_form_theta(a, b, c, variant="c").grouped_by_rho()
            assert evector_to_p(plain).equals(oracle), f"oracle differs at ({a},{b},{c})"
    _passed("oracle equivalence, thetas (n <= 12)")


def _instance(family, n):
    # one instance of degree n, with its paths or parts as even as allowed
    if family in ("path", "cycle"):
        return {"n": n}
    if family == "tadpole":
        return {"a": n - n // 3, "l": n // 3}
    if family == "cycle-chord":
        return {"a": (n + 1) // 2, "b": n // 2}
    if family == "theta":
        c = (n + 1) // 3
        b = (n + 1 - c) // 2
        return {"a": n + 1 - b - c, "b": b, "c": c}
    return {"a": n // 2, "b": n - 1 - n // 2}  # clock


# the degree at which each family's graph has MAX_ORACLE_EDGES edges
CAP_DEGREE = {"path": 31, "cycle": 30, "tadpole": 30, "cycle-chord": 29, "theta": 29, "clock": 29}


@pytest.mark.parametrize("family", FAMILIES)
def test_acceptance_oracle_e_basis_degrees_13_to_20(family):
    # one instance per n = 13..20, then the instance at the oracle's edge cap
    for n in (*range(13, 21), CAP_DEGREE[family]):
        params = _instance(family, n)
        assert family_degree(family, **params) == n
        graph = build_family_graph(family, **params)
        oracle = pvector_to_e(csf_pbasis(graph))
        for form in FAMILY_TABLE[family].forms:
            grouped = expansion_closed_form(family, form=form, **params).grouped_by_rho()
            assert grouped.equals(oracle), (params, form)
    assert graph.edge_count == MAX_ORACLE_EDGES, params
    _passed(f"oracle equivalence in the e-basis, {family}, one instance per n = 13..20 "
            f"and at {MAX_ORACLE_EDGES} edges")


def test_acceptance_clock_e_positivity():
    started = time.monotonic()
    for n in range(5, 19):
        for a, b in clock_pairs(n):
            report = e_positivity_report(closed_form_clock(a, b))
            assert report.is_e_positive, (
                f"negative coefficient at (a,b)=({a},{b}): {report.negative_partitions}"
            )
    for n in range(5, 13):
        for a, b in clock_pairs(n):
            grouped = closed_form_clock(a, b).grouped_by_rho()
            assert evector_to_p(grouped).equals(csf_pbasis(build_clock(a, b))), (a, b)
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"clock sweep took {elapsed:.1f}s"
    _passed("clock e-positivity (n <= 18) with oracle equality (n <= 12)")


def test_acceptance_positivity_n18():
    # every clock to n = 18 grouped, and every cycle-chord to n = 18 grouped
    # and term by term, at one and at two workers
    results = [run_positivity(18), run_positivity(18, workers=2)]
    for result in results:
        assert result.ok, result.violations[:5]
        assert result.checked == 67628
        assert result.notes == ["expansions swept: 176", "smallest grouped coefficient: 1"]
    _passed("positivity suite to n=18 with exact checked counts at 1 and 2 workers")


def test_acceptance_worked_examples():
    # (a, b) = (2, 2), I = 32
    kind = classify(C((3, 2)), 2)
    assert kind.wclass is WClass.W_GT and kind.in_A
    assert fiber(C((3, 2)), 2, 2) == [C((2, 3))]
    assert coeff_D(C((3, 2)), 2, 2) == 3
    # (a, b) = (3, 2), I = 42
    kind = classify(C((4, 2)), 3)
    assert kind.wclass is WClass.W_GT and not kind.in_A
    assert fiber(C((4, 2)), 3, 2) == [C((2, 4))]
    assert coeff_D(C((4, 2)), 3, 2) == 6
    # (a, b) = (6, 4), I = 722
    assert fiber(C((7, 2, 2)), 6, 4) == [C((2, 7, 2)), C((2, 2, 7))]
    assert coeff_D(C((2, 7, 2)), 6, 4) == 2
    assert coeff_D(C((2, 2, 7)), 6, 4) == -2
    # (a, b) = (6, 4), I = 5222
    assert fiber(C((5, 2, 2, 2)), 6, 4) == [C((2, 5, 2, 2)), C((2, 2, 5, 2))]
    assert coeff_D(C((2, 5, 2, 2)), 6, 4) == -2
    assert coeff_D(C((2, 2, 5, 2)), 6, 4) == -2
    _passed("worked fiber and coefficient examples reproduced exactly")


def test_acceptance_structural_suites_exhaustive():
    results = [
        run_phi_involution(range(1, 13)),
        run_theta_duality(range(1, 13)),
        run_lemma_bounds(range(5, 13)),
        run_fiber(range(5, 13)),
        run_c_doubleprime(a_max=13, b_max=13, n_cap=16),
    ]
    for result in results:
        assert result.checked > 0
        assert result.ok, f"{result.name}: {result.violations[:5]}"
    # grouped sums over the exact-suffix family agree for both theta
    # coefficient variants
    for n in range(5, 13):
        for a, b, c in theta_triples(n, min_c=2):
            plain = {}
            twisted = {}
            for I in weight_positive_compositions(n):
                if I.reversed().theta_plus(a) != 0:
                    continue
                lam = I.rho()
                plain[lam] = plain.get(lam, 0) + coeff_c(I, a, b, c) * I.weight
                twisted[lam] = twisted.get(lam, 0) + coeff_c_prime(I, a, b, c) * I.weight
            lhs = BasisVector(Basis.E, n, plain)
            rhs = BasisVector(Basis.E, n, twisted)
            assert lhs.equals(rhs), f"exact-suffix grouped sums differ at ({a},{b},{c})"
    _passed("structural sweeps exhaustive to n=12 (n=16 for fiber-grouped sums)")


def test_acceptance_structural_suites_n13_to_16():
    expected = [
        (run_phi_involution([13]), 53248),
        (run_theta_duality([13, 14]), 180224),
        (run_lemma_bounds([13]), 47011),
        (run_fiber(range(13, 17)), 4060),
        (run_c_doubleprime(a_max=14, b_max=14, n_cap=17), 11510),
    ]
    for result, checked in expected:
        assert result.ok, f"{result.name}: {result.violations[:5]}"
        assert result.checked == checked, result.name
    _passed("structural sweeps at n=13..16 with exact checked counts")


def test_acceptance_structural_suites_n14():
    phi_result = run_phi_involution([14])
    bounds = run_lemma_bounds([14])
    for result, checked in ((phi_result, 114688), (bounds, 101671)):
        assert result.ok, f"{result.name}: {result.violations[:5]}"
        assert result.checked == checked, result.name
    assert bounds.notes == [
        "W<=: 300",
        "W> q=p: 597",
        "W> q>p exact-suffix: 114",
        "W> q>p no-exact-suffix: 154",
    ]
    _passed("phi-involution and lemma-bounds at n=14 with exact counts")


def test_acceptance_structural_suites_n17():
    phi_result = run_phi_involution([17])
    bounds = run_lemma_bounds([17])
    for result, checked in ((phi_result, 1114112), (bounds, 1003968)):
        assert result.ok, f"{result.name}: {result.violations[:5]}"
        assert result.checked == checked, result.name
    assert bounds.notes == [
        "W<=: 1817",
        "W> q=p: 3538",
        "W> q>p exact-suffix: 695",
        "W> q>p no-exact-suffix: 859",
    ]
    _passed("phi-involution and lemma-bounds at n=17 with exact counts")


def test_acceptance_triple_deletion():
    result = run_triple_deletion(count=25, seed=2024)
    assert result.checked >= 27
    assert result.ok, result.violations[:5]
    _passed("deletion identities on 25 random instances plus the (3,3,3) instance")


def test_acceptance_triple_deletion_on_the_held_out_seed():
    result = run_triple_deletion(count=100, seed=7919)
    assert result.checked == 102
    assert result.ok, result.violations[:5]
    _passed("deletion identities on 100 random instances (seed 7919) plus the (3,3,3) instance")
