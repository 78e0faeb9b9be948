"""Solver, transformation, and coefficient tests.

Expected values were computed by hand from the defining equations and are
cross-checked in bulk against the brute-force graph oracle in
test_graphs.py and test_acceptance.py.
"""

import pytest

from csfkit.coefficients import (
    Classification,
    WClass,
    classify,
    coeff_c,
    coeff_c_doubleprime,
    coeff_c_prime,
    coeff_D,
    delta,
    fiber,
    phi,
    psi,
    solve_ps,
    solve_psqt,
    solve_qt,
    split_LR,
)
from csfkit.compositions import Composition, compositions_of
from csfkit.verify import clock_pairs

C = Composition


# ---------------------------------------------------------------------------
# solvers


def test_solve_ps_examples():
    assert solve_ps(C((7, 2, 2)), 4) == (1, 5)
    assert solve_ps(C((2, 7, 2)), 4) == (2, 3)
    for n in range(2, 9):
        for b in range(0, n):
            assert solve_ps(C((n,)), b) == (1, b + 1)


def test_solve_qt_examples():
    assert solve_qt(C((7, 2, 2)), 4) == (3, 1)
    assert solve_qt(C((5, 2, 2, 2)), 4) == (3, 1)
    assert solve_qt(C((3, 2)), 2) == (2, 1)


def test_solver_solutions_satisfy_their_equations_and_are_unique():
    for n in range(1, 10):
        for comp in compositions_of(n, 1):
            parts = comp.parts
            z = len(parts)
            for b in range(0, n):
                value = b + 1
                p, s = solve_ps(comp, b)
                assert 1 <= p <= z and 1 <= s <= parts[p - 1]
                assert sum(parts[: p - 1]) + s == value
                brute_ps = [
                    (pp, value - sum(parts[: pp - 1]))
                    for pp in range(1, z + 1)
                    if 1 <= value - sum(parts[: pp - 1]) <= parts[pp - 1]
                ]
                assert brute_ps == [(p, s)]
                q, t = solve_qt(comp, b)
                nxt = parts[q] if q < z else parts[0]
                assert 1 <= q <= z and 1 <= t <= nxt
                assert sum(parts[1:q]) + t == value
                brute_qt = [
                    (qq, value - sum(parts[1:qq]))
                    for qq in range(1, z + 1)
                    if 1
                    <= value - sum(parts[1:qq])
                    <= (parts[qq] if qq < z else parts[0])
                ]
                assert brute_qt == [(q, t)]


def test_solver_domain_errors():
    comp = C((3, 2))
    with pytest.raises(ValueError):
        solve_ps(comp, -1)
    with pytest.raises(ValueError):
        solve_ps(comp, 5)
    with pytest.raises(ValueError):
        solve_qt(comp, 5)


def test_solve_psqt_bundles_both_solutions():
    sol = solve_psqt(C((7, 2, 2)), 4)
    assert (sol.p, sol.s, sol.q, sol.t) == (1, 5, 3, 1)


# ---------------------------------------------------------------------------
# delta


def test_delta_values():
    assert delta(C((7, 2, 2)), 5) == 18  # e2(2, 2, 2, 1)
    assert delta(C((2, 5, 2, 2)), 5) == 0  # 3 * (2 - 2)
    assert delta(C((2, 3)), 3) == 0  # 1 * (2 - 2)
    assert delta(C((4,)), 2) == 4  # e2(2, 2)
    assert delta(C((1, 3)), 2) == 1  # 1 * (2 - 1)
    assert delta(C((2, 2)), 2) == 0  # e2(0, 2)


def test_delta_is_always_nonnegative():
    for n in range(2, 11):
        for comp in compositions_of(n, 1):
            for b in range(1, n + 1):
                assert delta(comp, b) >= 0


def test_delta_domain_errors():
    with pytest.raises(ValueError):
        delta(C((2, 3)), 0)
    with pytest.raises(ValueError):
        delta(C((2, 3)), 6)


# ---------------------------------------------------------------------------
# phi


def test_phi_fixed_points_and_rotation():
    assert phi(C((7, 2, 2)), 6) == C((7, 2, 2))
    assert phi(C((5, 2, 2, 2)), 6) == C((5, 2, 2, 2))
    assert phi(C((3, 4, 2, 1, 2)), 3) == C((3, 2, 4, 1, 2))
    assert phi(C((3, 2, 4, 1, 2)), 3) == C((3, 4, 2, 1, 2))


def test_phi_is_an_involution_preserving_partition_weight_and_head():
    for n in range(1, 11):
        for comp in compositions_of(n, 1):
            for a in range(1, n + 1):
                image = phi(comp, a)
                assert phi(image, a) == comp
                assert image.rho() == comp.rho()
                assert image.weight == comp.weight
                assert image.parts[0] == comp.parts[0]


def test_phi_preserves_the_exact_suffix_family():
    for n in range(2, 10):
        for comp in compositions_of(n, 1):
            for a in range(1, n + 1):
                if classify(comp, a).in_A:
                    assert classify(phi(comp, a), a).in_A


def test_phi_domain_errors():
    with pytest.raises(ValueError):
        phi(C((2, 3)), 0)
    with pytest.raises(ValueError):
        phi(C((2, 3)), 6)
    with pytest.raises(ValueError):
        phi(C(()), 1)


# ---------------------------------------------------------------------------
# split_LR / psi


def test_split_examples():
    assert split_LR(C((7, 2, 2)), 6) == (C((7,)), C((2, 2)))
    assert split_LR(C((5, 2, 2, 2)), 6) == (C((5,)), C((2, 2, 2)))
    for a in range(1, 5):
        assert split_LR(C((5,)), a) == (C((5,)), C(()))


def test_split_suffix_is_longest_proper_suffix_within_threshold():
    for n in range(2, 11):
        for comp in compositions_of(n, 1):
            for a in range(1, n):
                L, R = split_LR(comp, a)
                assert L.parts + R.parts == comp.parts
                assert len(L) >= 1
                assert R.modulus <= a
                if len(L) >= 1 and R.modulus + L.parts[-1] <= a:
                    pytest.fail(f"suffix not maximal at {comp}, a={a}")
                # undershoot of the reversal equals the gap a - |R|
                assert comp.reversed().theta_minus(a) == a - R.modulus


def test_psi_examples():
    assert psi(C((2, 7, 2)), 6) == C((7, 2, 2))
    assert psi(C((2, 2, 7)), 6) == C((7, 2, 2))
    assert psi(C((2, 2, 5, 2)), 6) == C((5, 2, 2, 2))
    assert psi(C((2, 5, 2, 2)), 6) == C((5, 2, 2, 2))


def test_psi_rejects_parts_equal_to_one():
    with pytest.raises(ValueError):
        psi(C((1, 2, 2)), 3)


def test_psi_preserves_partition_and_maps_low_class_to_high_class():
    for n in range(5, 12):
        for a, b in clock_pairs(n):
            for comp in compositions_of(n, 2):
                image = psi(comp, a)
                assert image.rho() == comp.rho()
                if classify(comp, a).wclass is WClass.W_LE:
                    assert classify(image, a).wclass is WClass.W_GT
                if classify(comp, a).in_A:
                    assert classify(image, a).in_A


# ---------------------------------------------------------------------------
# classify


def test_classify_examples():
    assert classify(C((7, 2, 2)), 6) == Classification(WClass.W_GT, False)
    assert classify(C((5, 2, 2, 2)), 6) == Classification(WClass.W_GT, True)
    assert classify(C((2, 5, 2, 2)), 6).wclass is WClass.W_LE
    assert classify(C((1, 3, 5)), 4).wclass is WClass.NOT_W


def test_classify_in_A_requires_positive_weight():
    # (1, 3, 1, 4) has a suffix of modulus 5 but weight 0
    assert not classify(C((1, 3, 1, 4)), 5).in_A
    # (1, 3, 5) has weight 8 and suffix modulus exactly 5
    assert classify(C((1, 3, 5)), 5).in_A


def test_classify_agrees_with_the_solver_characterization():
    # on all-parts->=2 compositions: W_> exactly when q >= p
    for n in range(5, 12):
        for a, b in clock_pairs(n):
            for comp in compositions_of(n, 2):
                sol = solve_psqt(comp, b)
                expected = WClass.W_GT if sol.q >= sol.p else WClass.W_LE
                assert classify(comp, a).wclass is expected
                if sol.q == sol.p - 1:
                    assert comp.parts[0] <= comp.parts[sol.p - 1] - sol.s


# ---------------------------------------------------------------------------
# fiber


def test_fiber_known_lists():
    assert fiber(C((7, 2, 2)), 6, 4) == [C((2, 7, 2)), C((2, 2, 7))]
    assert fiber(C((5, 2, 2, 2)), 6, 4) == [C((2, 5, 2, 2)), C((2, 2, 5, 2))]
    assert fiber(C((3, 2)), 2, 2) == [C((2, 3))]
    assert fiber(C((4, 2)), 3, 2) == [C((2, 4))]
    assert fiber(C((5,)), 2, 2) == []


def test_fiber_rejects_wrong_inputs():
    with pytest.raises(ValueError):
        fiber(C((2, 5, 2, 2)), 6, 4)  # W_<=, not W_>
    with pytest.raises(ValueError):
        fiber(C((7, 2, 2)), 6, 5)  # modulus mismatch


def test_fiber_elements_are_exactly_the_low_class_preimages():
    for n in range(5, 12):
        for a, b in clock_pairs(n):
            preimage_of = {}
            for comp in compositions_of(n, 2):
                if classify(comp, a).wclass is WClass.W_GT:
                    for h in fiber(comp, a, b):
                        assert psi(h, a) == comp
                        assert classify(h, a).wclass is WClass.W_LE
                        assert h.rho() == comp.rho()
                        assert h not in preimage_of
                        preimage_of[h] = comp
            low = [
                comp
                for comp in compositions_of(n, 2)
                if classify(comp, a).wclass is WClass.W_LE
            ]
            assert sorted(h.parts for h in preimage_of) == sorted(
                comp.parts for comp in low
            )


# ---------------------------------------------------------------------------
# assembled coefficients


def test_coeff_c_reduces_to_delta_when_shortest_path_has_length_one():
    for n in range(4, 11):
        for b in range(2, n - 1):
            a = n - b
            if a < b:
                continue
            for comp in compositions_of(n, 1):
                assert coeff_c(comp, a, b, 1) == delta(comp, b)


def test_coeff_c_single_part_value():
    # theta(2,2,2) on 5 vertices: hand evaluation gives 3 - 2 + e2(2,3) = 7,
    # and the grouped coefficient 7 * w = 35 equals the number of acyclic
    # orientations with a unique sink (checked against the oracle elsewhere)
    assert coeff_c(C((5,)), 2, 2, 2) == 7


def test_coeff_c_parameter_errors():
    with pytest.raises(ValueError):
        coeff_c(C((5,)), 2, 2, 3)  # unsorted
    with pytest.raises(ValueError):
        coeff_c(C((4,)), 3, 1, 1)  # two length-1 paths
    with pytest.raises(ValueError):
        coeff_c(C((5,)), 3, 2, 2)  # modulus mismatch


def test_coeff_c_prime_equals_coeff_c_on_phi_fixed_points():
    for (a, b, c) in [(2, 2, 2), (3, 2, 2), (3, 3, 2), (4, 3, 2)]:
        n = a + b + c - 1
        for comp in compositions_of(n, 1):
            if phi(comp, a) == comp:
                assert coeff_c_prime(comp, a, b, c) == coeff_c(comp, a, b, c)


def test_coeff_D_known_values():
    assert coeff_D(C((2, 7, 2)), 6, 4) == 2
    assert coeff_D(C((2, 2, 7)), 6, 4) == -2
    assert coeff_D(C((3, 2)), 2, 2) == 3
    assert coeff_D(C((4, 2)), 3, 2) == 6
    assert coeff_D(C((5, 2, 2, 2)), 6, 4) == 11


def test_coeff_D_is_the_two_path_case_of_c_prime():
    for n in range(5, 11):
        for a, b in clock_pairs(n):
            for comp in compositions_of(n, 1):
                assert coeff_D(comp, a, b) == coeff_c_prime(comp, a, b, 2)
                # the clock formula written out
                assert coeff_D(comp, a, b) == (
                    comp.theta_plus(2)
                    - phi(comp, a).reversed().theta_minus(a)
                    + delta(comp, b + 1)
                )


def test_the_phi_twist_changes_no_clock_coefficient():
    # at c = 2 the one undershoot is read at n - a, and phi keeps every prefix
    # modulus from the largest one <= n - a on: c'_I = c_I for every I
    for n in range(5, 13):
        for a, b in clock_pairs(n):
            for comp in compositions_of(n, 1):
                D = coeff_D(comp, a, b)
                assert coeff_c(comp, a, b, 2) == coeff_c_prime(comp, a, b, 2) == D


def test_coeff_D_parameter_errors():
    with pytest.raises(ValueError):
        coeff_D(C((5,)), 2, 1)
    with pytest.raises(ValueError):
        coeff_D(C((5,)), 3, 2)


def test_one_clock_instance_has_one_modulus_message():
    # (7, 2, 2) has modulus 11, not a+b+1 = 12 for the clock (6, 5)
    I = C((7, 2, 2))
    messages = []
    for fn in (coeff_D, coeff_c_doubleprime, fiber):
        with pytest.raises(ValueError) as info:
            fn(I, 6, 5)
        messages.append(str(info.value))
    assert messages == [f"composition {I} has modulus 11, expected a+b+1 = 12"] * 3


def test_coeff_D_closed_form_on_low_class():
    for n in range(5, 12):
        for a, b in clock_pairs(n):
            for comp in compositions_of(n, 2):
                if classify(comp, a).wclass is WClass.W_LE:
                    p, s = solve_ps(comp, b)
                    expected = (s - 1) * (comp.parts[p - 1] - s - comp.parts[0]) - 2
                    assert coeff_D(comp, a, b) == expected
                    assert expected >= -2


def test_coeff_c_doubleprime_values_and_empty_fiber_case():
    assert coeff_c_doubleprime(C((5, 2, 2, 2)), 6, 4) == 23
    assert coeff_c_doubleprime(C((7, 2, 2)), 6, 4) == 147
    five = C((5,))
    assert coeff_c_doubleprime(five, 2, 2) == coeff_D(five, 2, 2) * five.weight


def test_coeff_c_doubleprime_requires_high_class():
    with pytest.raises(ValueError):
        coeff_c_doubleprime(C((2, 5, 2, 2)), 6, 4)


def test_coeff_c_doubleprime_nonnegative_small_sweep():
    for n in range(5, 13):
        for a, b in clock_pairs(n):
            for comp in compositions_of(n, 2):
                if classify(comp, a).wclass is WClass.W_GT:
                    assert coeff_c_doubleprime(comp, a, b) >= 0
