"""Solver, transformation, and coefficient tests.

Expected values were computed by hand from the defining equations.
``test_fast_routes.check_kernel`` is the one comparison of each public
wrapper with its kernel and a written-out reference (every composition to
n = 12), and the acceptance runs of the ``verify`` suites in
test_acceptance.py check the facts themselves to n = 16-17; so the sweeps of
the solvers, phi, classify, the fibers, D's W_<= closed form and c'' >= 0
live there, not here.  This file keeps hand-computed values, domain errors,
and small sweeps of split_LR, psi, delta >= 0 and the relations between the
coefficient wrappers.
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
# solvers; both equations and their solutions are swept by check_kernel
# (n <= 12) and the lemma-bounds runs (n <= 17)


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
# phi; check_kernel compares phi and the exact-suffix family with their
# references (n <= 12), and the phi-involution runs check that phi is an
# involution keeping the partition, weight, first part and exact-suffix family
# (n <= 17); test_fast_routes' random involution test goes to n = 30


def test_phi_fixed_points_and_rotation():
    assert phi(C((7, 2, 2)), 6) == C((7, 2, 2))
    assert phi(C((5, 2, 2, 2)), 6) == C((5, 2, 2, 2))
    assert phi(C((3, 4, 2, 1, 2)), 3) == C((3, 2, 4, 1, 2))
    assert phi(C((3, 2, 4, 1, 2)), 3) == C((3, 4, 2, 1, 2))


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
# classify; swept by check_kernel (n <= 12), and W_> as q >= p by the
# lemma-bounds runs (n <= 17)


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


# ---------------------------------------------------------------------------
# fiber; compared with its reference by check_kernel and the fiber-body check
# in test_fast_routes (n <= 12); the fiber runs check that the fibers are the
# W_<= preimages under psi, each once and with its partition (n <= 16)


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


# ---------------------------------------------------------------------------
# assembled coefficients; each compared with its kernel and reference by
# check_kernel (n <= 12); D's W_<= closed form is checked by the lemma-bounds
# runs and c'' >= 0 by the c-doubleprime runs (both n <= 17)


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


def test_coeff_c_doubleprime_values_and_empty_fiber_case():
    assert coeff_c_doubleprime(C((5, 2, 2, 2)), 6, 4) == 23
    assert coeff_c_doubleprime(C((7, 2, 2)), 6, 4) == 147
    five = C((5,))
    assert coeff_c_doubleprime(five, 2, 2) == coeff_D(five, 2, 2) * five.weight


def test_coeff_c_doubleprime_requires_high_class():
    with pytest.raises(ValueError):
        coeff_c_doubleprime(C((2, 5, 2, 2)), 6, 4)
