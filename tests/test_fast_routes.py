"""Cross-checks of the derived (unvalidated) compositions and of the
statistics read through theta-duality against the validated constructor and
reversal-based reference formulas."""

import bisect
from unittest import mock

from hypothesis import given, settings, strategies as st

from csfkit.coefficients import (
    Classification,
    WClass,
    classify,
    coeff_c,
    coeff_c_prime,
    delta,
    fiber,
    phi,
    psi,
    solve_psqt,
    solve_qt,
    split_LR,
    _fiber_from,
)
from csfkit.compositions import (
    Composition,
    Partition,
    compositions_of,
    weight_positive_compositions,
)
from csfkit.graphs import closed_form_cycle_chord
from csfkit.verify import clock_pairs, theta_triples


def assert_validated(J):
    ref = Composition(J.parts)
    assert J.parts == ref.parts
    assert J.prefix_moduli == ref.prefix_moduli
    assert type(J.parts) is tuple and type(J.prefix_moduli) is tuple


def reversal(I):
    # the validated reversal, independent of Composition.reversed
    return Composition(I.parts[::-1])


def ref_classify(I, a):
    rev = reversal(I)
    weight = I.parts[0]
    for part in I.parts[1:]:
        weight *= part - 1
    in_A = weight > 0 and rev.theta_plus(a) == 0
    if min(I.parts) < 2:
        return Classification(WClass.NOT_W, in_A)
    if I.parts[0] > rev.theta_minus(a):
        return Classification(WClass.W_GT, in_A)
    return Classification(WClass.W_LE, in_A)


def ref_phi(I, a):
    # I = PQ with Q the shortest suffix of modulus >= a; the image keeps i_1
    # and Q and reverses the rest of P.  Returns the parts and |P|.
    parts = I.parts
    cut = len(parts)
    while sum(parts[cut:]) < a:
        cut -= 1
    P, Q = parts[:cut], parts[cut:]
    return P[:1] + P[1:][::-1] + Q, len(P)


def ref_compositions(n):
    # a composition of n is the set of its partial sums, a subset of {1..n-1}
    found = []
    for mask in range(2 ** (n - 1)):
        cuts = [k for k in range(1, n) if mask >> (k - 1) & 1]
        bounds = [0, *cuts, n]
        found.append(tuple(hi - lo for lo, hi in zip(bounds, bounds[1:])))
    return found


def ref_coeff(I, a, b, c, twisted):
    total = delta(I, b + c - 1)
    for k in range(2, c + 1):
        total += I.theta_plus(k)
    rev = reversal(phi(I, a) if twisted else I)
    for k in range(a, a + c - 1):
        total -= rev.theta_minus(k)
    return total


def ref_theta_sum(I, b):
    rev = reversal(I)
    return sum(I.theta_plus(i) for i in range(1, b + 1)) - sum(
        rev.theta_minus(i) for i in range(1, b)
    )


def ref_solve_qt(I, b):
    shifted = tuple(m - I.parts[0] for m in I.prefix_moduli[1:])
    q = bisect.bisect_left(shifted, b + 1)
    return q, b + 1 - shifted[q - 1]


def check_derived_routes(I):
    """Every derived composition of I equals its validated twin, and every
    duality-read statistic equals its reversal-based reference."""
    n = I.modulus
    assert_validated(I)
    rev = I.reversed()
    assert_validated(rev)
    assert rev == reversal(I)
    assert I.rho() == Partition(I.parts) and type(I.rho()) is Partition
    all_two = min(I.parts) >= 2
    for a in range(1, n + 1):
        assert_validated(phi(I, a))
        assert classify(I, a) == ref_classify(I, a)
        if a < n:
            for half in split_LR(I, a):
                assert_validated(half)
            if all_two:
                assert_validated(psi(I, a))
    for b in range(0, n):
        assert solve_qt(I, b) == ref_solve_qt(I, b)
    for a in range(1, n - 1):
        b = n - 1 - a
        if classify(I, a).wclass is WClass.W_GT:
            for H in fiber(I, a, b):
                assert_validated(H)


def check_coefficients(I):
    n = I.modulus
    for a, b, c in theta_triples(n):
        assert coeff_c(I, a, b, c) == ref_coeff(I, a, b, c, twisted=False)
        assert coeff_c_prime(I, a, b, c) == ref_coeff(I, a, b, c, twisted=True)


def test_enumerators_and_maps_match_the_validated_constructor_to_n12():
    for n in range(1, 13):
        for I in compositions_of(n):
            check_derived_routes(I)
        for I in compositions_of(n, 2):
            assert_validated(I)
        for I in weight_positive_compositions(n):
            assert_validated(I)


def test_enumerator_matches_the_subsets_of_partial_sums_to_n18():
    for n in range(1, 19):
        every = ref_compositions(n)
        for min_part in range(1, 5):
            expected = sorted(c for c in every if min(c) >= min_part)
            assert [I.parts for I in compositions_of(n, min_part)] == expected, (n, min_part)


def test_phi_matches_the_written_out_rearrangement_to_n12():
    for n in range(1, 13):
        for I in compositions_of(n):
            for a in range(1, n + 1):
                J = phi(I, a)
                parts, prefix_length = ref_phi(I, a)
                assert J.parts == parts, (I, a)
                # an interior of at most one part: phi returns I itself
                assert (J is I) == (prefix_length <= 2), (I, a)


def test_coefficients_match_reversal_based_references_to_n12():
    for n in range(1, 13):
        for I in compositions_of(n):
            check_coefficients(I)


def test_theta_sum_cycle_chord_matches_reversal_based_reference_to_n12():
    for n in range(4, 13):
        for b in range(2, n - 1):
            a = n - b
            entries = closed_form_cycle_chord(a, b, form="theta-sum").entries
            for I in weight_positive_compositions(n):
                expected = ref_theta_sum(I, b)
                got = entries[I][0] if I in entries else 0
                assert got == expected, (I, a, b)


def test_fiber_body_from_the_solution_matches_fiber_to_n12():
    for n in range(5, 13):
        all_ge_2 = list(compositions_of(n, 2))
        for a, b in clock_pairs(n):
            # the W_<= compositions psi sends to each image, by sorted parts
            preimages = {}
            for H in all_ge_2:
                if classify(H, a).wclass is WClass.W_LE:
                    preimages.setdefault(psi(H, a), []).append(H.parts)
            for I in all_ge_2:
                if classify(I, a).wclass is not WClass.W_GT:
                    continue
                body = _fiber_from(I, solve_psqt(I, b))
                assert body == fiber(I, a, b), (I, a, b)
                expected = sorted(preimages.get(I, []))
                assert sorted(H.parts for H in body) == expected, (I, a, b)


@st.composite
def compositions(draw, n_max=20):
    n = draw(st.integers(1, n_max))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1))) if n > 1 else ())
    bounds = [0, *cuts, n]
    return Composition(hi - lo for lo, hi in zip(bounds, bounds[1:]))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(compositions())
def test_fast_routes_match_references_on_random_compositions(I):
    check_derived_routes(I)
    check_coefficients(I)
    n = I.modulus
    if I.weight == 0:
        return
    # evaluate the closed form on I alone rather than on all of degree n
    with mock.patch("csfkit.graphs.weight_positive_compositions",
                    lambda degree: iter([I])):
        for b in range(2, n - 1):
            entries = closed_form_cycle_chord(n - b, b, form="theta-sum").entries
            assert (entries[I][0] if I in entries else 0) == ref_theta_sum(I, b)
