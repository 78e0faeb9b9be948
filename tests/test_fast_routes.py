"""Cross-checks of the derived compositions and of the
statistics read through theta-duality against the validated constructor and
reversal-based reference formulas, and of the closed forms' window DP against
the enumeration it replaced."""

import hashlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

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
    solve_psqt,
    solve_qt,
    split_LR,
    _c_doubleprime_parts,
    _delta_parts,
    _fiber_parts,
    _in_A,
    _in_w_gt,
    _phi_parts,
    _psi_parts,
    _solve_psqt_parts,
    _split_cut,
    _theta_coeff,
)
from csfkit.compositions import (
    Composition,
    Partition,
    compositions_of,
    weight_positive_compositions,
    _composition_tuples,
    _moduli,
    _pack,
    _theta_minus,
    _theta_plus,
    _theta_plus_sum,
    _unpack,
    _weight,
    _weight_positive_terms,
    _width,
)
from csfkit import graphs
from csfkit.graphs import (
    closed_form_clock, closed_form_cycle_chord, e_positivity_report, expansion_closed_form,
)
from csfkit.verify import (
    _positivity_task, clock_pairs, run_c_doubleprime, run_fiber, run_positivity, theta_triples,
)


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


def check_derived_routes(I):
    """Every derived composition of I equals its validated twin."""
    n = I.modulus
    assert_validated(I)
    rev = I.reversed()
    assert_validated(rev)
    assert rev == reversal(I)
    assert I.rho() == Partition(I.parts) and type(I.rho()) is Partition
    all_two = min(I.parts) >= 2
    for a in range(1, n + 1):
        assert_validated(phi(I, a))
        if a < n:
            for half in split_LR(I, a):
                assert_validated(half)
            if all_two:
                assert_validated(psi(I, a))
    for a in range(1, n - 1):
        b = n - 1 - a
        if classify(I, a).wclass is WClass.W_GT:
            for H in fiber(I, a, b):
                assert_validated(H)


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


def test_theta_sum_cycle_chord_matches_reversal_based_reference_to_n12(closed_form_terms):
    for n in range(4, 13):
        for b in range(2, n - 1):
            a = n - b
            terms = closed_form_terms(lambda: closed_form_cycle_chord(a, b, form="theta-sum"), n)
            for I in weight_positive_compositions(n):
                assert terms[I] == ref_theta_sum(I, b), (I, a, b)


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
                sol = solve_psqt(I, b)
                body = [Composition(H) for H in _fiber_parts(I.parts, sol.p, sol.q)]
                assert body == fiber(I, a, b), (I, a, b)
                expected = sorted(preimages.get(I, []))
                assert sorted(H.parts for H in body) == expected, (I, a, b)


def ref_positivity_degree(n):
    """The per-pair positivity route at degree n: each clock and cycle-chord
    closed form grouped by ``e_positivity_report``, and every cycle-chord term
    delta(I, b) checked one by one.  Returns (checked, violation count,
    grouped minima, expansions)."""
    pairs = [("clock", a, b) for a, b in clock_pairs(n)]
    pairs += [("cycle-chord", a, n - a) for a in range(2, n - 1)]
    checked = violations = 0
    minima = []
    for family, a, b in pairs:
        if family == "cycle-chord":
            for I in weight_positive_compositions(n):
                term = delta(I, b)
                checked += bool(term)
                violations += term < 0
        report = e_positivity_report(expansion_closed_form(family, a=a, b=b))
        checked += len(report.coefficients)
        violations += not report.is_e_positive
        minima.append(report.minimum)
    return checked, violations, minima, len(pairs)


def test_positivity_matches_the_per_pair_closed_form_route_to_n14():
    checked = violations = swept = 0
    minima = []
    for n_max in range(4, 15):
        step = ref_positivity_degree(n_max)
        checked += step[0]
        violations += step[1]
        minima += step[2]
        swept += step[3]
        result = run_positivity(n_max)
        assert result.checked == checked, n_max
        assert result.notes == [f"expansions swept: {swept}",
                                f"smallest grouped coefficient: {min(minima)}"], n_max
        assert result.ok == (checked > 0 and not violations), n_max


def test_c_doubleprime_regrouping_is_checked_against_the_clock_closed_form():
    # one unit more on every fiber-grouped coefficient: each pair's regrouping
    # then exceeds the clock closed form first at the reverse-lexicographically
    # largest partition of a composition in W_>
    body = _c_doubleprime_parts
    with mock.patch("csfkit.verify._c_doubleprime_parts", lambda *args: body(*args) + 1):
        result = run_c_doubleprime(5, 3, 20)
    expected = []
    for a, b in sorted(((a, b) for a in range(2, 6) for b in range(2, min(a, 3) + 1)),
                       key=lambda pair: (sum(pair), pair)):
        extra = {}
        for I in compositions_of(a + b + 1, 2):
            if classify(I, a).wclass is WClass.W_GT:
                extra[I.rho()] = extra.get(I.rho(), 0) + 1
        lam = max(extra)
        direct = closed_form_clock(a, b).grouped_by_rho().coefficient(lam)
        expected.append(f"fiber regrouping disagrees with the clock expansion at "
                        f"(a,b)=({a},{b}): {(lam, direct + extra[lam], direct)}")
    assert result.violations == expected


def test_positivity_messages_keep_their_order_and_text():
    # every term whose first part is 2 lowered by 3: the messages of n = 8 and
    # 11, grouped lists of up to four partitions among them, pinned as they
    # were when the sums were keyed by Partition
    factory = _theta_coeff

    def lowered(a, b, c, twisted):
        coeff = factory(a, b, c, twisted)
        return lambda parts, moduli: coeff(parts, moduli) - 3 * (parts[0] == 2)

    with mock.patch("csfkit.verify._theta_coeff", lowered):
        messages = [m for n in (8, 11) for m in _positivity_task(n)[1]]
    assert len(messages) == 80
    assert ("negative grouped coefficient for cycle-chord (a,b)=(2,9): "
            "['722', '5222', '4322', '32222']") in messages
    assert hashlib.sha256("\n".join(messages).encode()).hexdigest() == (
        "6cbf7d4cd679aedd1a8e3e1d45af30059a5ab0a94bd79653d07ffcda210e4202")


def test_c_doubleprime_builds_one_clock_kernel_per_pair():
    # D is built once per (a, b) swept and handed to every fiber-grouped sum
    factory = _theta_coeff
    built = []

    def counted(*args):
        built.append(args)
        return factory(*args)

    with mock.patch("csfkit.coefficients._theta_coeff", counted), \
            mock.patch("csfkit.verify._theta_coeff", counted):
        result = run_c_doubleprime(10, 10, 20)
    assert result.checked == 15505
    assert len(built) == 44
    assert sorted(built) == [(a, b, 2, False) for a in range(2, 11) for b in range(2, a + 1)
                             if a + b + 1 <= 20]


def test_c_doubleprime_evaluates_each_clock_term_once():
    # D_I once per (pair, weight-positive composition): the clock sum and every
    # fiber-grouped c'' read the same stored D_I * w_I
    factory = _theta_coeff
    calls = []

    def counted(*args):
        D = factory(*args)

        def coeff(parts, moduli):
            calls.append((args, parts))
            return D(parts, moduli)
        return coeff

    with mock.patch("csfkit.verify._theta_coeff", counted):
        result = run_c_doubleprime(10, 10, 20)
    assert result.checked == 15505 and result.ok
    assert len(calls) == len(set(calls)) == 34440
    assert len(calls) == sum(len(list(_composition_tuples(a + b + 1, 2, 1)))
                             for a in range(2, 11) for b in range(2, a + 1) if a + b + 1 <= 20)


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
    n = I.modulus
    for b in range(2, n - 1):
        body = window_body(*closed_form_window(
            lambda: closed_form_cycle_chord(n - b, b, form="theta-sum")))
        assert body(I.parts, I.prefix_moduli) == ref_theta_sum(I, b), (I, b)


# ---------------------------------------------------------------------------
# the private parts-tuple kernel against its public wrappers and the
# written-out references


def ref_ps(parts, v):
    # v = |i_1 ... i_{p-1}| + s with 1 <= s <= i_p, by a linear scan
    for p in range(1, len(parts) + 1):
        base = sum(parts[: p - 1])
        if base < v <= base + parts[p - 1]:
            return p, v - base
    raise AssertionError((parts, v))


def ref_qt(parts, v):
    # v = |i_2 ... i_q| + t with 1 <= t <= i_{q+1}, reading i_{z+1} as i_1
    z = len(parts)
    for q in range(1, z + 1):
        base = sum(parts[1:q])
        if base < v <= base + (parts[q] if q < z else parts[0]):
            return q, v - base
    raise AssertionError((parts, v))


def ref_delta(parts, v):
    p, s = ref_ps(parts, v)
    q, t = ref_qt(parts, v)
    leftover = parts[p - 1] - s
    if parts[0] <= leftover:
        return s * (leftover - parts[0])
    values = (leftover, *parts[p:q], t)
    return sum(x * y for k, x in enumerate(values) for y in values[k + 1 :])


def ref_psi(parts, a):
    # R is the longest proper suffix of modulus <= a; reverse L = the rest
    cut = next(k for k in range(1, len(parts) + 1) if sum(parts[k:]) <= a)
    return parts[:cut][::-1] + parts[cut:]


def ref_fiber(parts, b):
    p, _ = ref_ps(parts, b + 1)
    q, _ = ref_qt(parts, b + 1)
    return [parts[: p + r][::-1] + parts[p + r :] for r in range(1, q - p + 1)]


def ref_c_doubleprime(I, a, b):
    total = ref_coeff(I, a, b, 2, twisted=True) * I.weight
    for H in ref_fiber(I.parts, b):
        H = Composition(H)
        total += ref_coeff(H, a, b, 2, twisted=True) * H.weight
    return total


def check_kernel(I):
    """Each kernel function on (I.parts, I.prefix_moduli) equals its public
    wrapper and the written-out reference, at every valid threshold."""
    parts, moduli = I.parts, I.prefix_moduli
    n = I.modulus
    assert _moduli(parts) == moduli
    assert _weight(parts) == I.weight
    assert I.rho() == Partition(parts) and type(I.rho()) is Partition
    for a in range(0, n + 1):
        assert _theta_plus(moduli, a) == I.theta_plus(a) == min(m for m in moduli if m >= a) - a
        assert _theta_minus(moduli, a) == I.theta_minus(a) == a - max(m for m in moduli if m <= a)
    for a in range(1, n + 1):
        assert _phi_parts(parts, moduli, a) == phi(I, a).parts == ref_phi(I, a)[0], (I, a)
        ref = ref_classify(I, a)
        assert _in_w_gt(parts, moduli, a) is (ref.wclass is WClass.W_GT), (I, a)
        assert _in_A(parts, moduli, a) is ref.in_A, (I, a)
        assert classify(I, a) == ref, (I, a)
    for a in range(1, n):
        cut = _split_cut(moduli, a)
        assert (parts[:cut], parts[cut:]) == tuple(half.parts for half in split_LR(I, a))
        assert _psi_parts(parts, moduli, a) == ref_psi(parts, a), (I, a)
        if min(parts) >= 2:
            assert _psi_parts(parts, moduli, a) == psi(I, a).parts
    for b in range(0, n):
        sol = _solve_psqt_parts(parts, moduli, b)
        public = solve_psqt(I, b)
        assert sol == (public.p, public.s, public.q, public.t) \
            == ref_ps(parts, b + 1) + ref_qt(parts, b + 1), (I, b)
        assert solve_qt(I, b) == ref_qt(parts, b + 1), (I, b)
        assert _delta_parts(parts, sol) == delta(I, b + 1) == ref_delta(parts, b + 1), (I, b)
    for a, b, c in theta_triples(n):
        assert _theta_coeff(a, b, c, False)(parts, moduli) == coeff_c(I, a, b, c) \
            == ref_coeff(I, a, b, c, twisted=False), (I, a, b, c)
        assert _theta_coeff(a, b, c, True)(parts, moduli) == coeff_c_prime(I, a, b, c) \
            == ref_coeff(I, a, b, c, twisted=True), (I, a, b, c)
    for a, b in clock_pairs(n):
        D = _theta_coeff(a, b, 2, False)
        assert D(parts, moduli) == coeff_D(I, a, b)
        if not _in_w_gt(parts, moduli, a):
            continue
        p, _, q, _ = _solve_psqt_parts(parts, moduli, b)
        fiber_parts = _fiber_parts(parts, p, q)
        assert fiber_parts == [H.parts for H in fiber(I, a, b)] == ref_fiber(parts, b)
        term = lambda H: D(H, _moduli(H)) * _weight(H)
        assert _c_doubleprime_parts(parts, p, q, term) == coeff_c_doubleprime(I, a, b) \
            == ref_c_doubleprime(I, a, b), (I, a, b)


def test_kernel_matches_wrappers_and_references_to_n12():
    for n in range(1, 13):
        assert list(_composition_tuples(n)) == [I.parts for I in compositions_of(n)]
        assert list(_composition_tuples(n, 2, 1)) == [
            I.parts for I in weight_positive_compositions(n)
        ]
        for I in compositions_of(n):
            check_kernel(I)


def test_weight_positive_walk_is_first_part_1_then_parts_ge_2_in_order_to_n20():
    # one weight-positive list per degree is its first-part-1 block, then the
    # parts >= 2 list, both in lexicographic order
    for n in range(1, 21):
        positive = list(_composition_tuples(n, 2, 1))
        head = [parts for parts in positive if parts[0] == 1]
        assert positive[:len(head)] == head, n
        assert positive[len(head):] == list(_composition_tuples(n, 2)), n


def test_weight_positive_terms_derive_each_tuple_in_order_to_n20():
    # the closed forms and the positivity and c-doubleprime sweeps read moduli,
    # the code of rho and weight of every weight-positive tuple from this one stream
    for n in range(1, 21):
        width = _width(n)
        terms = list(_weight_positive_terms(n))
        assert terms == [
            (parts, _moduli(parts), _pack(parts, width), _weight(parts))
            for parts in _composition_tuples(n, 2, 1)
        ], n
        for parts, _, code, _ in terms:
            assert type(code) is int and Partition(_unpack(code, width)) == Partition(parts), parts


def test_kernel_enumerators_keep_the_public_checks():
    for bad in (0, -1, 65):
        for stream in (_composition_tuples(bad), compositions_of(bad),
                       _composition_tuples(bad, 2, 1), _weight_positive_terms(bad),
                       weight_positive_compositions(bad)):
            with pytest.raises(ValueError):
                next(stream)


# compositions of n <= 30 with every part >= 2: add 1 to each part of a
# composition of n - (number of parts)
compositions_parts_ge_2 = compositions(n_max=15).map(lambda I: Composition(p + 1 for p in I.parts))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(compositions(n_max=30))
def test_phi_is_an_involution_keeping_rho_weight_and_first_part_to_n30(I):
    n = I.modulus
    for a in range(1, n + 1):
        J = phi(I, a)
        assert phi(J, a) == I
        assert (J.rho(), J.weight, J.parts[0]) == (I.rho(), I.weight, I.parts[0])
        assert _phi_parts(J.parts, J.prefix_moduli, a) == I.parts


@settings(derandomize=True, max_examples=150, deadline=None)
@given(compositions(n_max=30))
def test_theta_duality_against_the_real_reversal_to_n30(I):
    n = I.modulus
    rev = reversal(I)
    for a in range(0, n + 1):
        assert I.theta_minus(a) == rev.theta_plus(n - a)
        assert I.theta_plus(a) == rev.theta_minus(n - a)
        assert _theta_minus(I.prefix_moduli, a) == _theta_plus(rev.prefix_moduli, n - a)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(compositions_parts_ge_2)
def test_fiber_elements_lie_in_w_le_and_map_back_to_n30(I):
    n = I.modulus
    for a in range(1, n - 1):
        b = n - 1 - a
        if classify(I, a).wclass is not WClass.W_GT:
            continue
        for H in fiber(I, a, b):
            assert classify(H, a).wclass is WClass.W_LE, (I, a, H)
            assert psi(H, a) == I, (I, a, H)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(compositions(n_max=30))
def test_kernel_matches_wrappers_and_references_to_n30(I):
    check_kernel(I)


def test_fiber_classifies_each_composition_once_per_pair():
    # fiber elements and psi images are looked up in the pair's W_> / W_<=
    # split, not classified again
    with mock.patch("csfkit.verify._in_w_gt", wraps=_in_w_gt) as spy:
        result = run_fiber(range(5, 19))
    expected = sum(len(clock_pairs(n)) * len(list(_composition_tuples(n, 2)))
                   for n in range(5, 19))
    assert spy.call_count == expected == 26686
    assert (result.checked, result.violations) == (13972, [])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(compositions(n_max=30), st.data())
def test_theta_plus_sum_is_the_plain_sum_of_overshoots_to_n30(I, data):
    n = I.modulus
    lo = data.draw(st.integers(0, n), label="lo")
    hi = data.draw(st.integers(0, n), label="hi")
    expected = sum(_theta_plus(I.prefix_moduli, k) for k in range(lo, hi + 1))
    assert _theta_plus_sum(I.prefix_moduli, lo, hi) == expected, (I, lo, hi)
    # one threshold, and an empty range whenever lo > hi
    assert _theta_plus_sum(I.prefix_moduli, lo, lo) == I.theta_plus(lo)
    assert _theta_plus_sum(I.prefix_moduli, hi + 1, hi) == 0


@settings(derandomize=True, max_examples=150, deadline=None)
@given(compositions(n_max=30).filter(lambda I: I.modulus >= 4), st.data())
def test_theta_coeff_matches_the_reversal_based_reference_to_n30(I, data):
    a, b, c = data.draw(st.sampled_from(theta_triples(I.modulus)), label="triple")
    for twisted in (False, True):
        assert _theta_coeff(a, b, c, twisted)(I.parts, I.prefix_moduli) \
            == ref_coeff(I, a, b, c, twisted), (I, a, b, c, twisted)


# ---------------------------------------------------------------------------
# the closed forms' window DP (graphs._window_sums) against the enumeration it
# replaced, which stays here as the written-out reference


def enumerated_sums(n, body):
    """sum w_I * body(I) onto rho(I) over the weight-positive compositions of
    n, one term at a time, as an expansion."""
    expansion = graphs.EExpansion(n)
    sums = expansion._sums
    for parts, moduli, code, weight in _weight_positive_terms(n):
        coeff = body(parts, moduli)
        if coeff:
            sums[code] = sums.get(code, 0) + coeff * weight
    return expansion


def window_body(n, v=0, windows=(), const=0):
    """c_I of one window of graphs._window_sums, read from the kernel for one
    composition: body(parts, moduli)."""
    def coeff(parts, moduli):
        total = const
        if v:
            total += _delta_parts(parts, _solve_psqt_parts(parts, moduli, v - 1))
        for sign, lo, hi in windows:
            total += sign * _theta_plus_sum(moduli, lo, hi)
        return total
    return coeff


def closed_form_window(build):
    """The (n, v, windows, const) that the closed form ``build()`` hands to
    graphs._window_sums, which is not run."""
    calls = []

    def record(n, v=0, windows=(), const=0):
        calls.append((n, v, windows, const))

    with mock.patch("csfkit.graphs._window_sums", record):
        build()
    (window,) = calls
    return window


# each form's coefficient body as the closed forms enumerated it before the
# DP; c-prime keeps its phi twist, so the DP's c_I sums are checked against it
ENUMERATED_BODIES = {
    ("path", "closed-form"): lambda n: lambda parts, moduli: 1,
    ("cycle", "closed-form"): lambda n: lambda parts, moduli: _theta_plus(moduli, 1),
    ("tadpole", "closed-form"): lambda a, l: lambda parts, moduli: _theta_plus(moduli, l + 1),
    ("cycle-chord", "delta"): lambda a, b: _theta_coeff(a, b, 1, False),
    ("cycle-chord", "theta-sum"): lambda a, b: lambda parts, moduli: (
        _theta_plus_sum(moduli, 1, b) - _theta_plus_sum(moduli, a + 1, a + b - 1)),
    ("theta", "c"): lambda a, b, c: _theta_coeff(a, b, c, False),
    ("theta", "c-prime"): lambda a, b, c: _theta_coeff(a, b, c, True),
    ("clock", "closed-form"): lambda a, b: _theta_coeff(a, b, 2, False),
}


def window_instances(n):
    """(family, form, params) for every form the DP runs and every parameter
    tuple of degree n, the tadpole from cycle length 2 and the cycle-chord
    with a < b too."""
    found = [("path", "closed-form", {"n": n})]
    if n >= 3:
        found.append(("cycle", "closed-form", {"n": n}))
    found += [("tadpole", "closed-form", {"a": n - l, "l": l}) for l in range(n - 1)]
    found += [("cycle-chord", form, {"a": a, "b": n - a})
              for a in range(2, n - 1) for form in ("delta", "theta-sum")]
    found += [("theta", form, dict(zip("abc", triple)))
              for triple in theta_triples(n) for form in ("c", "c-prime")]
    found += [("clock", "closed-form", dict(zip("ab", pair))) for pair in clock_pairs(n)]
    return found


def check_window_form(family, form, params):
    n = graphs.family_degree(family, **params)
    dp = expansion_closed_form(family, form=form, **params).grouped_by_rho()
    body = ENUMERATED_BODIES[family, form](*params.values())
    assert dp == enumerated_sums(n, body).grouped_by_rho(), (family, form, params)
    window = closed_form_window(lambda: expansion_closed_form(family, form=form, **params))
    assert dp == enumerated_sums(n, window_body(*window)).grouped_by_rho(), (family, form, params)


def test_window_dp_equals_the_enumerated_bodies_for_every_form_to_n16():
    forms = 0
    for n in range(1, 17):
        for family, form, params in window_instances(n):
            check_window_form(family, form, params)
            forms += 1
    assert forms == 638


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(1, 24).flatmap(lambda n: st.sampled_from(window_instances(n))))
def test_window_dp_equals_the_enumerated_bodies_to_n24(instance):
    check_window_form(*instance)
