"""Symmetric-function vector arithmetic and basis-conversion tests."""

import copy
import pickle
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from csfkit.compositions import Partition
from csfkit.symfunc import (
    Basis,
    BasisVector,
    e_partition_to_p,
    evector_to_p,
    first_difference,
    pvector_to_e,
)


def partitions_of(n):
    # auxiliary enumeration used only by tests
    if n == 0:
        yield ()
        return
    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    yield from rec(n, n)


def test_e1_is_p1():
    assert e_partition_to_p((1,)).terms == {Partition((1,)): Fraction(1)}


def test_e2_newton_image():
    assert e_partition_to_p((2,)).terms == {
        Partition((1, 1)): Fraction(1, 2),
        Partition((2,)): Fraction(-1, 2),
    }


def test_e3_newton_image():
    assert e_partition_to_p((3,)).terms == {
        Partition((1, 1, 1)): Fraction(1, 6),
        Partition((2, 1)): Fraction(-1, 2),
        Partition((3,)): Fraction(1, 3),
    }


def test_e_partition_rejects_empty():
    with pytest.raises(ValueError):
        e_partition_to_p(())


def test_conversions_refuse_a_degree_above_the_bound_before_building_images():
    # one ValueError line, as every other degree check, not a RecursionError;
    # p_1^65 is refused too, though its image e_1^65 needs no recursion
    refused = r"^n 3000 exceeds the supported bound 64$"
    with pytest.raises(ValueError, match=refused):
        e_partition_to_p((3000,))
    with pytest.raises(ValueError, match=refused):
        evector_to_p(BasisVector(Basis.E, 3000, {(3000,): 1}))
    with pytest.raises(ValueError, match=refused):
        pvector_to_e(BasisVector(Basis.P, 3000, {(3000,): 1}))
    with pytest.raises(ValueError, match=r"^n 65 exceeds the supported bound 64$"):
        pvector_to_e(BasisVector(Basis.P, 65, {(1,) * 65: 1}))
    # degree 0 has no image to build and still round-trips
    three = BasisVector(Basis.E, 0, {(): 3})
    assert evector_to_p(three).terms == {Partition(()): 3}
    assert pvector_to_e(evector_to_p(three)) == three


def test_linearity_of_vector_conversion():
    two_e2 = BasisVector(Basis.E, 2, {(2,): 2})
    assert evector_to_p(two_e2).terms == {
        Partition((1, 1)): Fraction(1),
        Partition((2,)): Fraction(-1),
    }
    mix = BasisVector(Basis.E, 3, {(2, 1): 1, (3,): 3})
    assert evector_to_p(mix).terms == {
        Partition((1, 1, 1)): Fraction(1),
        Partition((2, 1)): Fraction(-2),
        Partition((3,)): Fraction(1),
    }
    zero = BasisVector(Basis.E, 4)
    assert evector_to_p(zero).is_zero()


def test_conversion_requires_e_basis():
    pvec = BasisVector(Basis.P, 2, {(2,): 1})
    with pytest.raises(ValueError):
        evector_to_p(pvec)


def test_conversion_is_multiplicative_over_parts():
    # image of e_lambda equals the p-product of the single-part images,
    # multiplied here by an independent convolution
    def p_multiply(lhs, rhs):
        out = {}
        for mu, c1 in lhs.items():
            for nu, c2 in rhs.items():
                key = Partition(tuple(mu) + tuple(nu))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return {k: v for k, v in out.items() if v}

    for n in range(1, 11):
        for lam in partitions_of(n):
            product = {Partition(()): Fraction(1)}
            for part in lam:
                product = p_multiply(product, e_partition_to_p((part,)).terms)
            assert product == e_partition_to_p(lam).terms


def test_specialization_at_all_ones_matches_binomials():
    # e_m(1^k) = C(k, m) and p_m(1^k) = k, so both sides of the conversion
    # must evaluate identically for every small variable count
    for n in range(1, 13):
        for lam in partitions_of(n):
            evec = BasisVector(Basis.E, n, {lam: 1})
            pvec = e_partition_to_p(lam)
            for k in range(1, 5):
                expected = Fraction(1)
                for part in lam:
                    expected *= comb(k, part)
                assert evec.evaluate_ones(k) == expected
                assert pvec.evaluate_ones(k) == expected


def test_vector_construction_prunes_zeros_and_checks_degree():
    vec = BasisVector(Basis.E, 3, {(2, 1): 0, (3,): 5})
    assert vec.terms == {Partition((3,)): Fraction(5)}
    with pytest.raises(ValueError):
        BasisVector(Basis.E, 3, {(2, 2): 1})


def test_vector_refuses_a_basis_that_is_not_a_basis():
    # evaluate_ones reads every basis but Basis.E as the p-basis: "e" would give 14
    assert BasisVector(Basis.E, 2, {(2,): 1, (1, 1): 3}).evaluate_ones(2) == 13
    for basis in ("e", "p", None, 0):
        with pytest.raises(ValueError, match="^basis must be a Basis, got ") as info:
            BasisVector(basis, 2, {(2,): 1, (1, 1): 3})
        assert "\n" not in str(info.value)


def test_add_scale_equals():
    vec = BasisVector(Basis.E, 2, {(2,): 1, (1, 1): 3})
    assert vec.add(vec.scale(-1)).is_zero()
    assert vec.scale(Fraction(1, 2)).scale(2).equals(vec)
    noisy = BasisVector(Basis.E, 2, {(2,): 1, (1, 1): 3})
    assert vec.equals(noisy)
    assert vec.subtract(noisy).is_zero()


def test_mismatched_operands_are_usage_errors():
    e2 = BasisVector(Basis.E, 2, {(2,): 1})
    p2 = BasisVector(Basis.P, 2, {(2,): 1})
    e3 = BasisVector(Basis.E, 3, {(3,): 1})
    with pytest.raises(ValueError):
        e2.add(p2)
    with pytest.raises(ValueError):
        e2.equals(e3)


def test_first_difference_reports_reverse_lex_first_mismatch():
    lhs = BasisVector(Basis.E, 4, {(4,): 1, (2, 2): 5})
    rhs = BasisVector(Basis.E, 4, {(4,): 1, (2, 2): 6, (2, 1, 1): 1})
    lam, a, b = first_difference(lhs, rhs)
    assert lam == Partition((2, 2)) and (a, b) == (5, 6)
    assert first_difference(lhs, lhs) is None


def test_json_round_trip_preserves_exact_coefficients():
    vec = BasisVector(
        Basis.E, 9, {(5, 2, 2): -3, (9,): Fraction(7, 2)}
    )
    data = vec.to_json_dict()
    assert data["basis"] == "e" and data["degree"] == 9
    assert data["terms"][0] == {"partition": [9], "num": "7", "den": "2"}
    assert data["terms"][1] == {"partition": [5, 2, 2], "num": "-3", "den": "1"}
    again = BasisVector.from_json(vec.to_json())
    assert again.equals(vec) and again.basis is vec.basis


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.sampled_from(tuple(Basis)), st.integers(0, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.dictionaries(st.sampled_from(list(partitions_of(n))),
                                st.one_of(st.integers(-10**6, 10**6),
                                          st.fractions(max_denominator=50)),
                                max_size=6))))
def test_json_round_trip_keeps_every_vector(basis, degree_terms):
    vec = BasisVector(basis, *degree_terms)
    again = BasisVector.from_json(vec.to_json())
    assert again.equals(vec) and again.basis is vec.basis and again.degree == vec.degree
    assert again.to_json() == vec.to_json()
    # a coefficient is stored as int exactly when it is integral
    for stored in (vec, again):
        for coef in stored.terms.values():
            assert (type(coef) is int) == (Fraction(coef).denominator == 1)
            assert type(coef) in (int, Fraction)


def test_integral_coefficients_are_stored_as_int():
    from csfkit.graphs import build_theta, closed_form_clock, csf_pbasis

    oracle = csf_pbasis(build_theta(3, 3, 3))
    for vec in (closed_form_clock(6, 4).grouped_by_rho(), oracle, pvector_to_e(oracle)):
        assert vec.terms and all(type(coef) is int for coef in vec.terms.values())
    coef = BasisVector(Basis.E, 2, {(2,): Fraction(4, 2)}).coefficient((2,))
    assert type(coef) is int and coef == 2
    assert type(BasisVector(Basis.E, 2).coefficient((2,))) is int
    # the rational e -> p images keep their Fractions
    assert set(map(type, e_partition_to_p((2,)).terms.values())) == {Fraction}


def test_p_to_e_inverts_e_to_p_with_mixed_denominators():
    vec = BasisVector(Basis.E, 6, {(3, 2, 1): Fraction(1, 7), (6,): -3, (2, 2, 2): Fraction(5, 4)})
    back = pvector_to_e(evector_to_p(vec))
    assert back == vec
    assert type(back.coefficient((6,))) is int and type(back.coefficient((3, 2, 1))) is Fraction


def test_terms_are_read_only():
    vec = BasisVector(Basis.E, 9, {(5, 2, 2): -3, (9,): Fraction(7, 2)})
    with pytest.raises(TypeError):
        vec.terms[Partition((9,))] = 1
    with pytest.raises(TypeError):
        del vec.terms[Partition((9,))]
    assert vec.coefficient((9,)) == Fraction(7, 2)
    assert vec.add(vec).equals(vec.scale(2))
    assert BasisVector.from_json(vec.to_json()).equals(vec)
    assert vec.to_json_dict()["terms"][1] == {"partition": [5, 2, 2], "num": "-3", "den": "1"}


def test_fields_cannot_be_rebound_or_deleted():
    vec = BasisVector(Basis.E, 9, {(5, 2, 2): -3, (9,): Fraction(7, 2)})
    for name, value in (("degree", 7), ("terms", {"junk": 5}), ("basis", Basis.P),
                        ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(vec, name, value)
    for name in ("degree", "terms", "basis"):
        with pytest.raises(AttributeError):
            delattr(vec, name)
    with pytest.raises(AttributeError, match=r"^BasisVector is immutable: cannot delete 'terms'$"):
        del vec.terms
    assert repr(vec) == "BasisVector(e, degree=9, terms=2)"
    assert vec.equals(BasisVector(Basis.E, 9, {(5, 2, 2): -3, (9,): Fraction(7, 2)}))


def test_vectors_pickle_and_copy_through_the_constructor():
    from csfkit.graphs import closed_form_clock

    for vec in (closed_form_clock(6, 4).grouped_by_rho(), e_partition_to_p((2,))):
        for twin in (pickle.loads(pickle.dumps(vec)), copy.copy(vec), copy.deepcopy(vec)):
            assert twin == vec and type(twin) is BasisVector
            assert [type(c) for c in twin.terms.values()] == [type(c) for c in vec.terms.values()]
            with pytest.raises(TypeError):
                twin.terms[Partition((vec.degree,))] = 1
            with pytest.raises(AttributeError):
                twin.degree = 0


# ---------------------------------------------------------------------------
# p -> e with integers


def test_p_to_e_newton_images():
    def p(*parts):
        return BasisVector(Basis.P, sum(parts), {parts: 1})

    assert pvector_to_e(p(1)).terms == {Partition((1,)): 1}
    assert pvector_to_e(p(2)).terms == {Partition((1, 1)): 1, Partition((2,)): -2}
    # p3 = e1^3 - 3 e2 e1 + 3 e3
    assert pvector_to_e(p(3)).terms == {
        Partition((1, 1, 1)): 1, Partition((2, 1)): -3, Partition((3,)): 3,
    }
    assert pvector_to_e(BasisVector(Basis.P, 4)).is_zero()


def test_p_to_e_rejects_e_basis_and_scales_fractions():
    with pytest.raises(ValueError):
        pvector_to_e(BasisVector(Basis.E, 2, {(2,): 1}))
    # e2 = (p11 - p2) / 2
    half = BasisVector(Basis.P, 2, {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)})
    assert pvector_to_e(half).terms == {Partition((2,)): 1}
    assert pvector_to_e(half.scale(Fraction(1, 3))).terms == {Partition((2,)): Fraction(1, 3)}


@st.composite
def integer_evectors(draw, max_degree=10):
    n = draw(st.integers(1, max_degree))
    lams = draw(st.lists(st.sampled_from(list(partitions_of(n))), unique=True, max_size=8))
    coeffs = draw(st.lists(st.integers(-10**6, 10**6), min_size=len(lams), max_size=len(lams)))
    return BasisVector(Basis.E, n, dict(zip(lams, coeffs)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(integer_evectors())
def test_p_to_e_inverts_e_to_p(vector):
    assert pvector_to_e(evector_to_p(vector)) == vector


def test_p_to_e_of_every_e_partition_image_is_e_lambda():
    for n in range(1, 11):
        for lam in partitions_of(n):
            assert pvector_to_e(e_partition_to_p(lam)).terms == {Partition(lam): 1}
