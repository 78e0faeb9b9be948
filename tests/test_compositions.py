"""Composition enumeration and prefix-statistic tests."""

import copy
import pickle

import pytest

from csfkit.compositions import (
    Composition,
    Partition,
    _composition_tuples,
    _pack,
    _unpack,
    _width,
    compositions_of,
    format_parts,
    parse_composition,
    weight_positive_compositions,
)
from csfkit.graphs import Graph
from csfkit.symfunc import Basis, BasisVector
from test_symfunc import partitions_of


def test_enumeration_of_three_is_complete_and_lexicographic():
    got = [tuple(c) for c in compositions_of(3, 1)]
    assert got == [(1, 1, 1), (1, 2), (2, 1), (3,)]


def test_enumeration_with_min_part_two():
    got = [tuple(c) for c in compositions_of(5, 2)]
    assert got == [(2, 3), (3, 2), (5,)]


def test_enumeration_count_is_two_to_the_n_minus_one():
    for n in range(1, 13):
        assert sum(1 for _ in compositions_of(n, 1)) == 2 ** (n - 1)


def test_enumeration_yields_no_duplicates_and_correct_sums():
    for n in range(1, 10):
        seen = set()
        for comp in compositions_of(n, 1):
            assert comp.modulus == n
            assert comp.parts not in seen
            seen.add(comp.parts)


def test_enumeration_order_is_lexicographic():
    for n in range(1, 10):
        tuples = [c.parts for c in compositions_of(n, 1)]
        assert tuples == sorted(tuples)


def test_min_part_two_counts_follow_fibonacci_recurrence():
    # c(2) = c(3) = 1 and c(n) = c(n-1) + c(n-2): appending a 2 or growing
    # the last part by 1 are inverse bijections
    counts = {n: sum(1 for _ in compositions_of(n, 2)) for n in range(2, 21)}
    assert counts[2] == 1 and counts[3] == 1
    for n in range(4, 21):
        assert counts[n] == counts[n - 1] + counts[n - 2]


def test_enumeration_rejects_degenerate_arguments():
    with pytest.raises(ValueError):
        next(compositions_of(0, 1))
    with pytest.raises(ValueError):
        next(compositions_of(3, 0))
    with pytest.raises(ValueError):
        next(compositions_of(65, 1))


def test_weight_positive_stream_matches_filtered_full_stream():
    for n in range(1, 11):
        expected = [c.parts for c in compositions_of(n, 1) if c.weight > 0]
        got = [c.parts for c in weight_positive_compositions(n)]
        assert got == expected
    # the one enumerator against every composition built from the cut bits of
    # an (n-1)-bit mask, filtered by the lowest first part and the lowest part
    for n in range(1, 15):
        every = []
        for mask in range(2 ** (n - 1)):
            cuts = [0] + [k for k in range(1, n) if mask >> (k - 1) & 1] + [n]
            every.append(tuple(hi - lo for lo, hi in zip(cuts, cuts[1:])))
        for m in (1, 2, 3):
            for f in range(1, n + 1):
                expected = sorted(I for I in every if I[0] >= f and min(I[1:], default=m) >= m)
                assert list(_composition_tuples(n, m, f)) == expected, (n, m, f)


def test_composition_rejects_bad_parts():
    with pytest.raises(ValueError):
        Composition((2, 0, 1))
    with pytest.raises(ValueError):
        Composition((-3,))
    with pytest.raises(ValueError):
        Composition([1] * 65)


def test_composition_and_partition_reject_non_integer_parts():
    for parts in ((2.7, True, 3), (2, 3.0), (True,), ("2", 3), (2, None)):
        with pytest.raises(ValueError, match="must be integers") as info:
            Composition(parts)
        assert "\n" not in str(info.value)
    for parts in ((2.9, 1.5), (3, False), ("3",)):
        with pytest.raises(ValueError, match="must be integers") as info:
            Partition(parts)
        assert "\n" not in str(info.value)
    # the messages for non-positive parts and the modulus bound are kept
    with pytest.raises(ValueError, match="must be positive, got 0"):
        Composition((2, 0))
    with pytest.raises(ValueError, match="partition parts must be positive"):
        Partition((2, 0))
    with pytest.raises(ValueError, match="exceeds the supported bound 64"):
        Composition([1] * 65)
    assert Composition([2, 3]).parts == (2, 3)
    assert Partition([1, 3]) == (3, 1)


def test_empty_composition_is_internal_only():
    empty = Composition(())
    assert empty.modulus == 0 and len(empty) == 0 and not empty
    with pytest.raises(ValueError):
        empty.rho()
    with pytest.raises(ValueError):
        _ = empty.weight


def test_rho_sorts_parts_decreasingly():
    assert Composition((2, 3, 2)).rho() == Partition((3, 2, 2))
    assert Composition((5,)).rho() == Partition((5,))
    assert Composition((2, 2, 5, 2)).rho() == Partition((5, 2, 2, 2))


def test_partition_codes_sort_as_their_partitions_to_n18():
    # the sweeps sort and take the max of codes where they would partitions:
    # the largest part's multiplicity sits in the top field
    for n in range(1, 19):
        width = _width(n)
        partitions = [Partition(lam) for lam in partitions_of(n)]
        codes = [_pack(lam, width) for lam in partitions]
        for lam, code in zip(partitions, codes):
            assert _unpack(code, width) == lam, lam
            for mu, other in zip(partitions, codes):
                assert (code < other) is (lam < mu), (lam, mu)


def test_reversal_examples_and_involution():
    assert Composition((7, 2, 2)).reversed() == Composition((2, 2, 7))
    assert Composition((5,)).reversed() == Composition((5,))
    for n in range(1, 9):
        for comp in compositions_of(n, 1):
            assert comp.reversed().reversed() == comp


def test_weight_examples():
    assert Composition((3, 2)).weight == 3
    assert Composition((2, 1, 2)).weight == 0
    assert Composition((2, 5, 2, 2)).weight == 8


def test_weight_zero_exactly_when_a_later_part_is_one():
    for n in range(1, 10):
        for comp in compositions_of(n, 1):
            positive = all(p >= 2 for p in comp.parts[1:])
            assert (comp.weight > 0) == positive


def test_sigma_theta_plus_examples():
    comp = Composition((2, 3, 2))
    assert comp.sigma_plus(4) == 5 and comp.theta_plus(4) == 1
    assert Composition((7, 2, 2)).theta_plus(2) == 5
    for n in range(1, 9):
        for comp in compositions_of(n, 1):
            assert comp.theta_plus(0) == 0
            assert comp.theta_minus(n) == 0


def test_sigma_theta_minus_examples():
    comp = Composition((2, 3, 2))
    assert comp.sigma_minus(4) == 2 and comp.theta_minus(4) == 2
    assert Composition((2, 2, 7)).theta_minus(6) == 2


def test_threshold_domain_errors():
    comp = Composition((2, 3))
    for bad in (-1, 6, 100):
        with pytest.raises(ValueError):
            comp.theta_plus(bad)
        with pytest.raises(ValueError):
            comp.theta_minus(bad)


def test_reversal_duality_of_undershoot_and_overshoot():
    for n in range(1, 11):
        for comp in compositions_of(n, 1):
            rev = comp.reversed()
            for a in range(0, n + 1):
                assert comp.theta_minus(a) == rev.theta_plus(n - a)


def test_overshoot_is_bounded_by_the_straddling_part():
    # the overshoot at a >= 1 never reaches the part that crosses a
    for n in range(1, 11):
        for comp in compositions_of(n, 1):
            for a in range(1, n + 1):
                sigma = comp.sigma_plus(a)
                index = comp.prefix_moduli.index(sigma)
                if index > 0:
                    assert comp.theta_plus(a) < comp.parts[index - 1]


def test_format_and_parse_round_trip():
    assert format_parts((7, 2, 2)) == "722"
    assert format_parts((12, 2, 2)) == "12,2,2"
    assert format_parts(()) == "()"
    assert parse_composition("7,2,2") == Composition((7, 2, 2))
    assert parse_composition("12,2,2") == Composition((12, 2, 2))
    with pytest.raises(ValueError):
        parse_composition("7,x")
    with pytest.raises(ValueError):
        parse_composition("7,0,2")


def test_composition_equality_hash_and_str():
    a, b = Composition((2, 3)), Composition((2, 3))
    assert a == b and hash(a) == hash(b)
    assert a != Composition((3, 2))
    assert str(a) == "23"
    assert a[0] == 2 and list(a) == [2, 3]


def test_composition_fields_cannot_be_rebound_or_deleted():
    import copy
    import pickle

    from csfkit.coefficients import phi

    built = Composition((2, 2))
    derived = [built.reversed(), next(compositions_of(4, 2)),
               next(weight_positive_compositions(4)), phi(Composition((7, 2, 2)), 6)]
    for I in [built, *derived]:
        before = (I.parts, I.prefix_moduli, str(I), hash(I))
        for name in ("parts", "prefix_moduli", "extra"):
            with pytest.raises(AttributeError) as info:
                setattr(I, name, (9,))
            assert str(info.value) == f"Composition is immutable: cannot set {name!r}"
            with pytest.raises(AttributeError) as info:
                delattr(I, name)
            assert str(info.value) == f"Composition is immutable: cannot delete {name!r}"
        assert (I.parts, I.prefix_moduli, str(I), hash(I)) == before
        # pickle and copy rebuild the value rather than setting its fields
        assert pickle.loads(pickle.dumps(I)) == I == copy.copy(I)
        assert copy.deepcopy(I).prefix_moduli == I.prefix_moduli


def test_every_composition_is_built_by_the_checking_constructor(capsys):
    from unittest import mock

    import csfkit.cli as cli
    from csfkit.coefficients import fiber

    init = Composition.__init__
    built = []

    def counted(self, parts=()):
        built.append(parts)
        init(self, parts)

    I = Composition((5, 2, 2, 2))
    for build, count in (
        (lambda: list(compositions_of(6)), 32),
        (lambda: fiber(I, 6, 4), 2),
        # the parsed --I and its two fiber elements
        (lambda: cli.main(["fibers", "--I", "5,2,2,2", "--a", "6", "--b", "4"]), 3),
    ):
        built.clear()
        with mock.patch.object(Composition, "__init__", counted):
            build()
        assert len(built) == count, built
    assert "c'' = 23" in capsys.readouterr().out


@pytest.mark.parametrize("cls, args, others", [
    (Composition, ((3, 2),), (Partition((3, 2)), (3, 2))),
    (Graph, (3, ((0, 1),)), ()),
    (BasisVector, (Basis.E, 2, {(2,): 1}), ()),
], ids=["Composition", "Graph", "BasisVector"])
def test_one_identity_rule_for_the_three_values(cls, args, others):
    # equal exactly when of one class with equal constructor arguments; a
    # copy is rebuilt through the constructor and keeps the hash
    value, equal = cls(*args), cls(*args)
    hashable = cls is not BasisVector
    assert value == equal and not value != equal
    if hashable:
        assert hash(value) == hash(equal)
    else:
        with pytest.raises(TypeError, match=rf"^unhashable type: '{cls.__name__}'$"):
            hash(value)
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls and twin == value
        if hashable:
            assert hash(twin) == hash(value)
    # a subclass built from the same arguments is another class
    sub = type(f"Sub{cls.__name__}", (cls,), {"__slots__": ()})
    for other in (sub(*args), args, *others):
        assert value != other and other != value and not value == other
