"""Every integer argument of the public API and of the ``verify`` suite
functions takes an exact int in its range.

A float, a bool or a string in any integer position raises the kit's own
``ValueError`` (or ``ResourceLimitError``) with a one-line message and never
returns a value; each range of the composition layer, the instance count and
the worker count are pinned at their ends, and the graph, vector and deletion
parameters at their lower ends.  The constructors refuse a container of the
wrong kind the same way.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from csfkit.coefficients import (
    classify, coeff_c, coeff_c_doubleprime, coeff_c_prime, coeff_D, delta, fiber, phi, psi,
    solve_ps, solve_psqt, solve_qt, split_LR,
)
from csfkit.compositions import (
    Composition, Partition, compositions_of, parse_composition, weight_positive_compositions,
)
from csfkit.errors import ResourceLimitError
from csfkit.graphs import (
    EExpansion, Graph, build_clock, build_cycle, build_cycle_chord, build_family_graph,
    build_path, build_tadpole, build_theta, closed_form_clock, closed_form_cycle,
    closed_form_cycle_chord, closed_form_path, closed_form_tadpole, closed_form_theta,
    expansion_closed_form, family_degree, verify_triple_deletion,
)
from csfkit.symfunc import Basis, BasisVector, e_partition_to_p
from csfkit.verify import (
    clock_pairs, run_c_doubleprime, run_fiber, run_positivity, run_triple_deletion,
    theta_deletion_instance, theta_triples,
)

I = Composition((7, 2, 2))  # n = 11, in W_> at a = 6
N = I.modulus
PATH = build_path(5)  # (0, 2, 4) is a stable triple
VECTOR = BasisVector(Basis.E, 3, {(3,): 1})

# (name, call, valid int arguments): every argument of ``call`` is one
# integer position of the public API
CALLS = [
    ("Composition", lambda *parts: Composition(parts), (2, 3)),
    ("Partition", lambda *parts: Partition(parts), (2, 3)),
    ("compositions_of", lambda n, m: next(compositions_of(n, m)), (5, 1)),
    ("weight_positive_compositions", lambda n: next(weight_positive_compositions(n)), (5,)),
    ("theta_plus", I.theta_plus, (3,)),
    ("theta_minus", I.theta_minus, (3,)),
    ("sigma_plus", I.sigma_plus, (3,)),
    ("sigma_minus", I.sigma_minus, (3,)),
    ("solve_ps", lambda b: solve_ps(I, b), (4,)),
    ("solve_qt", lambda b: solve_qt(I, b), (4,)),
    ("solve_psqt", lambda b: solve_psqt(I, b), (4,)),
    ("delta", lambda b: delta(I, b), (5,)),
    ("phi", lambda a: phi(I, a), (6,)),
    ("psi", lambda a: psi(I, a), (6,)),
    ("split_LR", lambda a: split_LR(I, a), (6,)),
    ("classify", lambda a: classify(I, a), (6,)),
    ("fiber", lambda a, b: fiber(I, a, b), (6, 4)),
    ("coeff_c", lambda a, b, c: coeff_c(I, a, b, c), (6, 4, 2)),
    ("coeff_c_prime", lambda a, b, c: coeff_c_prime(I, a, b, c), (6, 4, 2)),
    ("coeff_D", lambda a, b: coeff_D(I, a, b), (6, 4)),
    ("coeff_c_doubleprime", lambda a, b: coeff_c_doubleprime(I, a, b), (6, 4)),
    ("EExpansion", EExpansion, (11,)),
    ("add_term", lambda coeff: EExpansion(N).add_term(I, coeff), (1,)),
    ("Graph", lambda n, u, v: Graph(n, [(u, v)]), (3, 0, 2)),
    ("Graph.from_json_dict", lambda n: Graph.from_json_dict({"n": n, "edges": [[0, 1]]}), (2,)),
    ("build_path", build_path, (5,)),
    ("build_cycle", build_cycle, (4,)),
    ("build_tadpole", build_tadpole, (3, 1)),
    ("build_theta", build_theta, (3, 3, 2)),
    ("build_cycle_chord", build_cycle_chord, (2, 3)),
    ("build_clock", build_clock, (3, 2)),
    ("closed_form_path", closed_form_path, (5,)),
    ("closed_form_cycle", closed_form_cycle, (4,)),
    ("closed_form_tadpole", closed_form_tadpole, (3, 1)),
    ("closed_form_theta", closed_form_theta, (3, 3, 2)),
    ("closed_form_cycle_chord", closed_form_cycle_chord, (2, 3)),
    ("closed_form_clock", closed_form_clock, (3, 2)),
    ("build_family_graph", lambda a, b, c: build_family_graph("theta", a=a, b=b, c=c), (3, 3, 2)),
    ("expansion_closed_form", lambda a, l: expansion_closed_form("tadpole", a=a, l=l), (3, 1)),
    ("expansion_closed_form_path", lambda n: expansion_closed_form("path", n=n), (5,)),
    ("family_degree", lambda a, l: family_degree("tadpole", a=a, l=l), (3, 1)),
    ("verify_triple_deletion", lambda *t: verify_triple_deletion(PATH, t), (0, 2, 4)),
    ("BasisVector", lambda d, c: BasisVector(Basis.E, d, {(3,): c}), (3, 1)),
    ("BasisVector.from_json_dict",
     lambda d: BasisVector.from_json_dict({"basis": "e", "degree": d, "terms": []}), (3,)),
    ("scale", VECTOR.scale, (2,)),
    ("evaluate_ones", VECTOR.evaluate_ones, (3,)),
    ("coefficient", lambda *lam: VECTOR.coefficient(lam), (2, 1)),
    ("e_partition_to_p", lambda *lam: e_partition_to_p(lam), (2, 1)),
    ("clock_pairs", clock_pairs, (11,)),
    ("theta_triples", theta_triples, (9, 1)),
    ("run_fiber", lambda n: run_fiber([n]), (5,)),
    ("run_fiber_pair", lambda a, b: run_fiber([11], a, b), (6, 4)),
    ("run_fiber_n_of_pair", lambda n: run_fiber([n], 6, 4), (11,)),
    ("run_c_doubleprime", run_c_doubleprime, (3, 2, 6, 1)),
    ("run_positivity", run_positivity, (5, 1)),
    ("run_triple_deletion", run_triple_deletion, (3, 7)),
    ("theta_deletion_instance", theta_deletion_instance, (3, 3, 3)),
]

SLOTS = [(name, call, args, k) for name, call, args in CALLS for k in range(len(args))]


def _refused(call, *args) -> str:
    # the call must raise the kit's own error, with a one-line message
    with pytest.raises((ValueError, ResourceLimitError)) as info:
        call(*args)
    message = str(info.value)
    assert message and "\n" not in message, message
    return message


def _at(args: tuple, k: int, value) -> tuple:
    return args[:k] + (value,) + args[k + 1:]


@pytest.mark.parametrize("name, call, args, k",
                         [pytest.param(*slot, id=f"{slot[0]}-{slot[3]}") for slot in SLOTS])
def test_every_integer_position_refuses_inexact_values(name, call, args, k):
    call(*args)
    x = args[k]
    for bad in (float(x), x + 0.5, True, False, str(x)):
        message = _refused(call, *_at(args, k, bad))
        assert "integer" in message or "an int or a Fraction" in message, (name, bad, message)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.sampled_from(SLOTS),
       st.one_of(st.floats(), st.booleans(), st.text(max_size=4)))
def test_no_integer_position_returns_on_a_float_bool_or_str(slot, bad):
    _, call, args, k = slot
    _refused(call, *_at(args, k, bad))


def _triple_deletion(count: int):
    # the count rule alone: each random instance passes without its six oracle
    # calls, so that the top of the range costs milliseconds
    with mock.patch("csfkit.graphs.verify_triple_deletion", return_value=True):
        return run_triple_deletion(count, 7)


# (name, call of one int, lo, hi): the ranges of the composition layer, the
# lower ends of the graph, vector and deletion parameters, and the resource
# knobs of the suites
RANGES = [
    ("theta_plus", I.theta_plus, 0, N),
    ("theta_minus", I.theta_minus, 0, N),
    ("sigma_plus", I.sigma_plus, 0, N),
    ("sigma_minus", I.sigma_minus, 0, N),
    ("solve_ps", lambda b: solve_ps(I, b), 0, N - 1),
    ("solve_qt", lambda b: solve_qt(I, b), 0, N - 1),
    ("solve_psqt", lambda b: solve_psqt(I, b), 0, N - 1),
    ("delta", lambda b: delta(I, b), 1, N),
    ("phi", lambda a: phi(I, a), 1, N),
    ("classify", lambda a: classify(I, a), 1, N),
    ("split_LR", lambda a: split_LR(I, a), 1, N - 1),
    ("psi", lambda a: psi(I, a), 1, N - 1),
    ("compositions_of", lambda n: next(compositions_of(n)), 1, 64),
    ("compositions_of-min_part", lambda m: list(compositions_of(5, m)), 1, None),
    ("weight_positive_compositions", lambda n: next(weight_positive_compositions(n)), 1, 64),
    ("EExpansion", EExpansion, 1, 64),
    ("Composition", lambda p: Composition((2, p)), 1, 62),
    ("Partition", lambda p: Partition((2, p)), 1, None),
    ("closed_form_tadpole-l", lambda l: closed_form_tadpole(3, l), 0, None),
    ("theta_deletion_instance-c", lambda c: theta_deletion_instance(3, 3, c), 2, None),
    ("theta_triples-min_c", lambda c: theta_triples(5, c), 1, None),
    ("BasisVector-degree", lambda d: BasisVector(Basis.E, d), 0, None),
    ("evaluate_ones", VECTOR.evaluate_ones, 0, None),
    ("count", _triple_deletion, 0, 1000),
    ("workers", lambda w: run_positivity(5, workers=w), 1, None),
]


@pytest.mark.parametrize("name, call, lo, hi", RANGES, ids=[r[0] for r in RANGES])
def test_each_range_holds_at_its_ends(name, call, lo, hi):
    call(lo)
    _refused(call, lo - 1)
    if hi is not None:
        call(hi)
        _refused(call, hi + 1)


def test_threshold_ranges_name_their_bounds():
    assert _refused(phi, I, 0) == f"threshold 0 outside [1, {N}] for {I}"
    assert _refused(split_LR, I, N) == f"threshold {N} outside [1, {N - 1}] for {I}"
    assert _refused(solve_psqt, I, N) == f"b {N} outside [0, {N - 1}] for {I}"
    assert _refused(delta, I, 0) == f"equation value 0 outside [1, {N}] for {I}"
    assert I.theta_plus(N) == 0 and I.theta_minus(0) == 0


def test_suite_parameter_rules_name_themselves():
    assert _refused(theta_triples, 5, 0) == "min_c must be >= 1, got 0"
    assert _refused(theta_triples, 5, -1) == "min_c must be >= 1, got -1"
    # the integer rule before the c >= 2 rule of the deletion instance
    for c in ("x", True, 2.0):
        assert "integer" in _refused(theta_deletion_instance, 3, 3, c), c
    assert _refused(theta_deletion_instance, 3, 3, 1) == (
        "deletion instance needs c >= 2, got (3, 3, 1)")


def test_fiber_ranges_end_where_the_modulus_rule_takes_over():
    # a and b each lie in [1, n]; inside it, a + b + 1 = n decides
    for a, b in ((0, 4), (N + 1, 4), (6, 0), (6, N + 1)):
        assert "outside [1, 11]" in _refused(fiber, I, a, b)
    for a, b in ((1, 4), (N, 4), (6, 1), (6, N)):
        assert "has modulus 11, expected a+b+1" in _refused(fiber, I, a, b)
    assert [H.parts for H in fiber(I, 6, 4)] == [(2, 7, 2), (2, 2, 7)]


def test_each_modulus_rule_holds_at_n_and_refuses_its_neighbours():
    for delta_n in (-1, 1):
        a = 6 + delta_n
        assert _refused(coeff_D, I, a, 4) == (
            f"composition {I} has modulus 11, expected a+b+1 = {N + delta_n}")
        assert _refused(coeff_c, I, a, 4, 2) == (
            f"composition {I} has modulus 11, expected a+b+c-1 = {N + delta_n}")
        assert _refused(EExpansion(N + delta_n).add_term, I, 1) == (
            f"composition {I} has modulus 11, expected {N + delta_n}")
    assert coeff_D(I, 6, 4) == coeff_c(I, 6, 4, 2)
    EExpansion(N).add_term(I, 1)


@pytest.mark.parametrize("document", [
    *(pytest.param({"n": n, "edges": [edge]}, id=f"{n!r}-{edge!r}") for n, edge in (
        (3.9, [0, 1]), (3.0, [0, 1]), (True, [0, 1]), ("3", [0, 1]), (3, [0, 1.0]),
        (3, [0, True]))),
    # a malformed document: not a dict, a field missing, edges not a list
    {"n": 3}, {"edges": [[0, 1]]}, {"n": 3, "edges": 5}, [1, 2],
], ids=repr)
def test_graph_loader_refuses_inexact_json(document):
    _refused(Graph.from_json_dict, document)


@pytest.mark.parametrize("call, message", [
    (lambda: Composition(5), "composition parts must be an iterable, not a mapping, got 5"),
    (lambda: Partition(5), "partition parts must be an iterable, not a mapping, got 5"),
    (lambda: Graph(3, 5), "edges must be an iterable, not a mapping, got 5"),
    (lambda: BasisVector(Basis.E, 2, [(2,)]), "terms must be a mapping, got [(2,)]"),
    (lambda: parse_composition(5), "composition text must be a str, got 5"),
    # a dict would be read by its keys
    (lambda: Composition({7: 0, 2: 0}),
     "composition parts must be an iterable, not a mapping, got {7: 0, 2: 0}"),
    (lambda: Partition({2: 1}), "partition parts must be an iterable, not a mapping, got {2: 1}"),
    (lambda: Graph(3, {(0, 1): 5}), "edges must be an iterable, not a mapping, got {(0, 1): 5}"),
], ids=["Composition", "Partition", "Graph", "BasisVector", "parse_composition",
        "Composition-dict", "Partition-dict", "Graph-dict"])
def test_constructors_refuse_what_is_not_their_container(call, message):
    assert _refused(call) == message


def _vector_json(degree=2, num="3", den="2", partition=[2], terms=None):
    # a field given as ... is left out of the document
    def present(fields):
        return {key: value for key, value in fields.items() if value is not ...}
    term = present({"partition": partition, "num": num, "den": den})
    return present({"basis": "e", "degree": degree, "terms": [term] if terms is None else terms})


@pytest.mark.parametrize("field, value", [
    *(("degree", d) for d in (2.5, 2.0, True, "2", ...)),
    *(("num", num) for num in (2.5, 2, True, None, "2.5", " 2", "+2", "02", "2_0", "-0", "",
                               "-", "--2", "None", "\u0662", "\u00b2")),
    *(("den", den) for den in ("0", "-1", 2, 1.0, True, "1.0", "01", ...)),
    # a malformed document: terms missing or not a list of dicts, partition not a list
    *(("terms", terms) for terms in (..., 5, [5], {"partition": [2]})),
    *(("partition", partition) for partition in (2, ..., {2: 1})),
], ids=repr)
def test_vector_loader_refuses_what_to_json_does_not_write(field, value):
    _refused(BasisVector.from_json_dict, _vector_json(**{field: value}))


def test_vector_loader_reads_what_to_json_writes():
    vec = BasisVector.from_json_dict(_vector_json(num="-3", den="2"))
    assert vec.coefficient((2,)) * 2 == -3
    assert BasisVector.from_json_dict(vec.to_json_dict()) == vec
