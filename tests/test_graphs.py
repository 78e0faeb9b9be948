"""Graph builders, oracle, closed forms, deletion identities, and reports."""

import copy
import pickle
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from csfkit.coefficients import coeff_c, delta
from csfkit.compositions import (
    Composition, Partition, _pack, _width, weight_positive_compositions,
)
from csfkit.errors import ResourceLimitError
from csfkit.graphs import (
    FAMILY_TABLE,
    MAX_WINDOW_DEGREE,
    EExpansion,
    Graph,
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
    csf_pbasis_subsets,
    _frontier_order,
    _pbasis_codes,
    e_positivity_report,
    expansion_closed_form,
    family_degree,
    verify_triple_deletion,
)
from csfkit.symfunc import Basis, BasisVector, evector_to_p, pvector_to_e
from csfkit.verify import run_triple_deletion, theta_deletion_instance, theta_triples


def degrees(graph):
    out = [0] * graph.vertex_count
    for u, v in graph.edges:
        out[u] += 1
        out[v] += 1
    return out


# ---------------------------------------------------------------------------
# builders


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        Graph(0, [])
    # an edge that is not a pair is refused by shape, not by unpacking
    for bad, edges in [("5", [5]), (r"\(0, 1, 2\)", [(0, 1, 2)])]:
        with pytest.raises(ValueError, match=f"^edge must be a pair of vertices, got {bad}$"):
            Graph(3, edges)
    with pytest.raises(ValueError, match="^edge must be a pair of vertices, got 5$"):
        Graph.from_json_dict({"n": 3, "edges": [5]})


def test_path_and_cycle_shapes():
    p4 = build_path(4)
    assert p4.vertex_count == 4 and p4.edge_count == 3
    assert build_path(1).edge_count == 0
    c5 = build_cycle(5)
    assert c5.vertex_count == 5 and c5.edge_count == 5
    assert c5.edges == ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))
    assert all(d == 2 for d in degrees(c5))
    with pytest.raises(ValueError):
        build_cycle(2)
    with pytest.raises(ValueError):
        build_path(0)


def test_tadpole_shapes():
    paw = build_tadpole(3, 1)
    assert paw.vertex_count == 4 and paw.edge_count == 4
    assert sorted(degrees(paw)) == [1, 2, 2, 3]
    triangle = build_tadpole(3, 0)
    assert csf_pbasis(triangle).equals(csf_pbasis(build_cycle(3)))
    with pytest.raises(ValueError):
        build_tadpole(2, 1)
    with pytest.raises(ValueError):
        build_tadpole(3, -1)


def test_theta_shapes():
    theta = build_theta(2, 2, 2)
    assert theta.vertex_count == 5 and theta.edge_count == 6
    assert sorted(degrees(theta)) == [2, 2, 2, 3, 3]
    bigger = build_theta(4, 3, 2)
    n = 4 + 3 + 2 - 1
    assert bigger.vertex_count == n and bigger.edge_count == n + 1
    assert sorted(degrees(bigger))[-2:] == [3, 3]
    for bad in [(2, 3, 2), (3, 2, 3), (3, 1, 1), (2, 1, 1)]:
        with pytest.raises(ValueError):
            build_theta(*bad)


def test_cycle_chord_closed_form_is_theta_at_unit_path(closed_form_terms):
    # per composition, delta(I, b) = c_I at c = 1 whenever a >= b
    for n in range(4, 11):
        for b in range(2, n // 2 + 1):
            a = n - b
            chord = closed_form_terms(lambda: closed_form_cycle_chord(a, b), n)
            assert chord == closed_form_terms(lambda: closed_form_theta(a, b, 1), n)
            assert closed_form_cycle_chord(a, b).grouped_by_rho() == (
                closed_form_theta(a, b, 1).grouped_by_rho())


def test_cycle_chord_delta_form_is_delta_for_every_pair(closed_form_terms):
    # the form runs the theta body at c = 1, which never reads a, so a < b too
    for a in range(2, 10):
        for b in range(2, 10):
            terms = closed_form_terms(lambda: closed_form_cycle_chord(a, b), a + b)
            for I in weight_positive_compositions(a + b):
                assert terms[I] == delta(I, b), (I, a, b)


def test_two_hub_builders_pin_their_edge_order():
    # cycle-chord is the two-hub paths (1, a, b); theta lists the paths a, b, c
    assert build_cycle_chord(3, 2).edges == ((0, 1), (0, 2), (2, 3), (1, 3), (0, 4), (1, 4))
    assert build_theta(3, 2, 1).edges == ((0, 2), (2, 3), (1, 3), (0, 4), (1, 4), (0, 1))


def test_cycle_chord_matches_theta_with_unit_path():
    for a, b in [(2, 2), (3, 2), (4, 3)]:
        chord = build_cycle_chord(a, b)
        assert chord.vertex_count == a + b
        assert chord.edge_count == a + b + 1
        assert csf_pbasis(chord).equals(csf_pbasis(build_theta(a, b, 1)))
    with pytest.raises(ValueError):
        build_cycle_chord(2, 1)


def test_clock_is_theta_with_a_two_path():
    clock = build_clock(4, 3)
    assert csf_pbasis(clock).equals(csf_pbasis(build_theta(4, 3, 2)))
    with pytest.raises(ValueError):
        build_clock(2, 3)
    with pytest.raises(ValueError):
        build_clock(3, 1)


def test_graph_json_round_trip():
    theta = build_theta(3, 2, 2)
    again = Graph.from_json_dict(theta.to_json_dict())
    assert again == theta


def test_has_edge_agrees_with_the_edge_tuple():
    graphs = [build_path(5), build_cycle(6), build_theta(4, 3, 2),
              build_tadpole(4, 3), Graph(5, [(3, 1), (0, 4)]), Graph(1, [])]
    for graph in graphs:
        n = graph.vertex_count
        for u in range(n):
            for v in range(n):
                listed = (min(u, v), max(u, v)) in graph.edges
                assert graph.has_edge(u, v) == listed
    # the lookup index stays out of equality, hashing and repr
    graph = Graph(3, [(0, 1), (1, 2)])
    assert repr(graph) == "Graph(vertex_count=3, edges=((0, 1), (1, 2)))"
    assert graph == Graph(3, [(1, 0), (2, 1)])
    assert hash(graph) == hash(Graph(3, [(0, 1), (1, 2)]))
    assert graph != Graph(3, [(1, 2), (0, 1)])


def test_graph_has_no_instance_dict_and_pickles_and_copies():
    graph = Graph(3, [(0, 1)])
    with pytest.raises(TypeError):
        vars(graph)
    for twin in (pickle.loads(pickle.dumps(graph)), copy.copy(graph), copy.deepcopy(graph)):
        assert twin == graph and hash(twin) == hash(graph)
        assert twin.has_edge(0, 1) and not twin.has_edge(1, 2)
        assert {graph: 1}[twin] == 1


def test_graph_is_immutable_and_each_expansion_owns_its_entries():
    graph = build_path(3)
    for attr in ("vertex_count", "edges", "edge_set", "extra"):
        with pytest.raises(AttributeError):
            setattr(graph, attr, None)
        with pytest.raises(AttributeError):
            delattr(graph, attr)
    assert graph == build_path(3) and graph.has_edge(1, 2)
    with pytest.raises(AttributeError, match=r"^Graph is immutable: cannot set 'x'$"):
        graph.x = 1
    first, second = EExpansion(3), EExpansion(3)
    first.add_term(Composition((3,)), 2)
    assert first.grouped_by_rho().terms == {Partition((3,)): 6}
    assert second.grouped_by_rho().is_zero()


# ---------------------------------------------------------------------------
# oracle


def test_oracle_on_single_edge():
    assert csf_pbasis(build_path(2)).terms == {
        Partition((1, 1)): Fraction(1),
        Partition((2,)): Fraction(-1),
    }


def test_oracle_on_three_vertex_path():
    # four edge subsets by hand
    assert csf_pbasis(build_path(3)).terms == {
        Partition((1, 1, 1)): Fraction(1),
        Partition((2, 1)): Fraction(-2),
        Partition((3,)): Fraction(1),
    }


def test_oracle_on_triangle():
    assert csf_pbasis(build_cycle(3)).terms == {
        Partition((1, 1, 1)): Fraction(1),
        Partition((2, 1)): Fraction(-3),
        Partition((3,)): Fraction(2),
    }


def test_oracle_leaves_the_recursion_limit_alone(monkeypatch):
    import sys

    def forbidden(limit):
        raise AssertionError("csf_pbasis changed the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", forbidden)
    assert csf_pbasis(build_cycle(10)).equals(csf_pbasis(build_tadpole(10, 0)))


def test_oracle_counts_isolated_vertices():
    lonely = Graph(3, [(0, 1)])
    assert csf_pbasis(lonely).terms == {
        Partition((1, 1, 1)): Fraction(1),
        Partition((2, 1)): Fraction(-1),
    }


def test_oracle_edge_budget():
    wide = Graph(32, [(0, i) for i in range(1, 32)])
    # one cap for both oracles, the constant, with the same message
    for oracle in (csf_pbasis, csf_pbasis_subsets):
        with pytest.raises(ResourceLimitError,
                           match=r"^oracle budget exceeded: 31 edges > limit 30$"):
            oracle(wide)


def test_oracle_vertex_budget():
    # the vertex cap is MAX_MODULUS = 64, the bound of a partition code's parts
    for oracle in (csf_pbasis, csf_pbasis_subsets,
                   lambda graph: verify_triple_deletion(graph, (0, 1, 2))):
        with pytest.raises(ResourceLimitError,
                           match=r"^oracle budget exceeded: 65 vertices > limit 64$"):
            oracle(Graph(65, []))
    for oracle in (csf_pbasis, csf_pbasis_subsets):
        assert oracle(Graph(64, [])).terms == {Partition((1,) * 64): 1}


def test_builders_refuse_a_degree_above_the_bound_before_building():
    import tracemalloc

    # each builder, as its closed form, refuses degree 65 (and a path of ten
    # million vertices) with the one line of the degree check, before it
    # allocates any edge list; degree 64 still builds
    over = [(build_path, "path", {"n": 65}), (build_path, "path", {"n": 10**7}),
            (build_cycle, "cycle", {"n": 65}),
            (build_tadpole, "tadpole", {"a": 60, "l": 5}),
            (build_theta, "theta", {"a": 30, "b": 30, "c": 6}),
            (build_cycle_chord, "cycle-chord", {"a": 40, "b": 25}),
            (build_clock, "clock", {"a": 40, "b": 24})]
    tracemalloc.start()
    try:
        for build, family, params in over:
            n = params.get("n", 65)
            for call in (lambda: build(*params.values()),
                         lambda: build_family_graph(family, **params),
                         lambda: expansion_closed_form(family, **params)):
                with pytest.raises(ValueError) as err:
                    call()
                assert str(err.value) == f"n {n} exceeds the supported bound 64", family
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert build_path(64).edge_count == 63
    for graph in (build_theta(30, 30, 5), build_cycle_chord(40, 24), build_clock(40, 23)):
        assert graph.vertex_count == 64
    assert Graph(65, []).vertex_count == 65  # the oracle's own cap tests it


@st.composite
def simple_graphs(draw):
    # at most 8 vertices and 14 edges, so that the subset sum stays quick;
    # the edges come in the order they were drawn
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return Graph(n, [])
    return Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(simple_graphs())
def test_frontier_oracle_matches_subset_sum_on_random_graphs(graph):
    assert csf_pbasis(graph).equals(csf_pbasis_subsets(graph))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(simple_graphs())
def test_frontier_order_is_a_permutation_of_the_edges(graph):
    assert sorted(_frontier_order(graph)) == sorted(graph.edges)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(simple_graphs(), st.randoms(use_true_random=False))
def test_frontier_oracle_ignores_labels_and_edge_order(graph, rng):
    # the oracle picks its own edge order, so relabelling the vertices and
    # shuffling the edges leave the result alone
    n = graph.vertex_count
    relabel = list(range(n))
    rng.shuffle(relabel)
    edges = [(relabel[u], relabel[v]) for u, v in graph.edges]
    rng.shuffle(edges)
    moved = Graph(n, edges)
    assert csf_pbasis(moved).equals(csf_pbasis(graph))
    assert csf_pbasis(moved).equals(csf_pbasis_subsets(moved))


def test_both_oracles_agree_on_paths_cycles_and_thetas():
    graphs = [build_path(n) for n in range(1, 13)]
    graphs += [build_cycle(n) for n in range(3, 13)]
    graphs += [build_theta(*t) for n in range(4, 13) for t in theta_triples(n)]
    graphs += [build_tadpole(a, l) for a in range(3, 13) for l in range(1, 13 - a)]
    graphs += [build_cycle_chord(a, b) for a in range(2, 11) for b in range(2, 13 - a)]
    for graph in graphs:
        vector = csf_pbasis(graph)
        assert vector.equals(csf_pbasis_subsets(graph)), graph
        # the integer p -> e route and the rational e -> p route are inverse
        assert evector_to_p(pvector_to_e(vector)) == vector, graph


@pytest.mark.parametrize("n", [7, 8, 15, 16])
def test_oracle_at_the_code_width_boundary(n):
    # the multiplicity n of p_1^n is the largest value its field holds at
    # n = 7 and 15; n = 8 and 16 each start a wider field
    for graph in (Graph(n, []), build_path(n)):
        assert csf_pbasis(graph).equals(csf_pbasis_subsets(graph)), graph
    assert csf_pbasis(Graph(n, [])).terms == {Partition((1,) * n): 1}
    p1n = BasisVector(Basis.P, n, {(1,) * n: 1})
    assert pvector_to_e(p1n).terms == {Partition((1,) * n): 1}


# ---------------------------------------------------------------------------
# closed forms


def test_path_closed_form_small(closed_form_terms):
    assert closed_form_terms(lambda: closed_form_path(3), 3) == {
        Composition((3,)): 1,
        Composition((1, 2)): 1,
    }
    assert [I.weight for I in weight_positive_compositions(3)] == [1, 3]
    grouped = closed_form_path(3).grouped_by_rho()
    assert grouped.terms == {
        Partition((3,)): Fraction(3),
        Partition((2, 1)): Fraction(1),
    }


def test_cycle_closed_form_small():
    grouped = closed_form_cycle(3).grouped_by_rho()
    assert grouped.terms == {Partition((3,)): Fraction(6)}


def test_single_partition_coefficient_of_the_smallest_clock():
    # 35 unique-sink acyclic orientations of the 5-vertex clock
    grouped = closed_form_theta(2, 2, 2).grouped_by_rho()
    assert grouped.coefficient((5,)) == 35
    assert closed_form_clock(2, 2).grouped_by_rho().coefficient((5,)) == 35


def test_window_dp_runs_at_its_degree_bound_and_refuses_one_above():
    n = MAX_WINDOW_DEGREE
    # the path's grouped sums count its acyclic orientations by their sinks
    # (Stanley 1995): 2^(n - 1) in all, and n with a single sink
    grouped = closed_form_path(n).grouped_by_rho()
    assert sum(grouped.terms.values()) == 2 ** (n - 1)
    assert grouped.coefficient((n,)) == n
    # every form the DP runs refuses n + 1 with one line
    over = [("path", "closed-form", {"n": n + 1}), ("cycle", "closed-form", {"n": n + 1}),
            ("tadpole", "closed-form", {"a": 40, "l": n - 39}),
            ("cycle-chord", "delta", {"a": 9, "b": n - 8}),
            ("cycle-chord", "theta-sum", {"a": n - 8, "b": 9}),
            ("theta", "c", {"a": 17, "b": 17, "c": n - 32}),
            ("theta", "c-prime", {"a": 17, "b": 17, "c": 16}),
            ("clock", "closed-form", {"a": 24, "b": n - 24})]
    for family, form, params in over:
        assert family_degree(family, **params) == n + 1, family
        with pytest.raises(ResourceLimitError) as err:
            expansion_closed_form(family, form=form, **params)
        assert str(err.value) == f"closed-form budget exceeded: n {n + 1} > limit {n}"


def test_expansion_rejects_wrong_modulus_terms():
    expansion = EExpansion(4)
    with pytest.raises(ValueError):
        expansion.add_term(Composition((3,)), 1)


def test_family_dispatch(closed_form_terms):
    grouped = expansion_closed_form("path", n=3).grouped_by_rho()
    assert grouped.coefficient((3,)) == 3
    assert build_family_graph("clock", a=3, b=2).vertex_count == 6
    assert family_degree("theta", a=3, b=2, c=2) == 6
    with pytest.raises(ValueError):
        expansion_closed_form("path")  # missing n
    with pytest.raises(ValueError):
        expansion_closed_form("widget", n=3)
    twisted = closed_form_terms(
        lambda: expansion_closed_form("theta", form="c-prime", a=3, b=3, c=2), 7)
    assert twisted == closed_form_terms(lambda: closed_form_clock(3, 3), 7)
    assert closed_form_terms(lambda: expansion_closed_form("cycle-chord", a=3, b=2), 5) == (
        closed_form_terms(lambda: closed_form_cycle_chord(3, 2, form="delta"), 5)
    )
    with pytest.raises(ValueError):
        expansion_closed_form("theta", form="delta", a=3, b=3, c=2)
    with pytest.raises(ValueError):
        closed_form_cycle_chord(2, 2, form="bogus")


SMALL_PARAMS = {
    "path": {"n": 5},
    "cycle": {"n": 5},
    "tadpole": {"a": 4, "l": 2},
    "cycle-chord": {"a": 3, "b": 4},
    "theta": {"a": 4, "b": 3, "c": 2},
    "clock": {"a": 4, "b": 3},
}


def test_closed_forms_construct_no_composition():
    # every closed form runs on the kernel tuples alone
    expected = {
        (family, form): expansion_closed_form(family, form, **SMALL_PARAMS[family]).grouped_by_rho()
        for family, record in FAMILY_TABLE.items() for form in record.forms
    }

    def refuse(*args, **kwargs):
        raise AssertionError("a closed form constructed a Composition")

    with mock.patch.object(Composition, "__init__", refuse):
        for (family, form), vector in expected.items():
            got = expansion_closed_form(family, form, **SMALL_PARAMS[family]).grouped_by_rho()
            assert got == vector and not got.is_zero(), (family, form)
    assert len(expected) == 8


def test_add_term_groups_as_the_closed_forms():
    for n in range(4, 11):
        for a, b, c in theta_triples(n):
            expansion = EExpansion(n)
            for I in weight_positive_compositions(n):
                expansion.add_term(I, coeff_c(I, a, b, c))
            assert expansion.grouped_by_rho() == closed_form_theta(a, b, c).grouped_by_rho()
    for n in range(1, 13):
        expansion = EExpansion(n)
        for I in weight_positive_compositions(n):
            expansion.add_term(I, 1)
        assert expansion.grouped_by_rho() == closed_form_path(n).grouped_by_rho()


def test_grouped_vector_is_unchanged_by_a_later_term():
    expansion = EExpansion(3)
    expansion.add_term(Composition((3,)), 1)
    grouped = expansion.grouped_by_rho()
    expansion.add_term(Composition((3,)), 1)
    expansion.add_term(Composition((1, 2)), 5)
    assert grouped.terms == {Partition((3,)): 3}
    assert expansion.grouped_by_rho().terms == {Partition((3,)): 6, Partition((2, 1)): 5}


_VECTOR = BasisVector(Basis.E, 2, {(2,): 1})


@pytest.mark.parametrize("call", [
    pytest.param(lambda: expansion_closed_form("path", n=3.9), id="expand-path-n-float"),
    pytest.param(lambda: expansion_closed_form("theta", a=4, b=3, c="2"), id="expand-theta-c-str"),
    pytest.param(lambda: build_family_graph("clock", a=3, b=2.9), id="family-graph-clock-b-float"),
    pytest.param(lambda: family_degree("tadpole", a=3, l=True), id="family-degree-tadpole-l-bool"),
    pytest.param(lambda: closed_form_theta(3, 3, True), id="closed-form-theta-c-bool"),
    pytest.param(lambda: closed_form_clock(3, 2.0), id="closed-form-clock-b-float"),
    pytest.param(lambda: closed_form_path(3.0), id="closed-form-path-float"),
    pytest.param(lambda: closed_form_cycle(4.0), id="closed-form-cycle-float"),
    pytest.param(lambda: closed_form_tadpole(3, True), id="closed-form-tadpole-l-bool"),
    pytest.param(lambda: closed_form_cycle_chord(3, 2.0), id="closed-form-cycle-chord-b-float"),
    pytest.param(lambda: build_theta(3.0, 3, 2), id="build-theta-a-float"),
    pytest.param(lambda: build_clock(3, True), id="build-clock-b-bool"),
    pytest.param(lambda: build_path(3.9), id="build-path-float"),
    pytest.param(lambda: build_cycle(True), id="build-cycle-bool"),
    pytest.param(lambda: build_tadpole(3, 1.0), id="build-tadpole-l-float"),
    pytest.param(lambda: build_cycle_chord("3", 2), id="build-cycle-chord-a-str"),
    pytest.param(lambda: Graph(3, [(0, True)]), id="graph-edge-end-bool"),
    pytest.param(lambda: Graph(3, [(0.0, 1)]), id="graph-edge-end-float"),
    pytest.param(lambda: Graph(3.0, [(0, 1)]), id="graph-vertex-count-float"),
    pytest.param(lambda: Graph(True, []), id="graph-vertex-count-bool"),
    pytest.param(lambda: BasisVector(Basis.E, 2, {(2,): 0.1}), id="vector-coefficient-float"),
    pytest.param(lambda: BasisVector(Basis.E, 2, {(2,): "1/3"}), id="vector-coefficient-str"),
    pytest.param(lambda: BasisVector(Basis.E, 2, {(2,): True}), id="vector-coefficient-bool"),
    pytest.param(lambda: BasisVector(Basis.E, 2.0, {(2,): 1}), id="vector-degree-float"),
    pytest.param(lambda: _VECTOR.scale(0.1), id="scale-float"),
    pytest.param(lambda: _VECTOR.scale("2"), id="scale-str"),
    pytest.param(lambda: _VECTOR.scale(True), id="scale-bool"),
])
def test_library_rejects_inexact_input(call):
    with pytest.raises(ValueError) as info:
        call()
    message = str(info.value)
    assert "\n" not in message and ("integer" in message or "Fraction" in message), message


def test_family_registry_rejects_unknown_keywords():
    # a keyword the family lacks is an error, not silently ignored
    with pytest.raises(ValueError, match="variant"):
        expansion_closed_form("theta", variant="c-prime", a=4, b=3, c=2)
    with pytest.raises(ValueError, match="bogus"):
        expansion_closed_form("path", n=3, bogus=1)
    with pytest.raises(ValueError, match="'a'"):
        build_family_graph("path", n=3, a=2)
    with pytest.raises(ValueError, match="'l'"):
        family_degree("clock", a=3, b=2, l=1)
    # unset flags arrive as None and stay allowed
    assert family_degree("path", n=4, a=None, c=None) == 4


# ---------------------------------------------------------------------------
# triple deletion


def test_triple_deletion_on_theta_base():
    base, triple = theta_deletion_instance(3, 3, 3)
    assert verify_triple_deletion(base, triple)


def test_theta_deletion_instance_removes_the_hub_edges_of_the_b_and_c_paths():
    # every triple with c >= 2 and n <= 12
    triples = [t for n in range(5, 13) for t in theta_triples(n, min_c=2)]
    assert len(triples) > 20
    for a, b, c in triples:
        theta = build_theta(a, b, c)
        base, (t1, t2, t3) = theta_deletion_instance(a, b, c)
        # the removed edges join hub 0 to the other two triple vertices
        removed = {(t3, t1), (t3, t2)}
        assert t3 == 0 and not removed & set(base.edges)
        assert set(base.edges) | removed == set(theta.edges), (a, b, c)
        assert base.vertex_count == theta.vertex_count
        for u, v in ((t1, t2), (t1, t3), (t2, t3)):
            assert not base.has_edge(u, v), (a, b, c)


def test_triple_deletion_makes_six_oracle_calls(monkeypatch):
    import csfkit.graphs as graphs

    calls = []

    def counting(graph):
        calls.append(graph)
        return _pbasis_codes(graph)

    monkeypatch.setattr(graphs, "_pbasis_codes", counting)
    base, triple = theta_deletion_instance(3, 3, 3)
    assert verify_triple_deletion(base, triple)
    assert len(calls) == 6
    assert len({frozenset(g.edges) for g in calls}) == 6


def test_triple_deletion_fails_when_one_oracle_term_is_off(monkeypatch):
    import csfkit.graphs as graphs

    # the graph with all three optional edges appears in the second identity only
    base, (t1, t2, t3) = theta_deletion_instance(3, 3, 3)
    tampered = frozenset(base.with_edges([(t1, t2), (t1, t3), (t2, t3)]).edges)

    def off_by_one_term(graph):
        codes = _pbasis_codes(graph)
        if frozenset(graph.edges) == tampered:
            n = graph.vertex_count
            code = _pack((n,), _width(n))  # one more p_n
            codes[code] = codes.get(code, 0) + 1
        return codes

    monkeypatch.setattr(graphs, "_pbasis_codes", off_by_one_term)
    assert not verify_triple_deletion(base, (t1, t2, t3))
    result = run_triple_deletion(count=0, seed=1)
    assert result.checked == 2 and len(result.violations) == 1, result.violations


def test_triple_deletion_on_a_small_handmade_graph():
    # a 6-cycle with one chord; vertices 0, 2, 4 are pairwise non-adjacent
    graph = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)])
    assert verify_triple_deletion(graph, (0, 2, 4))


def test_triple_deletion_rejects_non_stable_triples():
    path = build_path(5)
    with pytest.raises(ValueError):
        verify_triple_deletion(path, (0, 1, 3))
    with pytest.raises(ValueError):
        verify_triple_deletion(path, (0, 0, 2))
    with pytest.raises(ValueError):
        verify_triple_deletion(path, (0, 2, 7))


# ---------------------------------------------------------------------------
# positivity report


def test_positivity_report_on_cycle():
    report = e_positivity_report(closed_form_cycle(3))
    assert report.is_e_positive
    assert report.minimum == 6
    assert report.coefficients == {Partition((3,)): Fraction(6)}


def test_positivity_report_flags_negative_entries():
    expansion = EExpansion(4)
    expansion.add_term(Composition((4,)), 2)
    expansion.add_term(Composition((2, 2)), -1)
    report = e_positivity_report(expansion)
    assert not report.is_e_positive
    assert report.negative_partitions == (Partition((2, 2)),)
    assert report.minimum == -2  # coefficient times weight


def test_positivity_report_on_empty_expansion():
    report = e_positivity_report(EExpansion(4))
    assert report.is_e_positive and report.minimum is None
