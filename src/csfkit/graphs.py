"""Graph families, the power-sum oracle, and closed-form e-expansions.

The oracle computes the chromatic symmetric function of any small simple
graph with exact integer power-sum coefficients, by a frontier dynamic
program over the edges; the plain edge-subset sum is kept beside it as an
independent cross-check.  The closed forms assemble composition-indexed
e-expansions for paths, cycles, tadpoles, cycle-chords, three-path (theta)
graphs and clocks; comparing a grouped closed form with the oracle mapped
to the e-basis is the master correctness check for everything in this
package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .compositions import Composition, Partition, _theta_plus, weight_positive_compositions
from .coefficients import _c_parts, _delta_parts, _solve_psqt_parts
from .errors import ResourceLimitError
from .symfunc import Basis, BasisVector

# Hard API bound on oracle size: each extra edge doubles the subset count,
# which also bounds the number of frontier states.
MAX_ORACLE_EDGES = 30


@dataclass(frozen=True)
class Graph:
    """A simple undirected graph on vertices 0 .. vertex_count-1."""

    vertex_count: int
    edges: Tuple[Tuple[int, int], ...]
    # lookup index for has_edge; derived from edges, so not part of identity
    edge_set: frozenset = field(compare=False, repr=False)

    def __init__(self, vertex_count: int, edges: Iterable[Tuple[int, int]]):
        if vertex_count < 1:
            raise ValueError(f"vertex count must be >= 1, got {vertex_count}")
        canon = []
        seen = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range")
            pair = (u, v) if u < v else (v, u)
            if pair in seen:
                raise ValueError(f"duplicate edge {pair}")
            seen.add(pair)
            canon.append(pair)
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", tuple(canon))
        object.__setattr__(self, "edge_set", frozenset(seen))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        pair = (u, v) if u < v else (v, u)
        return pair in self.edge_set

    def with_edges(self, extra: Iterable[Tuple[int, int]]) -> "Graph":
        return Graph(self.vertex_count, list(self.edges) + list(extra))

    def to_json_dict(self) -> dict:
        return {"n": self.vertex_count, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Graph":
        return cls(int(data["n"]), [tuple(e) for e in data["edges"]])


def build_path(n: int) -> Graph:
    """Path on n vertices."""
    if n < 1:
        raise ValueError(f"path needs n >= 1 vertices, got {n}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def build_cycle(n: int) -> Graph:
    """Cycle on n vertices: the tadpole with an empty tail."""
    if n < 3:
        raise ValueError(f"cycle needs n >= 3 vertices, got {n}")
    return build_tadpole(n, 0)


def build_tadpole(a: int, l: int) -> Graph:
    """Cycle of length a with a pendant path of length l attached at vertex 0.

    a + l vertices and a + l edges; l = 0 degenerates to the plain cycle.
    """
    if a < 3:
        raise ValueError(f"tadpole cycle length must be >= 3, got {a}")
    if l < 0:
        raise ValueError(f"tail length must be >= 0, got {l}")
    edges = [(i, (i + 1) % a) for i in range(a)]
    prev = 0
    for i in range(l):
        edges.append((prev, a + i))
        prev = a + i
    return Graph(a + l, edges)


def _path_edges(u: int, v: int, length: int, first_interior: int) -> Tuple[list, int]:
    # edges of a u-v path with the given number of edges, allocating interior
    # vertices from first_interior upward; returns (edges, next free vertex)
    if length == 1:
        return [(u, v)], first_interior
    edges = []
    prev = u
    cursor = first_interior
    for _ in range(length - 1):
        edges.append((prev, cursor))
        prev = cursor
        cursor += 1
    edges.append((prev, v))
    return edges, cursor


def build_theta(a: int, b: int, c: int) -> Graph:
    """Two vertices joined by internally disjoint paths of lengths a, b, c.

    Requires a >= b >= c >= 1 with b >= 2 (two length-1 paths would be a
    multigraph).  Vertices: hub 0, hub 1, then the interiors of the a-, b-
    and c-paths in order; n = a + b + c - 1 vertices and n + 1 edges.
    """
    if not (a >= b >= c >= 1):
        raise ValueError(f"theta lengths must satisfy a >= b >= c >= 1, got {(a, b, c)}")
    if b < 2:
        raise ValueError(f"at most one path may have length 1, got {(a, b, c)}")
    edges: List[Tuple[int, int]] = []
    cursor = 2
    for length in (a, b, c):
        new_edges, cursor = _path_edges(0, 1, length, cursor)
        edges.extend(new_edges)
    return Graph(a + b + c - 1, edges)


def build_cycle_chord(a: int, b: int) -> Graph:
    """Two cycles sharing an edge: hubs joined by a chord and by paths of
    lengths a and b.  Same graph as a theta with one length-1 path."""
    if a < 2 or b < 2:
        raise ValueError(f"cycle-chord needs a, b >= 2, got {(a, b)}")
    edges: List[Tuple[int, int]] = [(0, 1)]
    cursor = 2
    for length in (a, b):
        new_edges, cursor = _path_edges(0, 1, length, cursor)
        edges.extend(new_edges)
    return Graph(a + b, edges)


def build_clock(a: int, b: int) -> Graph:
    """The theta graph whose shortest path has length exactly 2."""
    if not (a >= b >= 2):
        raise ValueError(f"clock needs a >= b >= 2, got {(a, b)}")
    return build_theta(a, b, 2)


def csf_pbasis(graph: Graph, max_edges: int = MAX_ORACLE_EDGES) -> BasisVector:
    """Chromatic symmetric function in the power-sum basis.

    Evaluates the sum of (-1)^|S| p_{lambda(S)} over all edge subsets S,
    where lambda(S) is the partition of connected-component sizes of
    (V, S), as a frontier (transfer-matrix) dynamic program over the edges
    in order.  A vertex is active from its first edge to its last.  A state
    holds the component labels of the active vertices, relabelled in order
    of first appearance, the sizes of the open components, and the multiset
    of closed component sizes; it maps to a signed count.  A component
    closes when its last active vertex has seen its last edge; isolated
    vertices seed closed parts of size 1.  An edge inside one component
    adds the same partition with both signs, so such states drop out.

    The frontier never holds more states than there are subsets, so
    ``max_edges`` still bounds the cost.  :func:`csf_pbasis_subsets` keeps
    the plain subset sum as an independent cross-check.
    """
    m = graph.edge_count
    if m > max_edges:
        raise ResourceLimitError(
            f"oracle budget exceeded: {m} edges > limit {max_edges}"
        )
    n = graph.vertex_count
    last: Dict[int, int] = {}
    for i, (u, v) in enumerate(graph.edges):
        last[u] = last[v] = i
    # the closed multiset is one int: the count of parts of size s sits in
    # the bits [width * (s - 1), width * s)
    width = n.bit_length()
    active: List[int] = []
    # (labels of the active vertices, sizes by label) -> {closed code -> count}
    states: Dict[tuple, Dict[int, int]] = {((), ()): {n - len(last): 1}}
    for i, (u, v) in enumerate(graph.edges):
        grow = tuple(w for w in (u, v) if w not in active)
        active += grow
        pu, pv = active.index(u), active.index(v)
        leaving = {p for p, w in enumerate(active) if last[w] == i}
        nxt: Dict[tuple, Dict[int, int]] = {}
        for (labels, sizes), closed in states.items():
            if grow:
                labels += tuple(range(len(sizes), len(sizes) + len(grow)))
                sizes += (1,) * len(grow)
            lu, lv = labels[pu], labels[pv]
            if lu == lv:
                continue
            joined = list(sizes)
            joined[lu] += joined[lv]
            for sign, labs, sizs in (
                (1, labels, sizes),
                (-1, tuple(lu if x == lv else x for x in labels), joined),
            ):
                add = 0
                if leaving:
                    kept = [x for p, x in enumerate(labs) if p not in leaving]
                    for x in {labs[p] for p in leaving}.difference(kept):
                        add += 1 << (width * (sizs[x] - 1))
                    labs = kept
                relabel: Dict[int, int] = {}
                for x in labs:
                    if x not in relabel:
                        relabel[x] = len(relabel)
                key = (tuple(relabel[x] for x in labs), tuple(sizs[x] for x in relabel))
                target = nxt.get(key)
                if target is None:
                    if sign > 0 and not add:
                        # nothing closed: hand the dict on without a copy;
                        # the branch with the edge has one component fewer,
                        # so it never merges into this key
                        nxt[key] = closed
                    else:
                        nxt[key] = {c + add: sign * k for c, k in closed.items()}
                else:
                    for c, k in closed.items():
                        c += add
                        target[c] = target.get(c, 0) + sign * k
        states = nxt
        active = [w for p, w in enumerate(active) if p not in leaving]
    mask = (1 << width) - 1
    terms: Dict[tuple, int] = {}
    for closed in states.values():
        for code, count in closed.items():
            parts: List[int] = []
            for s in range(n, 0, -1):
                parts += [s] * ((code >> (width * (s - 1))) & mask)
            terms[tuple(parts)] = count
    return BasisVector(Basis.P, n, terms)


def csf_pbasis_subsets(graph: Graph, max_edges: int = MAX_ORACLE_EDGES) -> BasisVector:
    """:func:`csf_pbasis` by the plain sum over all 2^|E| edge subsets.

    Kept on purpose as the independent cross-check of the frontier
    program.  Components are tracked by a size-ranked union-find that is
    unwound on backtrack, so each subset costs amortized near-constant work
    on top of the leaf bookkeeping.  Cost is Theta(2^|E|): guarded by
    ``max_edges``.
    """
    m = graph.edge_count
    if m > max_edges:
        raise ResourceLimitError(
            f"oracle budget exceeded: {m} edges > limit {max_edges}"
        )
    n = graph.vertex_count
    parent = list(range(n))
    size = [1] * n
    edges = graph.edges
    acc: Dict[tuple, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def recurse(i: int, sign: int) -> None:
        if i == m:
            lam = sorted(
                (size[v] for v in range(n) if parent[v] == v), reverse=True
            )
            key = tuple(lam)
            acc[key] = acc.get(key, 0) + sign
            return
        recurse(i + 1, sign)
        u, v = edges[i]
        ru, rv = find(u), find(v)
        if ru == rv:
            recurse(i + 1, -sign)
        else:
            if size[ru] < size[rv]:
                ru, rv = rv, ru
            parent[rv] = ru
            size[ru] += size[rv]
            recurse(i + 1, -sign)
            size[ru] -= size[rv]
            parent[rv] = rv

    # depth m + 1 <= MAX_ORACLE_EDGES + 1 stays far below the default recursion limit
    recurse(0, 1)
    return BasisVector(Basis.P, n, acc)


@dataclass
class EExpansion:
    """A composition-indexed expansion sum(coeff_I * w_I * e_I).

    ``entries`` maps each composition to its (coefficient, weight) pair;
    compositions whose product contributes nothing are omitted.
    """

    degree: int
    entries: Dict[Composition, Tuple[int, int]] = field(default_factory=dict)

    def add_term(self, I: Composition, coeff: int) -> None:
        if I.modulus != self.degree:
            raise ValueError(
                f"composition {I} has modulus {I.modulus}, expected {self.degree}"
            )
        if coeff:
            self.entries[I] = (coeff, I.weight)

    def grouped_by_rho(self) -> BasisVector:
        """Collect coeff * weight onto partitions, as an e-basis vector."""
        acc: Dict[Partition, int] = {}
        for I, (coeff, weight) in self.entries.items():
            lam = I.rho()
            acc[lam] = acc.get(lam, 0) + coeff * weight
        return BasisVector(Basis.E, self.degree, acc)


def _assemble(n: int, coeff_fn) -> EExpansion:
    # coeff_fn(parts, moduli) evaluates the coefficient on the kernel tuples
    expansion = EExpansion(n)
    for I in weight_positive_compositions(n):
        expansion.add_term(I, coeff_fn(I.parts, I.prefix_moduli))
    return expansion


def closed_form_path(n: int) -> EExpansion:
    """Every positive-weight composition contributes with coefficient 1."""
    if n < 1:
        raise ValueError(f"path expansion needs n >= 1, got {n}")
    return _assemble(n, lambda parts, moduli: 1)


def closed_form_cycle(n: int) -> EExpansion:
    """Coefficient i_1 - 1: the tadpole expansion with an empty tail."""
    if n < 3:
        raise ValueError(f"cycle expansion needs n >= 3, got {n}")
    return closed_form_tadpole(n, 0)


def closed_form_tadpole(a: int, l: int) -> EExpansion:
    """Coefficient theta_plus(I, l + 1) for the cycle-a, tail-l tadpole.

    The formula degrades gracefully at the ends of the tail range: l = 0
    reproduces the cycle coefficients and l = n - 2 the path coefficients,
    so a = 2 is accepted here even though no simple graph exists for it.
    """
    if a < 2:
        raise ValueError(f"tadpole expansion needs cycle length >= 2, got {a}")
    if l < 0:
        raise ValueError(f"tail length must be >= 0, got {l}")
    n = a + l
    return _assemble(n, lambda parts, moduli: _theta_plus(moduli, l + 1))


def closed_form_cycle_chord(a: int, b: int, form: str = "delta") -> EExpansion:
    """Cycle-chord expansion, in either of its two equivalent displays.

    ``form="delta"`` uses the kernel delta(I, b); ``form="theta-sum"`` uses
    sum_{i=1..b} theta_plus(I, i) - sum_{i=1..b-1} theta_minus(reversed I, i).
    """
    if a < 2 or b < 2:
        raise ValueError(f"cycle-chord expansion needs a, b >= 2, got {(a, b)}")
    n = a + b
    if form == "delta":
        return _assemble(
            n, lambda parts, moduli: _delta_parts(parts, _solve_psqt_parts(parts, moduli, b - 1))
        )
    if form == "theta-sum":

        def coeff(parts: tuple, moduli: tuple) -> int:
            # theta_minus(reversed I, i) read as theta_plus(I, n - i)
            total = 0
            for i in range(1, b + 1):
                total += _theta_plus(moduli, i)
            for i in range(1, b):
                total -= _theta_plus(moduli, n - i)
            return total

        return _assemble(n, coeff)
    raise ValueError(f"unknown cycle-chord form {form!r}")


def closed_form_theta(a: int, b: int, c: int, variant: str = "c") -> EExpansion:
    """Three-path expansion with coefficients c_I or the phi-twisted c'_I."""
    if variant not in ("c", "c-prime"):
        raise ValueError(f"unknown theta variant {variant!r}")
    if not (a >= b >= c >= 1) or b < 2:
        raise ValueError(
            f"theta expansion needs a >= b >= c >= 1 with b >= 2, got {(a, b, c)}"
        )
    twisted = variant == "c-prime"
    return _assemble(a + b + c - 1, lambda parts, moduli: _c_parts(
        parts, moduli, a, c, _solve_psqt_parts(parts, moduli, b + c - 2), twisted))


def closed_form_clock(a: int, b: int) -> EExpansion:
    """Clock expansion with coefficients D_I: the three-path expansion at
    c = 2 with the phi-twisted coefficients c'_I, which at c = 2 equal the
    untwisted c_I term by term, so the untwisted body is run."""
    if not (a >= b >= 2):
        raise ValueError(f"clock expansion needs a >= b >= 2, got {(a, b)}")
    return closed_form_theta(a, b, 2)


@dataclass(frozen=True)
class Family:
    """A graph family: its integer parameters in CLI order, its degree
    (sum of the parameters plus ``degree_offset``), its graph builder, and
    its closed forms by display label, the first being the default."""

    params: Tuple[str, ...]
    degree_offset: int
    build: Callable[..., Graph]
    forms: Dict[str, Callable[..., EExpansion]]


# Path and cycle-chord keep their own kernels: no tadpole has n = 1, and
# cycle-chord(a, b) is theta(a, b, 1) only for a >= b.
FAMILY_TABLE: Dict[str, Family] = {
    "path": Family(("n",), 0, build_path, {"closed-form": closed_form_path}),
    "cycle": Family(("n",), 0, build_cycle, {"closed-form": closed_form_cycle}),
    "tadpole": Family(("a", "l"), 0, build_tadpole, {"closed-form": closed_form_tadpole}),
    "cycle-chord": Family(("a", "b"), 0, build_cycle_chord, {
        "delta": lambda a, b: closed_form_cycle_chord(a, b, form="delta"),
        "theta-sum": lambda a, b: closed_form_cycle_chord(a, b, form="theta-sum"),
    }),
    "theta": Family(("a", "b", "c"), -1, build_theta, {
        "c": lambda a, b, c: closed_form_theta(a, b, c, variant="c"),
        "c-prime": lambda a, b, c: closed_form_theta(a, b, c, variant="c-prime"),
    }),
    "clock": Family(("a", "b"), 1, build_clock, {"closed-form": closed_form_clock}),
}

FAMILIES = tuple(FAMILY_TABLE)


def _family_args(family: str, params: dict) -> Tuple[Family, tuple]:
    if family not in FAMILY_TABLE:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    record = FAMILY_TABLE[family]
    unknown = [name for name, value in params.items()
               if value is not None and name not in record.params]
    if unknown:
        raise ValueError(
            f"family {family!r} takes no parameter {unknown[0]!r}; expected {record.params}"
        )
    for name in record.params:
        if params.get(name) is None:
            raise ValueError(f"family {family!r} requires parameter --{name}")
    return record, tuple(int(params[name]) for name in record.params)


def expansion_closed_form(family: str, form: Optional[str] = None, **params) -> EExpansion:
    """The family's closed form in the given display form (default: its first)."""
    record, args = _family_args(family, params)
    if form is None:
        form = next(iter(record.forms))
    if form not in record.forms:
        raise ValueError(
            f"family {family!r} has no form {form!r}; expected one of {tuple(record.forms)}"
        )
    return record.forms[form](*args)


def build_family_graph(family: str, **params) -> Graph:
    """Construct the graph for a family given its parameters."""
    record, args = _family_args(family, params)
    return record.build(*args)


def family_degree(family: str, **params) -> int:
    """Degree (vertex count) of the family instance, for budget checks."""
    record, args = _family_args(family, params)
    return sum(args) + record.degree_offset


def verify_triple_deletion(graph: Graph, triple: Tuple[int, int, int]) -> bool:
    """Check the two deletion identities over a stable triple of vertices.

    ``triple`` = (t1, t2, t3) must be pairwise non-adjacent in ``graph``.
    With e_j the edge joining the two vertices other than t_j, and G_S the
    graph plus the edges indexed by S, the identities are

        X(G_12)  = X(G_1)  + X(G_23) - X(G_3)
        X(G_123) = X(G_13) + X(G_23) - X(G_3)

    computed exactly via the oracle.  Returns True when both hold.
    """
    t1, t2, t3 = triple
    if len({t1, t2, t3}) != 3:
        raise ValueError(f"triple {triple} must contain three distinct vertices")
    for t in triple:
        if not (0 <= t < graph.vertex_count):
            raise ValueError(f"vertex {t} out of range")
    for u, v in ((t1, t2), (t1, t3), (t2, t3)):
        if graph.has_edge(u, v):
            raise ValueError(
                f"triple {triple} is not stable: edge ({u}, {v}) present"
            )
    optional = {1: (t2, t3), 2: (t1, t3), 3: (t1, t2)}

    def X(*labels: int) -> BasisVector:
        return csf_pbasis(graph.with_edges([optional[j] for j in labels]))

    # six distinct graphs; X(2,3) and X(3) appear in both identities
    x23_minus_x3 = X(2, 3).subtract(X(3))
    first = X(1, 2).equals(X(1).add(x23_minus_x3))
    second = X(1, 2, 3).equals(X(1, 3).add(x23_minus_x3))
    return first and second


@dataclass(frozen=True)
class PositivityReport:
    """Partition-grouped view of an expansion with its negativity summary."""

    degree: int
    coefficients: Dict[Partition, Fraction]
    minimum: Optional[Fraction]
    negative_partitions: Tuple[Partition, ...]

    @property
    def is_e_positive(self) -> bool:
        return not self.negative_partitions


def e_positivity_report(expansion: EExpansion) -> PositivityReport:
    """Group an expansion by partition and report any negative coefficients."""
    grouped = expansion.grouped_by_rho()
    coeffs = dict(grouped.items_sorted())
    negatives = tuple(lam for lam, coef in coeffs.items() if coef < 0)
    minimum = min(coeffs.values()) if coeffs else None
    return PositivityReport(expansion.degree, coeffs, minimum, negatives)
