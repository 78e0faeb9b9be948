"""Graph families, the power-sum oracle, and closed-form e-expansions.

The oracle computes the chromatic symmetric function of any small simple
graph with exact integer power-sum coefficients, by a frontier dynamic
program over the edges; the plain edge-subset sum is kept beside it as an
independent cross-check.  The closed forms for paths, cycles, tadpoles,
cycle-chords, three-path (theta) graphs and clocks sum w_I * c_I onto the
partitions rho(I) by one window dynamic program over the prefix moduli
(:func:`_window_sums`); no closed form walks the compositions, and the
phi-twisted theta form c' runs the untwisted body, whose grouped sums it
equals.  Comparing a grouped closed form with the oracle mapped to the
e-basis is the master correctness check for everything in this package.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from .compositions import (
    MAX_MODULUS, Composition, Partition, _Frozen, _check_clock, _check_container, _check_degree,
    _check_ints, _check_modulus, _check_theta, _pack, _width,
)
from .errors import ResourceLimitError
from .symfunc import Basis, BasisVector, _from_codes

# Hard API bound on oracle size: each extra edge doubles the subset count,
# which also bounds the number of frontier states.
MAX_ORACLE_EDGES = 30

# Degree bound of the window DP under the closed forms: its states grow with
# the partitions of n, and at n = 48 its slowest form (the cycle-chord delta
# with b near 38) takes about 1.6 s and a peak RSS near 105 MB.
MAX_WINDOW_DEGREE = 48


class Graph(_Frozen):
    """An immutable simple undirected graph on vertices 0 .. vertex_count-1."""

    __slots__ = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges: Iterable[Tuple[int, int]]):
        _check_ints("vertex count", vertex_count)
        if vertex_count < 1:
            raise ValueError(f"vertex count must be >= 1, got {vertex_count}")
        _check_container("edges", edges)
        canon = []
        seen = set()
        for edge in edges:
            if not (isinstance(edge, (tuple, list)) and len(edge) == 2):
                raise ValueError(f"edge must be a pair of vertices, got {edge!r}")
            u, v = edge
            _check_ints("edge end", u, v)
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

    def _args(self) -> tuple:
        return (self.vertex_count, self.edges)

    def __repr__(self) -> str:
        return f"Graph(vertex_count={self.vertex_count!r}, edges={self.edges!r})"

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def with_edges(self, extra: Iterable[Tuple[int, int]]) -> "Graph":
        return Graph(self.vertex_count, list(self.edges) + list(extra))

    def to_json_dict(self) -> dict:
        return {"n": self.vertex_count, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Graph":
        if not (isinstance(data, dict) and "n" in data and isinstance(data.get("edges"), list)):
            raise ValueError("a graph document is a dict with an 'n' and a list 'edges'")
        return cls(data["n"], data["edges"])


def build_path(n: int) -> Graph:
    """Path on n vertices."""
    _check_ints("path parameter", n)
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    _check_degree(n)
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def build_cycle(n: int) -> Graph:
    """Cycle on n vertices: the tadpole with an empty tail."""
    _check_ints("cycle parameter", n)
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return build_tadpole(n, 0)


def build_tadpole(a: int, l: int) -> Graph:
    """Cycle of length a with a pendant path of length l attached at vertex 0.

    a + l vertices and a + l edges; l = 0 degenerates to the plain cycle.
    """
    _check_ints("tadpole parameter", a, l)
    if a < 3:
        raise ValueError(f"tadpole cycle length must be >= 3, got {a}")
    if l < 0:
        raise ValueError(f"tail length must be >= 0, got {l}")
    _check_degree(a + l)
    edges = [(i, (i + 1) % a) for i in range(a)]
    prev = 0
    for i in range(l):
        edges.append((prev, a + i))
        prev = a + i
    return Graph(a + l, edges)


def _two_hub_graph(lengths: Tuple[int, ...]) -> Graph:
    # hubs 0 and 1 joined by paths with the given numbers of edges, in order;
    # interior vertices are numbered from 2 upward along each path
    _check_degree(2 + sum(lengths) - len(lengths))
    edges: List[Tuple[int, int]] = []
    cursor = 2
    for length in lengths:
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, cursor))
            prev = cursor
            cursor += 1
        edges.append((prev, 1))
    return Graph(cursor, edges)


def build_theta(a: int, b: int, c: int) -> Graph:
    """Two vertices joined by internally disjoint paths of lengths a, b, c.

    Requires a >= b >= c >= 1 with b >= 2 (two length-1 paths would be a
    multigraph).  Vertices: hub 0, hub 1, then the interiors of the a-, b-
    and c-paths in order; n = a + b + c - 1 vertices and n + 1 edges.
    """
    _check_theta(a, b, c)
    return _two_hub_graph((a, b, c))


def build_cycle_chord(a: int, b: int) -> Graph:
    """Two cycles sharing an edge: hubs joined by a chord and by paths of
    lengths a and b: the two-hub paths of lengths (1, a, b), for a < b too."""
    _check_ints("cycle-chord parameter", a, b)
    if a < 2 or b < 2:
        raise ValueError(f"cycle-chord needs a, b >= 2, got {(a, b)}")
    return _two_hub_graph((1, a, b))


def build_clock(a: int, b: int) -> Graph:
    """The theta graph whose shortest path has length exactly 2."""
    _check_clock(a, b)
    return build_theta(a, b, 2)


def _frontier_order(graph: Graph) -> List[Tuple[int, int]]:
    # Greedy vertex order: each component starts at a vertex of largest
    # degree; next comes the vertex with the most placed neighbours, ties to
    # the fewest unplaced neighbours, then the smallest label.  Edges follow
    # the position of their later endpoint, then of their earlier one, so a
    # vertex leaves the frontier soon after its neighbours are placed.
    neighbours: Dict[int, List[int]] = {}
    for u, v in graph.edges:
        neighbours.setdefault(u, []).append(v)
        neighbours.setdefault(v, []).append(u)
    placed = dict.fromkeys(neighbours, 0)

    def rank(x: int) -> Tuple[int, int, int]:
        degree = len(neighbours[x])
        if placed[x]:
            return (-placed[x], degree - placed[x], x)
        return (0, -degree, x)

    position: Dict[int, int] = {}
    while placed:
        w = min(placed, key=rank)
        position[w] = len(position)
        del placed[w]
        for x in neighbours[w]:
            if x in placed:
                placed[x] += 1
    return sorted(
        graph.edges, key=lambda e: sorted((position[e[0]], position[e[1]]), reverse=True)
    )


def _check_oracle_size(graph: Graph) -> None:
    # the edge cap bounds the subsets and states, the vertex cap the codes
    if graph.edge_count > MAX_ORACLE_EDGES:
        raise ResourceLimitError(
            f"oracle budget exceeded: {graph.edge_count} edges > limit {MAX_ORACLE_EDGES}"
        )
    if graph.vertex_count > MAX_MODULUS:
        raise ResourceLimitError(
            f"oracle budget exceeded: {graph.vertex_count} vertices > limit {MAX_MODULUS}"
        )


def _frontier_move(labels: tuple, grown: int, pu: int, pv: int, leaving: set) -> tuple:
    # What one edge does to a frontier state, which depends only on the
    # state's labels: () when both ends share a component (the two signs
    # cancel), else (lu, lv, keep, join).  keep is the branch without the
    # edge and join the branch with it, each as (the new labels, the old
    # labels in new label order, the old labels whose components close).
    count = max(labels, default=-1) + 1
    labels += tuple(range(count, count + grown))
    lu, lv = labels[pu], labels[pv]
    if lu == lv:
        return ()
    move = [lu, lv]
    for labs in (labels, tuple(lu if x == lv else x for x in labels)):
        kept = [x for p, x in enumerate(labs) if p not in leaving]
        closing = tuple({labs[p] for p in leaving}.difference(kept))
        order = tuple(dict.fromkeys(kept))
        relabel = {x: j for j, x in enumerate(order)}
        move.append((tuple(relabel[x] for x in kept), order, closing))
    return tuple(move)


def _pbasis_codes(graph: Graph) -> Dict[int, int]:
    """:func:`csf_pbasis` as {partition code: count}, in the codes of
    :mod:`csfkit.compositions` at width ``_width(n)``."""
    _check_oracle_size(graph)
    n = graph.vertex_count
    edges = _frontier_order(graph)
    last: Dict[int, int] = {}
    for i, (u, v) in enumerate(edges):
        last[u] = last[v] = i
    width = _width(n)
    # unit[s] is the code of one part of size s
    unit = [0] + [_pack((s,), width) for s in range(1, n + 1)]
    active: List[int] = []
    # (labels of the active vertices, sizes by label) -> {closed code -> count}
    states: Dict[tuple, Dict[int, int]] = {((), ()): {_pack((1,) * (n - len(last)), width): 1}}
    for i, (u, v) in enumerate(edges):
        grow = tuple(w for w in (u, v) if w not in active)
        active += grow
        pu, pv = active.index(u), active.index(v)
        leaving = {p for p, w in enumerate(active) if last[w] == i}
        ones = (1,) * len(grow)
        moves: Dict[tuple, tuple] = {}
        nxt: Dict[tuple, Dict[int, int]] = {}
        for (labels, sizes), closed in states.items():
            move = moves.get(labels)
            if move is None:
                move = moves[labels] = _frontier_move(labels, len(grow), pu, pv, leaving)
            if not move:
                continue
            lu, lv, keep, join = move
            sizes += ones
            joined = list(sizes)
            joined[lu] += sizes[lv]
            for sign, src, (labs, order, closing) in ((1, sizes, keep), (-1, joined, join)):
                key = (labs, tuple(map(src.__getitem__, order)))
                add = 0
                for x in closing:
                    add += unit[src[x]]
                target = nxt.setdefault(key, {})
                for c, k in closed.items():
                    c += add
                    target[c] = target.get(c, 0) + sign * k
        states = nxt
        active = [w for p, w in enumerate(active) if p not in leaving]
    # every vertex has left the frontier: one state remains
    (closed,) = states.values()
    return {code: count for code, count in closed.items() if count}


def csf_pbasis(graph: Graph) -> BasisVector:
    """Chromatic symmetric function in the power-sum basis.

    Evaluates the sum of (-1)^|S| p_{lambda(S)} over all edge subsets S,
    where lambda(S) is the partition of connected-component sizes of
    (V, S), as a frontier (transfer-matrix) dynamic program over the edges.
    The oracle picks the edge order itself from a greedy vertex order (see
    :func:`_frontier_order`); the sum does not depend on it, but the number
    of states does.  A vertex is active from its first edge to its last.
    A state holds the component labels of the active vertices, relabelled
    in order of first appearance, the sizes of the open components, and the
    multiset of closed component sizes as one partition code (see
    :mod:`csfkit.compositions`); it maps to a signed count.  A component closes
    when its last active vertex has seen its last edge; isolated vertices
    seed closed parts of size 1.  An edge inside one component adds the
    same partition with both signs, so such states drop out.  What an edge
    does to a state depends only on its labels, so it is worked out once
    per edge and distinct labels tuple (:func:`_frontier_move`).

    The frontier never holds more states than there are subsets, so the
    cap of ``MAX_ORACLE_EDGES`` edges (a :class:`ResourceLimitError` above
    it) still bounds the cost; the cap of ``MAX_MODULUS`` vertices bounds
    the size of a partition code.  :func:`csf_pbasis_subsets` keeps the plain
    subset sum on partition tuples as an independent cross-check.
    """
    return _from_codes(Basis.P, graph.vertex_count, _pbasis_codes(graph))


def csf_pbasis_subsets(graph: Graph) -> BasisVector:
    """:func:`csf_pbasis` by the plain sum over all 2^|E| edge subsets.

    Kept on purpose as the independent cross-check of the frontier
    program.  Components are tracked by a size-ranked union-find that is
    unwound on backtrack, so each subset costs amortized near-constant work
    on top of the leaf bookkeeping.  Cost is Theta(2^|E|): guarded by the
    same caps of ``MAX_ORACLE_EDGES`` edges and ``MAX_MODULUS`` vertices.
    """
    _check_oracle_size(graph)
    m = graph.edge_count
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


class EExpansion:
    """An expansion sum(coeff_I * w_I * e_I) over compositions I, kept as its
    sums over the classes rho(I), by partition code; the terms one by one are
    ``coeff_c``, ``coeff_c_prime``, ``coeff_D`` and ``delta`` of :mod:`csfkit.coefficients`."""

    def __init__(self, degree: int) -> None:
        _check_degree(degree)
        self.degree = degree
        self._sums: Dict[int, int] = {}

    def add_term(self, I: Composition, coeff: int) -> None:
        _check_modulus(I, self.degree)
        _check_ints("coefficient", coeff)
        code = _pack(I.parts, _width(self.degree))
        self._sums[code] = self._sums.get(code, 0) + coeff * I.weight

    def grouped_by_rho(self) -> BasisVector:
        """The sums by partition, as an e-basis vector (a copy)."""
        return _from_codes(Basis.E, self.degree, self._sums)


def _window_sums(n: int, v: int = 0, windows: tuple = (), const: int = 0) -> EExpansion:
    """Sums of w_I * c_I over the weight-positive compositions I of n by rho(I),
    with c_I = const + delta(I, v) (no delta when v = 0) + the sum over the
    windows (sign, lo, hi) of sign * sum_{k=lo..hi} theta_plus(I, k).

    A transfer-matrix DP (Stanley, EC1 4.7) over the path expansion
    sum w_I e_rho(I) (Shareshian-Wachs 2016): w_I = i_1 * prod (p - 1) is a
    product over the parts, the code of rho(I) a sum, and 2 c_I a sum of
    shares of the parts, with f = i_1.  A part p after the prefix modulus m
    spans (m, m + p]; it adds m + p - k to theta_plus(I, k) for each k of a
    window in (m, m + p].  delta(I, v) is e_2 of the pieces that the parts
    cut from the window (v, v + f], where wrap = max(0, v + f - n) wraps into
    i_1, or s * (leftover - f) when one part holds the whole window
    (``coefficients._delta_parts``).  In integers, with ov a part's piece,
    2 delta = f^2 - wrap^2 - sum ov^2 + 2 corr, where corr = (v - m) *
    (m + p - v - f) for the part that holds the window and 0 otherwise.

    A state is (m, key, code) and holds (sum w, sum 2 c w) over the prefixes
    that reach it.  While the window is open the key is min(f, n - v): every
    f >= n - v reads (v, n], so those share one key.  The key drops to 0 once
    m >= v + key, and is 0 throughout without delta.  The sums halve exactly
    at the end.  Degrees above ``MAX_WINDOW_DEGREE`` are refused.
    """
    expansion = EExpansion(n)
    if n > MAX_WINDOW_DEGREE:
        raise ResourceLimitError(
            f"closed-form budget exceeded: n {n} > limit {MAX_WINDOW_DEGREE}")
    width = _width(n)
    unit = [0] + [_pack((s,), width) for s in range(1, n + 1)]
    # shares[m][p]: twice the windows' share of the part p after modulus m
    shares = []
    for m in range(n):
        row = [0] * (n - m + 1)
        for p in range(1, n - m + 1):
            top = m + p
            for sign, lo, hi in windows:
                first, last = max(lo, m + 1), min(hi, top)
                if first <= last:
                    row[p] += sign * (last - first + 1) * (2 * top - first - last)
        shares.append(row)
    # layers[m]: {key: {code: [sum w, sum 2 c w]}}
    layers: List[Optional[dict]] = [{} for _ in range(n + 1)]
    for f in range(1, n + 1):
        twice, key = 2 * const + shares[0][f], 0
        if v:
            wrap, own = max(0, v + f - n), max(0, f - v)
            twice += f * f - wrap * wrap - own * own
            key = min(f, n - v)
        layers[f][key] = {unit[f]: [f, f * twice]}
    for m in range(1, n):
        row = shares[m]
        for key, sums in layers[m].items():
            for p in range(2, n - m + 1):
                top, twice, nxt = m + p, row[p], 0
                if key:
                    ov = min(top, v + key) - max(m, v)
                    if ov > 0:
                        twice -= ov * ov
                        if m < v and v + key <= top:
                            twice += 2 * (v - m) * (top - v - key)
                    if top < v + key:
                        nxt = key
                target = layers[top].setdefault(nxt, {})
                k, u = p - 1, unit[p]
                for code, (w, s) in sums.items():
                    code += u
                    entry = target.get(code)
                    if entry is None:
                        target[code] = [w * k, (s + w * twice) * k]
                    else:
                        entry[0] += w * k
                        entry[1] += (s + w * twice) * k
        layers[m] = None
    # every 2 c_I is even, so each sum halves exactly
    total = expansion._sums
    for sums in layers[n].values():
        for code, (_, s) in sums.items():
            total[code] = total.get(code, 0) + s // 2
    return expansion


def closed_form_path(n: int) -> EExpansion:
    """Every positive-weight composition contributes with coefficient 1."""
    _check_ints("path parameter", n)
    if n < 1:
        raise ValueError(f"path needs n >= 1, got {n}")
    return _window_sums(n, const=1)


def closed_form_cycle(n: int) -> EExpansion:
    """Coefficient i_1 - 1: the tadpole expansion with an empty tail."""
    _check_ints("cycle parameter", n)
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return closed_form_tadpole(n, 0)


def closed_form_tadpole(a: int, l: int) -> EExpansion:
    """Coefficient theta_plus(I, l + 1) for the cycle-a, tail-l tadpole.

    The formula degrades gracefully at the ends of the tail range: l = 0
    reproduces the cycle coefficients and l = n - 2 the path coefficients,
    so a = 2 is accepted here even though no simple graph exists for it.
    """
    _check_ints("tadpole parameter", a, l)
    if a < 2:
        raise ValueError(f"tadpole expansion needs cycle length >= 2, got {a}")
    if l < 0:
        raise ValueError(f"tail length must be >= 0, got {l}")
    return _window_sums(a + l, windows=((1, l + 1, l + 1),))


def closed_form_cycle_chord(a: int, b: int, form: str = "delta") -> EExpansion:
    """Cycle-chord expansion, in either of its two equivalent displays.

    ``form="delta"`` uses delta(I, b) alone, the theta coefficient at c = 1
    (both overshoot sums empty) for every a, b >= 2; ``form="theta-sum"``
    uses sum_{k=1..b} theta_plus(I, k) - sum_{k=n-b+1..n-1} theta_plus(I, k),
    the undershoots of the reversal at 1..b-1 read by theta-duality.
    """
    _check_ints("cycle-chord parameter", a, b)
    if a < 2 or b < 2:
        raise ValueError(f"cycle-chord needs a, b >= 2, got {(a, b)}")
    _check_form("cycle-chord", form)
    if form == "delta":
        return _window_sums(a + b, b)
    return _window_sums(a + b, windows=((1, 1, b), (-1, a + 1, a + b - 1)))


def closed_form_theta(a: int, b: int, c: int, variant: str = "c") -> EExpansion:
    """Three-path expansion with coefficients c_I or the phi-twisted c'_I:
    delta(I, b+c-1) + sum_{k=2..c} theta_plus(I, k) - sum_{k=n-a-c+2..n-a}
    theta_plus(J, k), with J = phi(I, a) for c'_I and J = I for c_I.

    The two variants group to one vector, so both run the c_I window DP.
    phi(., a) is an involution on the weight-positive compositions that keeps
    rho and w, and only the last sum reads J: substituting J = phi(I) there
    turns sum w_I c'_I e_rho(I) into sum w_I c_I e_rho(I).
    """
    _check_form("theta", variant)
    _check_theta(a, b, c)
    n = a + b + c - 1
    return _window_sums(n, b + c - 1, ((1, 2, c), (-1, n - a - c + 2, n - a)))


def closed_form_clock(a: int, b: int) -> EExpansion:
    """Clock expansion with coefficients D_I: the three-path expansion at
    c = 2 with the phi-twisted coefficients c'_I, which at c = 2 equal the
    untwisted c_I term by term."""
    _check_clock(a, b)
    return closed_form_theta(a, b, 2)


class Family(NamedTuple):
    """A graph family: its integer parameters in CLI order, its degree
    (sum of the parameters plus ``degree_offset``), its graph builder, and
    its closed forms by display label, the first being the default."""

    params: Tuple[str, ...]
    degree_offset: int
    build: Callable[..., Graph]
    forms: Dict[str, Callable[..., EExpansion]]


# Path keeps its own form, the constant 1, since no tadpole has n = 1.  The
# cycle-chord ``delta`` form is the window DP's delta at v = b, the theta
# coefficient at c = 1, for every a, b, a < b included.
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
        _check_ints(f"parameter --{name}", params[name])
    return record, tuple(params[name] for name in record.params)


def _check_form(family: str, form: str) -> None:
    # a display label of the family's closed form, by FAMILY_TABLE
    forms = tuple(FAMILY_TABLE[family].forms)
    if form not in forms:
        raise ValueError(f"family {family!r} has no form {form!r}; expected one of {forms}")


def expansion_closed_form(family: str, form: Optional[str] = None, **params) -> EExpansion:
    """The family's closed form in the given display form (default: its first)."""
    record, args = _family_args(family, params)
    if form is None:
        form = next(iter(record.forms))
    _check_form(family, form)
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

    computed exactly via the oracle, as signed sums of its partition codes
    (one width, since the six graphs share the vertex count).  Returns True
    when both hold.
    """
    t1, t2, t3 = triple
    _check_ints("triple vertex", t1, t2, t3)
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

    def X(*labels: int) -> Dict[int, int]:
        return _pbasis_codes(graph.with_edges([optional[j] for j in labels]))

    # six distinct graphs; X(2,3) and X(3) appear in both identities
    x23, x3 = X(2, 3), X(3)
    first = not _signed_code_sum((1, X(1, 2)), (-1, X(1)), (-1, x23), (1, x3))
    second = not _signed_code_sum((1, X(1, 2, 3)), (-1, X(1, 3)), (-1, x23), (1, x3))
    return first and second


def _signed_code_sum(*terms: Tuple[int, Dict[int, int]]) -> Dict[int, int]:
    # sum of sign * codes over (sign, codes) pairs of one width, without
    # zero counts: empty exactly when the signed sum of the vectors is 0
    acc: Dict[int, int] = {}
    for sign, codes in terms:
        for code, count in codes.items():
            acc[code] = acc.get(code, 0) + sign * count
    return {code: count for code, count in acc.items() if count}


class PositivityReport(NamedTuple):
    """Partition-grouped view of an expansion with its negativity summary."""

    degree: int
    coefficients: Dict[Partition, int]
    minimum: Optional[int]
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
