"""Exhaustive verification suites over composition and parameter sweeps.

Each suite re-checks one family of structural facts used by the closed-form
expansions: involution and preservation properties of phi, reversal duality
of the prefix statistics, the solver identities and coefficient bounds, the
fiber structure of the partial reversal, nonnegativity of the grouped
expansions (an expansion whose grouped sums all vanish fails), and the
deletion identities.  Suites report a checked count and a list of
counterexample descriptions (empty means the sweep passed).

Each composition suite enumerates the compositions of n once per n, as part
tuples (``compositions._composition_tuples``) with their moduli computed once,
or as ``_weight_positive_terms`` (c-doubleprime, positivity); it evaluates the
private kernel of :mod:`csfkit.coefficients` on them and holds, for all
parameters of that n, only Fibonacci-sized lists: positive weight
(lemma-bounds, c-doubleprime) and parts >= 2 (fiber).  W_> and A are the bool
tests ``_in_w_gt`` and ``_in_A`` (only ``classify`` builds a ``WClass``);
fiber splits its list by ``_in_w_gt`` once per pair and looks fiber elements
and psi images up in the two halves; lemma-bounds walks its list once per
clock pair.  Clock routes build D_I = ``_theta_coeff(a, b, 2, False)`` once
per pair; c-doubleprime stores the pair's D_I * w_I by parts, read by its
clock sum and every c'' sum.  Messages print compositions by
``format_parts``, as ``str(Composition)`` does, and only on failure: no
passing sweep formats a composition.

c-doubleprime and positivity run one pure task per n and sum by partition
code, decoded only in a failure message; c-doubleprime's task lists the
``clock_pairs(n)`` inside its box, and positivity sums every clock and
cycle-chord of n (theta at c = 2 and c = 1) in one pass.  Both optionally fan
out over a process pool, highest n first, and merge in task order: output
does not depend on the worker count.  Only triple-deletion loads graphs.
Positivity's per-term walk is kept on purpose as the independent route to
the clock and cycle-chord grouped vectors that the closed forms' window DP
also builds; ``test_positivity_matches_the_per_pair_closed_form_route_to_n14``
compares the two.

``SUITE_TABLE`` maps each suite to a runner whose parameters after the budget
are the ``verify`` flags it reads (``suite_flags``); ``run_suite`` rejects any
other flag, so a sweep never silently runs a range other than the one asked.
A runner also refuses a range that checks nothing, naming where the suite starts.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .coefficients import (
    _c_doubleprime_parts, _delta_parts, _fiber_parts, _in_A, _in_w_gt, _phi_parts, _psi_parts,
    _solve_psqt_parts, _split_cut, _theta_coeff,
)
from .compositions import (
    Partition, _check_clock, _check_degree, _check_ints, _check_theta, _composition_tuples,
    _moduli, _theta_minus, _theta_plus, _unpack, _weight, _weight_positive_terms, _width,
    format_parts,
)
from .errors import MAX_INSTANCE_COUNT, ResourceLimitError, _check_budget

MAX_REPORTED_VIOLATIONS = 50


class SuiteResult:
    def __init__(self, name: str) -> None:
        self.name = name
        self.checked = 0
        self.violations: List[str] = []
        self.notes: List[str] = []
        # notes on the request, not the result: the CLI prints them on stderr
        self.stderr_notes: List[str] = []

    @property
    def ok(self) -> bool:
        # a range that checks nothing proves nothing
        return self.checked > 0 and not self.violations

    def fail(self, message: str) -> None:
        if len(self.violations) < MAX_REPORTED_VIOLATIONS:
            self.violations.append(message)
        elif len(self.violations) == MAX_REPORTED_VIOLATIONS:
            self.violations.append("... further violations suppressed")


def clock_pairs(n: int) -> List[Tuple[int, int]]:
    """All (a, b) with a >= b >= 2 and a + b + 1 = n."""
    _check_degree(n)
    return [(n - 1 - b, b) for b in range(2, (n - 1) // 2 + 1)]


def theta_triples(n: int, min_c: int = 1) -> List[Tuple[int, int, int]]:
    """All (a, b, c) with a >= b >= c >= min_c, b >= 2, a + b + c - 1 = n."""
    _check_degree(n)
    _check_ints("min_c", min_c)
    if min_c < 1:
        raise ValueError(f"min_c must be >= 1, got {min_c}")
    triples = []
    for c in range(min_c, n):
        for b in range(max(c, 2), n):
            a = n + 1 - b - c
            if a >= b:
                triples.append((a, b, c))
    return sorted(triples)


# ---------------------------------------------------------------------------
# phi-involution


def run_phi_involution(ns: Sequence[int]) -> SuiteResult:
    result = SuiteResult("phi-involution")
    for n in ns:
        for parts in _composition_tuples(n):
            moduli = _moduli(parts)
            rho = sorted(parts)
            weight = _weight(parts)
            result.checked += n
            J = None
            for a in range(1, n + 1):
                image = _phi_parts(parts, moduli, a)
                # the cut moves monotonically with a, so equal images come in
                # runs: J's moduli and its partition and weight facts are
                # computed once per run
                if image != J:
                    J = image
                    j_moduli = moduli if J is parts else _moduli(J)
                    same_rho = sorted(J) == rho
                    same_weight = _weight(J) == weight and J[0] == parts[0]
                if _phi_parts(J, j_moduli, a) != parts:
                    result.fail(f"phi not an involution at I={format_parts(parts)}, a={a}")
                if not same_rho:
                    result.fail(f"phi changed the partition at I={format_parts(parts)}, a={a}")
                if not same_weight:
                    result.fail(f"phi changed the weight at I={format_parts(parts)}, a={a}")
                if _in_A(parts, moduli, a) and not _in_A(J, j_moduli, a):
                    result.fail(
                        f"phi left the exact-suffix family at I={format_parts(parts)}, a={a}"
                    )
    return result


# ---------------------------------------------------------------------------
# theta-duality


def run_theta_duality(ns: Sequence[int]) -> SuiteResult:
    result = SuiteResult("theta-duality")
    for n in ns:
        for parts in _composition_tuples(n):
            moduli = _moduli(parts)
            # the real reversal, with its own moduli
            rev_moduli = _moduli(parts[::-1])
            result.checked += n + 1
            for a in range(0, n + 1):
                if _theta_minus(moduli, a) != _theta_plus(rev_moduli, n - a):
                    result.fail(
                        f"undershoot/overshoot duality fails at I={format_parts(parts)}, a={a}"
                    )
    return result


# ---------------------------------------------------------------------------
# lemma-bounds


def run_lemma_bounds(ns: Sequence[int]) -> SuiteResult:
    result = SuiteResult("lemma-bounds")
    counts: Dict[str, int] = {
        "W> q=p": 0,
        "W> q>p exact-suffix": 0,
        "W> q>p no-exact-suffix": 0,
        "W<=": 0,
    }
    for n in ns:
        # solver identities hold for every split n = a + b + 1, not only the
        # clock-parameter range; rev_moduli are those of the real reversal, so
        # this check stays independent of theta-duality
        for parts in _composition_tuples(n):
            moduli, rev_moduli = _moduli(parts), _moduli(parts[::-1])
            z, i1 = len(parts), parts[0]
            result.checked += len(range(1, n - 1))
            for b in range(1, n - 1):
                a = n - 1 - b
                p, s, q, t = _solve_psqt_parts(parts, moduli, b)
                ip_minus_s = parts[p - 1] - s
                if ip_minus_s != _theta_minus(rev_moduli, a):
                    result.fail(f"i_p - s mismatch with reversed undershoot at "
                                f"I={format_parts(parts)}, a={a}")
                if q < p - 1:
                    result.fail(f"q < p - 1 at I={format_parts(parts)}, b={b}")
                if q >= p and moduli[q] - moduli[p - 1] != i1 + s - t:
                    result.fail(f"|i_p..i_q| != i_1 + s - t at I={format_parts(parts)}, b={b}")
                if (q == p - 1) != (i1 <= ip_minus_s):
                    result.fail(f"q = p - 1 branch condition fails at I={format_parts(parts)}, "
                                f"b={b}")
                if a - i1 != n - moduli[q] - t:
                    result.fail(f"a - i_1 != |i_(q+1)..i_z| - t at I={format_parts(parts)}, "
                                f"b={b}")
                if (q == z) != (i1 > a):
                    result.fail(f"q = z iff i_1 > a fails at I={format_parts(parts)}, a={a}")
        positive = [(parts, _moduli(parts)) for parts in _composition_tuples(n, 2, 1)]
        for a, b in clock_pairs(n):
            D = _theta_coeff(a, b, 2, False)
            result.checked += len(positive)
            for parts, moduli in positive:
                value, i1 = D(parts, moduli), parts[0]
                if i1 == 1:
                    if value < 0:
                        result.fail(f"first-part-1 coefficient negative at "
                                    f"I={format_parts(parts)}")
                    continue
                p, s, q, _ = _solve_psqt_parts(parts, moduli, b)
                if not _in_w_gt(parts, moduli, a):
                    counts["W<="] += 1
                    ip = parts[p - 1]
                    if value != (s - 1) * (ip - s - i1) - 2 or value < -2:
                        result.fail(f"W_<= closed form fails at I={format_parts(parts)}, "
                                    f"(a,b)=({a},{b})")
                    if value < 0 and s not in (1, 2, ip - i1):
                        result.fail(f"negative W_<= coefficient with s={s} at "
                                    f"I={format_parts(parts)}")
                    continue
                in_A = _in_A(parts, moduli, a)
                if value < i1 - 2:
                    result.fail(f"D below i_1 - 2 on W_> at I={format_parts(parts)}, "
                                f"(a,b)=({a},{b})")
                # q - p equals the largest j <= z - p whose suffix after
                # position p + j still has modulus above a - i_1
                best = max((j for j in range(0, len(parts) - p + 1)
                            if n - moduli[p + j] > a - i1), default=None)
                if best != q - p:
                    result.fail(f"suffix characterization of q - p fails at "
                                f"I={format_parts(parts)}, a={a}")
                if q == p:
                    counts["W> q=p"] += 1
                elif in_A:
                    counts["W> q>p exact-suffix"] += 1
                    if i1 < 3 or value < 2 * i1 - 3:
                        result.fail(f"exact-suffix W_> bound fails at I={format_parts(parts)}, "
                                    f"(a,b)=({a},{b})")
                else:
                    counts["W> q>p no-exact-suffix"] += 1
                    if i1 < 4 or value < i1 + 2:
                        result.fail(f"no-exact-suffix W_> bound fails at "
                                    f"I={format_parts(parts)}, (a,b)=({a},{b})")
                for r, H in enumerate(_fiber_parts(parts, p, q), start=1):
                    if D(H, _moduli(H)) < 0:
                        result.checked += 1
                        if not (r == q - p or (in_A and r == 1)):
                            result.fail(f"negative fiber coefficient at interior index r={r}, "
                                        f"I={format_parts(parts)}")
        # lower bound of the phi-twisted coefficient by its delta term on the
        # exact-suffix family, for every three-path parameter choice
        for a, b, c in theta_triples(n, min_c=2):
            c_prime = _theta_coeff(a, b, c, True)
            for parts, moduli in positive:
                if not _in_A(parts, moduli, a):
                    continue
                result.checked += 1
                sol = _solve_psqt_parts(parts, moduli, b + c - 2)
                if c_prime(parts, moduli) < _delta_parts(parts, sol):
                    result.fail(f"c' below its delta term at I={format_parts(parts)}, "
                                f"(a,b,c)=({a},{b},{c})")
    result.notes.extend(f"{key}: {value}" for key, value in sorted(counts.items()))
    return result


# ---------------------------------------------------------------------------
# fiber

# Known fixtures at (a, b) = (6, 4): preimage lists and their D values.
_FIBER_FIXTURES = {
    (7, 2, 2): (((2, 7, 2), 2), ((2, 2, 7), -2)),
    (5, 2, 2, 2): (((2, 5, 2, 2), -2), ((2, 2, 5, 2), -2)),
}


def _check_fiber_pair(a: Optional[int], b: Optional[int]) -> None:
    if (a is None) != (b is None):
        raise ValueError("suite fiber reads --a and --b only together")
    if a is not None:
        _check_clock(a, b)


def run_fiber(ns: Sequence[int], a: Optional[int] = None, b: Optional[int] = None) -> SuiteResult:
    """Every clock pair of each n in ``ns``, or only the pair (a, b) at n = a + b + 1."""
    _check_fiber_pair(a, b)
    result = SuiteResult("fiber")
    for n in ns:
        _check_degree(n)  # before the a+b+1 rule, so an inexact n is named as such
        if a is not None and a + b + 1 != n:
            raise ValueError(f"--n {n} disagrees with a+b+1 = {a + b + 1} for (a,b)=({a},{b})")
        pairs = clock_pairs(n) if a is None else [(a, b)]
        all_ge_2 = ([(parts, _moduli(parts)) for parts in _composition_tuples(n, 2)]
                    if pairs else [])
        for pa, pb in pairs:
            D = _theta_coeff(pa, pb, 2, False)
            greater, lesser = {}, {}
            for parts, moduli in all_ge_2:
                (greater if _in_w_gt(parts, moduli, pa) else lesser)[parts] = moduli
            seen: Dict[tuple, tuple] = {}
            for parts, moduli in greater.items():
                p, _, q, _ = _solve_psqt_parts(parts, moduli, pb)
                preimages = _fiber_parts(parts, p, q)
                rho = sorted(parts)
                # parts are formatted in failure messages only: a passing sweep formats none
                for r, H in enumerate(preimages, start=1):
                    result.checked += 1
                    h_moduli = _moduli(H)
                    if _psi_parts(H, h_moduli, pa) != parts:
                        result.fail(f"fiber element {format_parts(H)} does not map back to "
                                    f"{format_parts(parts)}")
                    if H not in lesser:
                        result.fail(f"fiber element {format_parts(H)} of {format_parts(parts)} "
                                    f"is not in W_<=")
                    if sorted(H) != rho:
                        result.fail(f"fiber element {format_parts(H)} changes the partition "
                                    f"of {format_parts(parts)}")
                    if H[_split_cut(h_moduli, pa):] != parts[p + r :]:
                        result.fail(f"fiber element {format_parts(H)} has the wrong suffix split")
                    if H in seen:
                        result.fail(f"{format_parts(H)} appears in two fibers: "
                                    f"{format_parts(seen[H])} and {format_parts(parts)}")
                    seen[H] = parts
                if (n, pa, pb) == (11, 6, 4) and parts in _FIBER_FIXTURES:
                    expected = _FIBER_FIXTURES[parts]
                    result.checked += 1
                    got = tuple((H, D(H, _moduli(H))) for H in preimages)
                    if got != expected:
                        result.fail(f"fixture fiber mismatch at I={format_parts(parts)}: "
                                    f"got {got}, want {expected}")
            for J, moduli in lesser.items():
                result.checked += 1
                image = _psi_parts(J, moduli, pa)
                if image not in greater:
                    result.fail(
                        f"psi image {format_parts(image)} of {format_parts(J)} is not in W_>")
                if J not in seen:
                    result.fail(f"{format_parts(J)} missing from the fiber of its image "
                                f"{format_parts(image)}")
    return result


# ---------------------------------------------------------------------------
# c-doubleprime


def _cdp_task(task: Tuple[int, Tuple[Tuple[int, int], ...]]) -> Tuple[int, List[str]]:
    n, pairs = task
    checked = 0
    violations: List[str] = []
    positive = list(_weight_positive_terms(n))
    for a, b in pairs:
        D = _theta_coeff(a, b, 2, False)
        # D_I * w_I of every composition, each fiber element included
        terms = {parts: D(parts, moduli) * weight for parts, moduli, _, weight in positive}
        # the first-part-1 terms plus c'' on W_> must reassemble the clock sum;
        # both sums get the same keys, so != compares them exactly
        grouped, direct = {}, {}
        for parts, moduli, code, _ in positive:
            direct[code] = direct.get(code, 0) + terms[parts]
            value = terms[parts] if parts[0] == 1 else 0  # W_<= counts in c'' of its image
            if _in_w_gt(parts, moduli, a):
                p, _, q, _ = _solve_psqt_parts(parts, moduli, b)
                value = _c_doubleprime_parts(parts, p, q, terms.__getitem__)
                checked += 1
                if value < 0 and len(violations) <= MAX_REPORTED_VIOLATIONS:
                    violations.append(f"fiber-grouped coefficient {value} < 0 at "
                                      f"I={format_parts(parts)}, (a,b)=({a},{b})")
            grouped[code] = grouped.get(code, 0) + value
        checked += 1
        if len(violations) > MAX_REPORTED_VIOLATIONS:
            continue
        if grouped != direct:
            code = max(key for key in grouped if grouped[key] != direct[key])
            lam = Partition(_unpack(code, _width(n)))
            violations.append(f"fiber regrouping disagrees with the clock expansion at "
                              f"(a,b)=({a},{b}): {(lam, grouped[code], direct[code])}")
        elif not any(direct.values()):
            # two vanished sums agree, and a c'' of 0 is not negative
            violations.append(f"clock expansion vanishes at (a,b)=({a},{b})")
    return checked, violations


def run_c_doubleprime(
    a_max: int, b_max: int, n_cap: int, workers: int = 1
) -> SuiteResult:
    _check_ints("c-doubleprime bound", a_max, b_max, n_cap)
    result = SuiteResult("c-doubleprime")
    # one task per n <= n_cap: its clock_pairs with a <= a_max and b <= b_max, a ascending;
    # clock_pairs refuses n > 64 before any task runs, and no pair above n_cap is listed
    top = min(a_max, b_max)
    tasks = [(n, tuple((a, b) for a, b in reversed(clock_pairs(n)) if a <= a_max and b <= b_max))
             for n in range(5, min(n_cap, a_max + top + 1) + 1)] if top >= 2 else []
    swept = sum(len(pairs) for _, pairs in tasks)
    requested = (top - 1) * (2 * a_max - top) // 2 if top >= 2 else 0
    if swept < requested:
        result.stderr_notes.append(f"skipped {requested - swept} pair(s) "
                                   f"with a+b+1 above the degree budget {n_cap}")
    for checked, violations in _run_tasks(_cdp_task, tasks, workers):
        result.checked += checked
        for message in violations:
            result.fail(message)
    result.notes.append(f"pairs swept: {swept}")
    return result


# ---------------------------------------------------------------------------
# positivity


def _positivity_task(n: int) -> Tuple[int, List[str], List[Optional[int]]]:
    # one pass sums each clock (theta at c = 2) and cycle-chord (c = 1) of n by
    # partition; a cycle-chord term, delta(I, b) >= 0, is also counted and checked
    sweeps = [("clock", a, b, _theta_coeff(a, b, 2, False), {}, []) for a, b in clock_pairs(n)]
    sweeps += [("cycle-chord", a, n - a, _theta_coeff(a, n - a, 1, False), {}, [])
               for a in range(2, n - 1)]
    checked = 0
    for parts, moduli, code, weight in _weight_positive_terms(n):
        for family, _, _, coeff, sums, negative in sweeps:
            term = coeff(parts, moduli)
            if term:
                sums[code] = sums.get(code, 0) + term * weight
                if family == "cycle-chord":
                    checked += 1
                    if term < 0 and len(negative) <= MAX_REPORTED_VIOLATIONS:
                        negative.append(parts)
    violations: List[str] = []
    minima = []
    for family, a, b, _, sums, negative in sweeps:
        violations += [f"negative {family} term at I={format_parts(parts)}, (a,b)=({a},{b})"
                       for parts in negative]
        sums = {code: value for code, value in sums.items() if value}
        checked += len(sums)
        negatives = [format_parts(_unpack(code, _width(n)))
                     for code in sorted(sums, reverse=True) if sums[code] < 0]
        if negatives:
            violations.append(
                f"negative grouped coefficient for {family} (a,b)=({a},{b}): {negatives}"
            )
        if not sums:
            violations.append(f"{family} expansion vanishes at (a,b)=({a},{b})")
        minima.append(min(sums.values(), default=None))
    return checked, violations[:MAX_REPORTED_VIOLATIONS + 1], minima


def run_positivity(n_max: int, workers: int = 1) -> SuiteResult:
    _check_degree(n_max)
    result = SuiteResult("positivity")
    # one task per degree: the cycle-chords start at n = 4, the clocks at 5
    minima = []
    for checked, violations, lows in _run_tasks(_positivity_task, range(4, n_max + 1), workers):
        result.checked += checked
        for message in violations:
            result.fail(message)
        minima += lows
    result.notes.append(f"expansions swept: {len(minima)}")
    lowest = min((low for low in minima if low is not None), default=None)
    result.notes.append(f"smallest grouped coefficient: {lowest}")
    return result


# ---------------------------------------------------------------------------
# triple-deletion

TRIPLE_MAX_VERTICES = 10


def _random_stable_triple_instance(rng) -> tuple:
    # a Graph and a stable triple of it, drawn from the random.Random rng
    from .graphs import Graph

    # each instance costs six oracle calls at base_edges + up to 3 edges;
    # the frontier width of those graphs sets the cost, and at most 11 base
    # edges keep it small
    while True:
        n = rng.randint(5, TRIPLE_MAX_VERTICES)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        count = rng.randint(n - 1, min(11, len(pairs)))
        edges = rng.sample(pairs, count)
        graph = Graph(n, edges)
        stable = [
            (x, y, z)
            for x in range(n)
            for y in range(x + 1, n)
            for z in range(y + 1, n)
            if not (
                graph.has_edge(x, y) or graph.has_edge(x, z) or graph.has_edge(y, z)
            )
        ]
        if stable:
            return graph, rng.choice(stable)


def theta_deletion_instance(a: int, b: int, c: int):
    """The canonical deletion setup on a three-path graph.

    Removes the hub-side first edges of the b- and c-paths; the stable
    triple is (first c-interior, first b-interior, hub 0).  Re-adding the
    two edges restores the original graph, and the two single-edge variants
    are a tadpole and a rebalanced three-path graph.
    """
    from .graphs import Graph, build_theta

    _check_theta(a, b, c)  # before the c >= 2 rule, so an inexact c is named as such
    if c < 2:
        raise ValueError(f"deletion instance needs c >= 2, got {(a, b, c)}")
    theta = build_theta(a, b, c)
    # the builder lists the paths a, b, c in order, each from its hub-0 edge
    _, b_edge, c_edge = [e for e in theta.edges if e[0] == 0]
    base_edges = [e for e in theta.edges if e not in (b_edge, c_edge)]
    return Graph(theta.vertex_count, base_edges), (c_edge[1], b_edge[1], 0)


def _check_count(count: int) -> None:
    _check_ints("--count", count)
    if count < 0:
        raise ValueError(f"--count must be >= 0, got {count}")
    if count > MAX_INSTANCE_COUNT:
        raise ResourceLimitError(f"--count {count} exceeds the limit {MAX_INSTANCE_COUNT}")


def run_triple_deletion(count: int, seed: int) -> SuiteResult:
    import random

    from .graphs import (
        _pbasis_codes, _signed_code_sum, build_tadpole, build_theta, verify_triple_deletion,
    )

    _check_count(count)
    _check_ints("seed", seed)
    result = SuiteResult("triple-deletion")
    rng = random.Random(seed)
    for index in range(count):
        graph, triple = _random_stable_triple_instance(rng)
        result.checked += 1
        if not verify_triple_deletion(graph, triple):
            result.fail(
                f"deletion identities fail on instance {index}: "
                f"{graph.to_json_dict()} triple={triple}"
            )
    base, triple = theta_deletion_instance(3, 3, 3)
    result.checked += 1
    if not verify_triple_deletion(base, triple):
        result.fail("deletion identities fail on the three-path instance (3,3,3)")
    # the same deletion written as a four-graph identity
    # on eight vertices each, so the four code sets share one width
    difference = _signed_code_sum(
        (1, _pbasis_codes(build_theta(3, 3, 3))),
        (-1, _pbasis_codes(build_theta(4, 3, 2))),
        (-1, _pbasis_codes(build_tadpole(6, 2))),
        (1, _pbasis_codes(build_tadpole(5, 3))),
    )
    result.checked += 1
    if difference:
        result.fail("four-graph deletion identity fails at (3,3,3)")
    result.notes.append(f"random instances: {count}, plus the (3,3,3) instance")
    return result


# ---------------------------------------------------------------------------
# dispatch


def _check_workers(workers: int) -> None:
    _check_ints("--workers", workers)
    if workers < 1:
        raise ValueError(f"--workers must be >= 1, got {workers}")


def _run_tasks(fn, tasks, workers: int):
    _check_workers(workers)
    # processes beyond the CPU count only add start-up cost and memory
    workers = min(workers, os.cpu_count() or 1)
    if workers > 1 and len(tasks) > 1:
        # imported here: multiprocessing costs every CLI process start-up time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            # the suites list tasks by ascending degree, costliest last: run those first
            yield from reversed(list(pool.map(fn, tasks[::-1])))
    else:
        yield from map(fn, tasks)


def _degrees(budget: int, name: str, n, n_max, default_max: int,
             lo: int = 1, lowest: Optional[int] = None) -> List[int]:
    # [--n], or lo .. --n-max (default_max when not given); a request that
    # checks nothing names where the suite starts: ``lowest`` (default lo)
    # for --n, lo for --n-max.  Both given: --n, refused above --n-max
    _check_budget(budget, n, n_max)
    if n is not None and n_max is not None and n > n_max:
        raise ValueError(f"--n-max {n_max} is below --n {n}")
    if n is None:
        degrees = list(range(lo, (default_max if n_max is None else n_max) + 1))
        flag, least = f"--n-max {n_max}", lo
    else:
        degrees = [n]
        flag, least = f"--n {n}", lo if lowest is None else lowest
    if not degrees or degrees[0] < least:
        raise ValueError(f"{flag} checks nothing: suite {name} starts at n = {least}")
    return degrees


def _fiber_suite(budget: int, n=None, n_max=None, a=None, b=None) -> SuiteResult:
    if a is None or b is None:
        _check_fiber_pair(a, b)  # refuses half a pair
        return run_fiber(_degrees(budget, "fiber", n, n_max, 10, lo=5))
    size = a + b + 1
    # the budget before the clock domain, as expand and oracle-check order them
    _check_budget(budget, n, n_max, size)
    _check_clock(a, b)
    if n_max is not None and n_max < size:
        raise ValueError(f"--n-max {n_max} is below a+b+1 = {size} for (a,b)=({a},{b})")
    return run_fiber([size if n is None else n], a, b)


def _c_doubleprime_suite(budget: int, a_max=8, b_max=8, workers=1) -> SuiteResult:
    # pairs with a + b + 1 above the budget are dropped, not refused, unless
    # that drops them all
    if min(a_max, b_max) < 2:
        flag = f"--a-max {a_max}" if a_max < 2 else f"--b-max {b_max}"
        raise ValueError(f"{flag} checks nothing: suite c-doubleprime starts at (a,b) = (2,2)")
    if budget < 5:
        raise ResourceLimitError(
            f"the lowest pair (a,b) = (2,2) needs n 5, above the budget {budget}")
    return run_c_doubleprime(a_max, b_max, budget, workers)


# Each suite's runner, called as ``run(budget, **given_flags)``; the flags it
# reads are its parameters after the budget (argparse names), and it holds
# their defaults and checks.  Runners look the suite functions up as module
# globals when called, so a wrapper bound in this module (a tracer, a test
# double) sees every call.
SUITE_TABLE: Dict[str, Callable[..., SuiteResult]] = {
    "phi-involution": lambda budget, n=None, n_max=None:
        run_phi_involution(_degrees(budget, "phi-involution", n, n_max, 10)),
    "theta-duality": lambda budget, n=None, n_max=None:
        run_theta_duality(_degrees(budget, "theta-duality", n, n_max, 10)),
    # the solver identities alone are checked from n = 3, the clock pairs from 5
    "lemma-bounds": lambda budget, n=None, n_max=None:
        run_lemma_bounds(_degrees(budget, "lemma-bounds", n, n_max, 10, lo=5, lowest=3)),
    "fiber": _fiber_suite,
    "c-doubleprime": _c_doubleprime_suite,
    "positivity": lambda budget, n_max=None, workers=1:
        run_positivity(_degrees(budget, "positivity", None, n_max, 14, lo=4)[-1], workers),
    "triple-deletion": lambda budget, count=25, seed=2024: run_triple_deletion(count, seed),
}

SUITES = tuple(SUITE_TABLE)


def suite_flags(name: str) -> Tuple[str, ...]:
    """The ``verify`` flags (argparse names) the named suite reads."""
    code = SUITE_TABLE[name].__code__  # no inspect: every verify process would load it
    return code.co_varnames[1:code.co_argcount]


def run_suite(name: str, budget: int, **flags: Optional[int]) -> SuiteResult:
    """Run the named suite under the degree budget with the given ``verify``
    flags (argparse names, None for not given).  A given flag that the suite
    does not read, ``workers`` < 1 or ``count`` < 0 is a ValueError, and
    ``count`` > ``MAX_INSTANCE_COUNT`` a ResourceLimitError."""
    if name not in SUITE_TABLE:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITES}")
    given = {key: value for key, value in flags.items() if value is not None}
    _check_workers(given.get("workers", 1))
    _check_count(given.get("count", 0))
    unread = [f"--{key.replace('_', '-')}" for key in given if key not in suite_flags(name)]
    if unread:
        raise ValueError(f"suite {name} does not read {', '.join(unread)}")
    return SUITE_TABLE[name](budget, **given)
