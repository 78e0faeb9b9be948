"""Exhaustive verification suites over composition and parameter sweeps.

Each suite re-checks one family of structural facts used by the closed-form
expansions: involution and preservation properties of phi, reversal duality
of the prefix statistics, the solver identities and coefficient bounds, the
fiber structure of the partial reversal, nonnegativity of the grouped
expansions, and the deletion identities.  Suites report a checked count and
a list of counterexample descriptions (empty means the sweep passed).

Each composition suite enumerates the compositions of n once per n: it
streams their part tuples (``compositions._composition_tuples``), computes each
tuple's prefix moduli once, evaluates the private kernel of
:mod:`csfkit.coefficients` on them, and holds, for all parameters of that n,
only Fibonacci-sized lists: parts >= 2 (lemma-bounds, fiber, c-doubleprime),
positive weight (lemma-bounds) and first part 1 (c-doubleprime, one task per n).
Messages print compositions by ``format_parts``, as ``str(Composition)`` does.

Sweeps over (a, b) parameter pairs are pure and independent, so the heavy
suites optionally fan out over a process pool; results are merged in sorted
task order, making output independent of the worker count.

``SUITE_TABLE`` maps each suite to the ``verify`` flags it reads and to a
runner holding its defaults and parameter checks; ``run_suite`` rejects any
other flag, so a sweep never silently runs a range other than the one asked.
A runner also refuses a range that checks nothing, naming where the suite starts.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .coefficients import (
    WClass, _c_doubleprime_parts, _c_parts, _classify_parts, _D_parts, _delta_parts,
    _fiber_parts, _phi_parts, _psi_parts, _solve_psqt_parts, _split_cut,
)
from .compositions import (
    _composition_tuples, _moduli, _rho, _theta_minus, _theta_plus, _weight,
    _weight_positive_tuples, format_parts,
)
from .errors import ResourceLimitError
from .graphs import (
    Graph,
    build_tadpole,
    build_theta,
    closed_form_clock,
    csf_pbasis,
    e_positivity_report,
    expansion_closed_form,
    verify_triple_deletion,
)
from .symfunc import Basis, BasisVector, first_difference

MAX_REPORTED_VIOLATIONS = 50


@dataclass
class SuiteResult:
    name: str
    checked: int = 0
    violations: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def fail(self, message: str) -> None:
        if len(self.violations) < MAX_REPORTED_VIOLATIONS:
            self.violations.append(message)
        elif len(self.violations) == MAX_REPORTED_VIOLATIONS:
            self.violations.append("... further violations suppressed")


def clock_pairs(n: int) -> List[Tuple[int, int]]:
    """All (a, b) with a >= b >= 2 and a + b + 1 = n."""
    return [(n - 1 - b, b) for b in range(2, (n - 1) // 2 + 1)]


def theta_triples(n: int, min_c: int = 1) -> List[Tuple[int, int, int]]:
    """All (a, b, c) with a >= b >= c >= min_c, b >= 2, a + b + c - 1 = n."""
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
                if _classify_parts(parts, moduli, a)[1] and not _classify_parts(J, j_moduli, a)[1]:
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
            for a in range(0, n + 1):
                result.checked += 1
                if _theta_minus(moduli, a) != _theta_plus(rev_moduli, n - a):
                    result.fail(
                        f"undershoot/overshoot duality fails at I={format_parts(parts)}, a={a}"
                    )
    return result


# ---------------------------------------------------------------------------
# lemma-bounds


def _check_solver_identities(
    result: SuiteResult, parts: tuple, moduli: tuple, rev_moduli: tuple
) -> None:
    # every split n = a + b + 1; rev_moduli are those of the real reversal,
    # so this check stays independent of theta-duality
    n = moduli[-1]
    z = len(parts)
    i1 = parts[0]
    for b in range(1, n - 1):
        a = n - 1 - b
        p, s, q, t = _solve_psqt_parts(parts, moduli, b)
        ip_minus_s = parts[p - 1] - s
        result.checked += 1
        if ip_minus_s != _theta_minus(rev_moduli, a):
            result.fail(f"i_p - s mismatch with reversed undershoot at "
                        f"I={format_parts(parts)}, a={a}")
        if q < p - 1:
            result.fail(f"q < p - 1 at I={format_parts(parts)}, b={b}")
        if q >= p and moduli[q] - moduli[p - 1] != i1 + s - t:
            result.fail(f"|i_p..i_q| != i_1 + s - t at I={format_parts(parts)}, b={b}")
        if (q == p - 1) != (i1 <= ip_minus_s):
            result.fail(f"q = p - 1 branch condition fails at I={format_parts(parts)}, b={b}")
        if a - i1 != n - moduli[q] - t:
            result.fail(f"a - i_1 != |i_(q+1)..i_z| - t at I={format_parts(parts)}, b={b}")
        if (q == z) != (i1 > a):
            result.fail(f"q = z iff i_1 > a fails at I={format_parts(parts)}, a={a}")


def _check_gt_bounds(
    result: SuiteResult, parts: tuple, moduli: tuple, a: int, b: int,
    sol: tuple, in_A: bool, D: int, counts: Dict[str, int],
) -> None:
    n = moduli[-1]
    i1 = parts[0]
    p, _, q, _ = sol
    I = format_parts(parts)
    result.checked += 1
    if D < i1 - 2:
        result.fail(f"D below i_1 - 2 on W_> at I={I}, (a,b)=({a},{b})")
    # q - p equals the largest j <= z - p whose suffix after position p + j
    # still has modulus above a - i_1
    best = max(
        (j for j in range(0, len(parts) - p + 1) if n - moduli[p + j] > a - i1),
        default=None,
    )
    if best != q - p:
        result.fail(f"suffix characterization of q - p fails at I={I}, a={a}")
    if q == p:
        counts["W> q=p"] += 1
    elif in_A:
        counts["W> q>p exact-suffix"] += 1
        if i1 < 3 or D < 2 * i1 - 3:
            result.fail(f"exact-suffix W_> bound fails at I={I}, (a,b)=({a},{b})")
    else:
        counts["W> q>p no-exact-suffix"] += 1
        if i1 < 4 or D < i1 + 2:
            result.fail(f"no-exact-suffix W_> bound fails at I={I}, (a,b)=({a},{b})")
    for r, H in enumerate(_fiber_parts(parts, p, q), start=1):
        if _D_parts(H, _moduli(H), a, b) < 0:
            result.checked += 1
            if not (r == q - p or (in_A and r == 1)):
                result.fail(f"negative fiber coefficient at interior index r={r}, I={I}")


def _check_le_closed_form(
    result: SuiteResult, parts: tuple, a: int, b: int,
    sol: tuple, D: int, counts: Dict[str, int],
) -> None:
    counts["W<="] += 1
    i1 = parts[0]
    p, s, _, _ = sol
    ip = parts[p - 1]
    result.checked += 1
    if D != (s - 1) * (ip - s - i1) - 2 or D < -2:
        result.fail(f"W_<= closed form fails at I={format_parts(parts)}, (a,b)=({a},{b})")
    if D < 0 and s not in (1, 2, ip - i1):
        result.fail(f"negative W_<= coefficient with s={s} at I={format_parts(parts)}")


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
        # clock-parameter range
        for parts in _composition_tuples(n):
            _check_solver_identities(result, parts, _moduli(parts), _moduli(parts[::-1]))
        all_ge_2 = [(parts, _moduli(parts)) for parts in _composition_tuples(n, 2)]
        positive = [(parts, _moduli(parts)) for parts in _weight_positive_tuples(n)]
        first_part_1 = [(parts, moduli) for parts, moduli in positive if parts[0] == 1]
        for a, b in clock_pairs(n):
            for parts, moduli in first_part_1:
                result.checked += 1
                if _D_parts(parts, moduli, a, b) < 0:
                    result.fail(f"first-part-1 coefficient negative at I={format_parts(parts)}")
            for parts, moduli in all_ge_2:
                wclass, in_A = _classify_parts(parts, moduli, a)
                sol = _solve_psqt_parts(parts, moduli, b)
                D = _c_parts(parts, moduli, a, 2, sol, False)  # untwisted: see _D_parts
                if wclass is WClass.W_GT:
                    _check_gt_bounds(result, parts, moduli, a, b, sol, in_A, D, counts)
                else:
                    _check_le_closed_form(result, parts, a, b, sol, D, counts)
        # lower bound of the phi-twisted coefficient by its delta term on the
        # exact-suffix family, for every three-path parameter choice
        for a, b, c in theta_triples(n, min_c=2):
            for parts, moduli in positive:
                # exact-suffix family: theta_plus(reversed I, a) = 0
                if _theta_minus(moduli, n - a) != 0:
                    continue
                result.checked += 1
                sol = _solve_psqt_parts(parts, moduli, b + c - 2)
                if _c_parts(parts, moduli, a, c, sol, True) < _delta_parts(parts, sol):
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


def run_fiber(ns: Sequence[int], a: Optional[int] = None, b: Optional[int] = None) -> SuiteResult:
    result = SuiteResult("fiber")
    for n in ns:
        pairs = [(a, b)] if a is not None and b is not None else clock_pairs(n)
        all_ge_2 = ([(parts, _moduli(parts)) for parts in _composition_tuples(n, 2)]
                    if pairs else [])
        for pa, pb in pairs:
            if pa + pb + 1 != n or not (pa >= pb >= 2):
                raise ValueError(f"invalid pair (a,b)=({pa},{pb}) for n={n}")
            greater: List[Tuple[tuple, tuple]] = []
            lesser: List[Tuple[tuple, tuple]] = []
            for entry in all_ge_2:
                kind = _classify_parts(*entry, pa)[0]
                (greater if kind is WClass.W_GT else lesser).append(entry)
            seen: Dict[tuple, tuple] = {}
            for parts, moduli in greater:
                p, _, q, _ = _solve_psqt_parts(parts, moduli, pb)
                preimages = _fiber_parts(parts, p, q)
                rho = sorted(parts)
                I = format_parts(parts)
                for r, H in enumerate(preimages, start=1):
                    result.checked += 1
                    h_moduli = _moduli(H)
                    if _psi_parts(H, h_moduli, pa) != parts:
                        result.fail(f"fiber element {format_parts(H)} does not map back to {I}")
                    if _classify_parts(H, h_moduli, pa)[0] is not WClass.W_LE:
                        result.fail(f"fiber element {format_parts(H)} of {I} is not in W_<=")
                    if sorted(H) != rho:
                        result.fail(
                            f"fiber element {format_parts(H)} changes the partition of {I}")
                    if H[_split_cut(h_moduli, pa):] != parts[p + r :]:
                        result.fail(f"fiber element {format_parts(H)} has the wrong suffix split")
                    if H in seen:
                        result.fail(f"{format_parts(H)} appears in two fibers: "
                                    f"{format_parts(seen[H])} and {I}")
                    seen[H] = parts
                if (n, pa, pb) == (11, 6, 4) and parts in _FIBER_FIXTURES:
                    expected = _FIBER_FIXTURES[parts]
                    result.checked += 1
                    got = tuple((H, _D_parts(H, _moduli(H), pa, pb)) for H in preimages)
                    if got != expected:
                        result.fail(
                            f"fixture fiber mismatch at I={I}: got {got}, want {expected}"
                        )
            for J, moduli in lesser:
                result.checked += 1
                image = _psi_parts(J, moduli, pa)
                if _classify_parts(image, _moduli(image), pa)[0] is not WClass.W_GT:
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
    all_ge_2 = [(parts, _moduli(parts)) for parts in _composition_tuples(n, 2)]
    first_part_1 = [(parts, _moduli(parts)) for parts in _weight_positive_tuples(n)
                    if parts[0] == 1]
    for a, b in pairs:
        grouped: Dict = {}
        for parts, moduli in all_ge_2:
            if _classify_parts(parts, moduli, a)[0] is not WClass.W_GT:
                continue
            sol = _solve_psqt_parts(parts, moduli, b)
            value = _c_doubleprime_parts(parts, moduli, a, b, sol)
            checked += 1
            if value < 0:
                violations.append(f"fiber-grouped coefficient {value} < 0 at "
                                  f"I={format_parts(parts)}, (a,b)=({a},{b})")
            lam = _rho(parts)
            grouped[lam] = grouped.get(lam, 0) + value
        # the first-part-1 block plus the fiber-grouped block must reassemble
        # the full clock expansion
        for parts, moduli in first_part_1:
            lam = _rho(parts)
            grouped[lam] = grouped.get(lam, 0) + _D_parts(parts, moduli, a, b) * _weight(parts)
        checked += 1
        regrouped = BasisVector(Basis.E, n, grouped)
        direct = closed_form_clock(a, b).grouped_by_rho()
        if not regrouped.equals(direct):
            diff = first_difference(regrouped, direct)
            violations.append(
                f"fiber regrouping disagrees with the clock expansion at (a,b)=({a},{b}): {diff}"
            )
    return checked, violations


def run_c_doubleprime(
    a_max: int, b_max: int, n_cap: int, workers: int = 1
) -> SuiteResult:
    result = SuiteResult("c-doubleprime")
    pairs = sorted(
        (a, b)
        for a in range(2, a_max + 1)
        for b in range(2, min(a, b_max) + 1)
        if a + b + 1 <= n_cap
    )
    # one task per n, so that each task enumerates the compositions of n once
    tasks = [(n, tuple(p for p in pairs if sum(p) + 1 == n))
             for n in sorted({sum(p) + 1 for p in pairs})]
    for checked, violations in _run_tasks(_cdp_task, tasks, workers):
        result.checked += checked
        for message in violations:
            result.fail(message)
    result.notes.append(f"pairs swept: {len(pairs)}")
    return result


# ---------------------------------------------------------------------------
# positivity


def _positivity_task(task: Tuple[str, int, int, bool]):
    family, a, b, termwise = task
    checked = 0
    violations: List[str] = []
    expansion = expansion_closed_form(family, a=a, b=b)
    if termwise:
        for I, (coeff, weight) in expansion.entries.items():
            checked += 1
            if coeff * weight < 0:
                violations.append(
                    f"negative {family} term at I={I}, (a,b)=({a},{b})"
                )
    report = e_positivity_report(expansion)
    checked += len(report.coefficients)
    if report.negative_partitions:
        negatives = [format_parts(lam) for lam in report.negative_partitions]
        violations.append(
            f"negative grouped coefficient for {family} (a,b)=({a},{b}): {negatives}"
        )
    return checked, violations, report.minimum


def run_positivity(n_max: int, workers: int = 1) -> SuiteResult:
    result = SuiteResult("positivity")
    # the clock is checked after grouping only; cycle-chord terms are
    # nonnegative one by one as well, since delta >= 0
    tasks: List[Tuple[str, int, int, bool]] = []
    for n in range(5, n_max + 1):
        tasks.extend(("clock", a, b, False) for a, b in clock_pairs(n))
    for n in range(4, n_max + 1):
        tasks.extend(
            ("cycle-chord", a, n - a, True) for a in range(2, n - 1) if n - a >= 2
        )
    tasks.sort()
    minima = []
    for checked, violations, minimum in _run_tasks(_positivity_task, tasks, workers):
        result.checked += checked
        for message in violations:
            result.fail(message)
        minima.append(minimum)
    result.notes.append(f"expansions swept: {len(tasks)}")
    result.notes.append(f"smallest grouped coefficient: {min(minima, default=None)}")
    return result


# ---------------------------------------------------------------------------
# triple-deletion


def _random_stable_triple_instance(
    rng: random.Random, max_vertices: int
) -> Tuple[Graph, Tuple[int, int, int]]:
    # each instance costs six oracle calls at base_edges + up to 3 edges,
    # so keep instances comfortably inside the 2^m wall
    while True:
        n = rng.randint(5, max_vertices)
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
    if c < 2:
        raise ValueError(f"deletion instance needs c >= 2, got {(a, b, c)}")
    theta = build_theta(a, b, c)
    b_first = 2 + (a - 1)
    c_first = 2 + (a - 1) + (b - 1)
    base_edges = [
        e for e in theta.edges if e not in ((0, b_first), (0, c_first))
    ]
    return Graph(theta.vertex_count, base_edges), (c_first, b_first, 0)


def run_triple_deletion(
    count: int, seed: int, max_vertices: int = 10
) -> SuiteResult:
    result = SuiteResult("triple-deletion")
    rng = random.Random(seed)
    for index in range(count):
        graph, triple = _random_stable_triple_instance(rng, max_vertices)
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
    lhs = csf_pbasis(build_theta(3, 3, 3))
    rhs = (
        csf_pbasis(build_theta(4, 3, 2))
        .add(csf_pbasis(build_tadpole(6, 2)))
        .subtract(csf_pbasis(build_tadpole(5, 3)))
    )
    result.checked += 1
    if not lhs.equals(rhs):
        result.fail("four-graph deletion identity fails at (3,3,3)")
    result.notes.append(f"random instances: {count}, plus the (3,3,3) instance")
    return result


# ---------------------------------------------------------------------------
# dispatch


def _run_tasks(fn, tasks, workers: int):
    # processes beyond the CPU count only add start-up cost and memory
    workers = min(workers, os.cpu_count() or 1)
    if workers > 1 and len(tasks) > 1:
        # imported here: multiprocessing costs every CLI process start-up time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(fn, tasks)
    else:
        yield from map(fn, tasks)


def _check_budget(budget: int, *requested: Optional[int]) -> None:
    top = max((n for n in requested if n is not None), default=0)
    if top > budget:
        raise ResourceLimitError(f"requested n {top} exceeds the budget {budget}")


def _degrees(budget: int, name: str, n, n_max, default_max: int,
             lo: int = 1, lowest: Optional[int] = None) -> List[int]:
    # [--n], or lo .. --n-max (default_max when not given); a request that
    # checks nothing names where the suite starts: ``lowest`` (default lo)
    # for --n, lo for --n-max
    _check_budget(budget, n, n_max)
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
    if a is None and b is None:
        return run_fiber(_degrees(budget, "fiber", n, n_max, 10, lo=5))
    if a is None or b is None:
        raise ValueError("suite fiber reads --a and --b only together")
    if not (a >= b >= 2):
        raise ValueError(f"clock parameters need a >= b >= 2, got {(a, b)}")
    size = a + b + 1
    if n is not None and n != size:
        raise ValueError(f"--n {n} disagrees with a+b+1 = {size} for (a,b)=({a},{b})")
    if n_max is not None and n_max < size:
        raise ValueError(f"--n-max {n_max} is below a+b+1 = {size} for (a,b)=({a},{b})")
    _check_budget(budget, n, n_max, size)
    return run_fiber([size], a, b)


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


@dataclass(frozen=True)
class Suite:
    """The ``verify`` flags a suite reads (argparse names) and its runner,
    called as ``run(budget, **given_flags)``, which holds its defaults and checks."""

    flags: Tuple[str, ...]
    run: Callable[..., SuiteResult]


# runners look the suite functions up as module globals when called, so a
# wrapper bound in this module (a tracer, a test double) sees every call
SUITE_TABLE: Dict[str, Suite] = {
    "phi-involution": Suite(("n", "n_max"), lambda budget, n=None, n_max=None:
                            run_phi_involution(_degrees(budget, "phi-involution", n, n_max, 10))),
    "theta-duality": Suite(("n", "n_max"), lambda budget, n=None, n_max=None:
                           run_theta_duality(_degrees(budget, "theta-duality", n, n_max, 10))),
    # the solver identities alone are checked from n = 3, the clock pairs from 5
    "lemma-bounds": Suite(("n", "n_max"), lambda budget, n=None, n_max=None:
                          run_lemma_bounds(_degrees(budget, "lemma-bounds", n, n_max, 10,
                                                    lo=5, lowest=3))),
    "fiber": Suite(("n", "n_max", "a", "b"), _fiber_suite),
    "c-doubleprime": Suite(("a_max", "b_max", "workers"), _c_doubleprime_suite),
    "positivity": Suite(("n_max", "workers"), lambda budget, n_max=None, workers=1:
                        run_positivity(_degrees(budget, "positivity", None, n_max, 14,
                                                lo=4)[-1], workers)),
    "triple-deletion": Suite(("count", "seed"), lambda budget, count=25, seed=2024:
                             run_triple_deletion(count, seed)),
}

SUITES = tuple(SUITE_TABLE)


def run_suite(name: str, budget: int, **flags: Optional[int]) -> SuiteResult:
    """Run the named suite under the degree budget with the given ``verify``
    flags (argparse names, None for not given); a given flag that the suite
    does not read is a ValueError."""
    if name not in SUITE_TABLE:
        raise ValueError(f"unknown suite {name!r}; expected one of {SUITES}")
    suite = SUITE_TABLE[name]
    given = {key: value for key, value in flags.items() if value is not None}
    unread = [f"--{key.replace('_', '-')}" for key in given if key not in suite.flags]
    if unread:
        raise ValueError(f"suite {name} does not read {', '.join(unread)}")
    return suite.run(budget, **given)
