"""Coefficient formulas for the e-expansions of two-hub graph families.

A graph made of three internally disjoint paths of lengths a >= b >= c
between two vertices has a closed-form expansion indexed by compositions of
n = a + b + c - 1.  This module implements the pieces of those coefficients:

* the prefix-equation solvers producing the indices (p, s) and (q, t),
* the cycle-chord kernel ``delta``,
* the prefix-rotation involution ``phi`` and the partial reversal ``psi``,
* the classification of compositions by first part versus undershoot,
* the preimage fibers of ``psi`` on compositions with all parts >= 2,
* the assembled coefficients ``coeff_c``, ``coeff_c_prime``, ``coeff_D``
  and ``coeff_c_doubleprime``.

All functions are pure; every value is an exact Python integer.

Two layers: each public function checks its parameters and wraps one private
kernel function (``_solve_psqt_parts``, ``_delta_parts``, ``_phi_parts``,
``_psi_parts``, ``_classify_parts``, ``_fiber_parts``, ``_c_parts``,
``_c_doubleprime_parts``) on the parts and prefix-moduli tuples, which checks
nothing and returns tuples.  The sweeps of :mod:`csfkit.verify` and the closed
forms of :mod:`csfkit.graphs` call the kernel directly, so each formula has one
implementation.

Statistics of a reversal are read from the composition itself through
theta-duality, theta_minus(reversed I, k) = theta_plus(I, n - k) and
theta_plus(reversed I, k) = theta_minus(I, n - k), so no reversal is built.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import Enum
from typing import List, Tuple

from .compositions import Composition, _moduli, _theta_minus, _theta_plus, _weight


class WClass(Enum):
    """Position of a composition relative to the threshold a.

    ``NOT_W`` marks compositions containing a part equal to 1.  The other two
    split the all-parts->=2 compositions by comparing the first part with the
    undershoot of the reversed composition at a.
    """

    W_GT = "W>"
    W_LE = "W<="
    NOT_W = "not-W"


@dataclass(frozen=True)
class Classification:
    wclass: WClass
    # True when the composition has positive weight and a suffix of modulus
    # exactly a (equivalently the reversal has zero overshoot at a).
    in_A: bool


@dataclass(frozen=True)
class PSQTSolution:
    """Solution of the two prefix equations at a common value v = b + 1.

    ``p`` and ``q`` are 1-based part indices with

        v = (i_1 + ... + i_{p-1}) + s,   1 <= s <= i_p,
        v = (i_2 + ... + i_q) + t,       1 <= t <= i_{q+1},

    where i_{z+1} wraps around to i_1.  Both solutions exist and are unique
    because prefix moduli increase strictly.
    """

    p: int
    s: int
    q: int
    t: int


# ---------------------------------------------------------------------------
# kernel: parts and prefix moduli of valid compositions, nothing checked


def _solve_psqt_parts(parts, moduli, b: int) -> tuple:
    # (p, s, q, t) at v = b + 1 in [1, n]; (q, t) bisects for v + i_1, since
    # |i_2 ... i_k| = |i_1 ... i_k| - i_1
    v = b + 1
    p = bisect.bisect_left(moduli, v)
    w = v + parts[0]
    q = bisect.bisect_left(moduli, w, 1) - 1
    return p, v - moduli[p - 1], q, w - moduli[q]


def _e2(values) -> int:
    # second elementary symmetric polynomial; zero on fewer than 2 variables
    total = 0
    square = 0
    for v in values:
        total += v
        square += v * v
    return (total * total - square) // 2


def _delta_parts(parts, sol) -> int:
    # delta at the equation value that sol = (p, s, q, t) solves
    p, s, q, t = sol
    leftover = parts[p - 1] - s
    if parts[0] <= leftover:
        return s * (leftover - parts[0])
    return _e2((leftover, *parts[p:q], t))


def _phi_parts(parts, moduli, a: int) -> tuple:
    # phi(I, a), 1 <= a <= n; Q = parts[cut:]; ``parts`` itself when |P| <= 2
    cut = bisect.bisect_right(moduli, moduli[-1] - a) - 1
    if cut <= 2:
        return parts
    return parts[:1] + parts[cut - 1:0:-1] + parts[cut:]


def _split_cut(moduli, a: int) -> int:
    # R = parts[cut:] in I = LR, 1 <= a < n
    return bisect.bisect_left(moduli, moduli[-1] - a)


def _psi_parts(parts, moduli, a: int) -> tuple:
    cut = _split_cut(moduli, a)
    return parts[:cut][::-1] + parts[cut:]


def _classify_parts(parts, moduli, a: int) -> tuple:
    # (wclass, in_A), 1 <= a <= n; the reversal's statistics at a read at n - a
    m = moduli[-1] - a
    # positive weight: no part after the first equals 1
    in_A = 1 not in parts[1:] and _theta_minus(moduli, m) == 0
    if 1 in parts:
        return WClass.NOT_W, in_A
    if parts[0] > _theta_plus(moduli, m):
        return WClass.W_GT, in_A
    return WClass.W_LE, in_A


def _fiber_parts(parts, p: int, q: int) -> List[tuple]:
    # H_1 ... H_{q-p} of I in W_> with indices (p, q)
    return [parts[: p + r][::-1] + parts[p + r :] for r in range(1, q - p + 1)]


def _c_parts(parts, moduli, a: int, c: int, sol, twisted: bool) -> int:
    # c_I, or c'_I when twisted (the reversal of J = phi(I, a) for that of I);
    # sol solves at b + c - 1
    total = _delta_parts(parts, sol)
    for k in range(2, c + 1):
        total += _theta_plus(moduli, k)
    j_moduli = moduli
    if twisted:
        J = _phi_parts(parts, moduli, a)
        if J is not parts:
            j_moduli = _moduli(J)
    n = moduli[-1]
    for k in range(a, a + c - 1):
        total -= _theta_plus(j_moduli, n - k)
    return total


def _D_parts(parts, moduli, a: int, b: int) -> int:
    # untwisted: at c = 2 the one undershoot is read at n - a, and phi keeps
    # every prefix modulus from the largest one <= n - a on, so c' = c there
    return _c_parts(parts, moduli, a, 2, _solve_psqt_parts(parts, moduli, b), False)


def _c_doubleprime_parts(parts, moduli, a: int, b: int, sol) -> int:
    # I in W_> at a; sol solves at b + 1; D_I untwisted, as in _D_parts
    total = _c_parts(parts, moduli, a, 2, sol, False) * _weight(parts)
    for H in _fiber_parts(parts, sol[0], sol[2]):
        total += _D_parts(H, _moduli(H), a, b) * _weight(H)
    return total


# ---------------------------------------------------------------------------
# public API: checked wrappers over the kernel


def _check_value(I: Composition, value: int) -> None:
    n = I.prefix_moduli[-1]
    if value < 1 or value > n:
        raise ValueError(f"equation value {value} outside [1, {n}] for {I}")


def solve_ps(I: Composition, b: int) -> Tuple[int, int]:
    """Solve b + 1 = |i_1 ... i_{p-1}| + s with 1 <= s <= i_p."""
    _check_value(I, b + 1)
    return _solve_psqt_parts(I.parts, I.prefix_moduli, b)[:2]


def solve_qt(I: Composition, b: int) -> Tuple[int, int]:
    """Solve b + 1 = |i_2 ... i_q| + t with 1 <= t <= i_{q+1} (cyclically)."""
    _check_value(I, b + 1)
    return _solve_psqt_parts(I.parts, I.prefix_moduli, b)[2:]


def solve_psqt(I: Composition, b: int) -> PSQTSolution:
    """Both solutions at the common equation value b + 1."""
    _check_value(I, b + 1)
    return PSQTSolution(*_solve_psqt_parts(I.parts, I.prefix_moduli, b))


def delta(I: Composition, b: int) -> int:
    """Cycle-chord coefficient of I at prefix-equation value b.

    With (p, s) and (q, t) solving b = |i_1 ... i_{p-1}| + s = |i_2 ... i_q| + t,
    returns s * (i_p - s - i_1) when i_1 <= i_p - s, and otherwise the second
    elementary symmetric polynomial of (i_p - s, i_{p+1}, ..., i_q, t).

    Callers expanding a three-path graph pass b + c - 1, and b + 1 in the
    c = 2 case; the cycle-chord expansion itself passes its own b.  The
    result is always nonnegative.
    """
    _check_value(I, b)
    return _delta_parts(I.parts, _solve_psqt_parts(I.parts, I.prefix_moduli, b - 1))


def _check_threshold(I: Composition, a: int) -> None:
    n = I.prefix_moduli[-1]
    if not I.parts or a < 1 or a > n:
        raise ValueError(f"threshold {a} outside [1, {n}] for {I}")


def phi(I: Composition, a: int) -> Composition:
    """Reverse the interior of the prefix before the shortest suffix of
    modulus >= a.

    Writing I = PQ with Q that shortest suffix, the image is i_1 followed by
    the reversal of P minus its first part, followed by Q; it is I itself
    (the same object) when P has at most two parts.  The map is an
    involution, fixes the first part, and preserves both the partition
    image and the weight.
    """
    _check_threshold(I, a)
    J = _phi_parts(I.parts, I.prefix_moduli, a)
    return I if J is I.parts else Composition._from_valid(J)


def _check_split(I: Composition, a: int) -> None:
    if not I.parts or a < 1 or a >= I.modulus:
        raise ValueError(f"threshold {a} outside [1, {I.modulus}) for {I}")


def split_LR(I: Composition, a: int) -> Tuple[Composition, Composition]:
    """Split I = LR where R is the longest proper suffix of modulus <= a.

    L is always non-empty; R may be empty.  The undershoot of the reversed
    composition at a equals a - |R|.
    """
    _check_split(I, a)
    cut = _split_cut(I.prefix_moduli, a)
    return Composition._from_valid(I.parts[:cut]), Composition._from_valid(I.parts[cut:])


def psi(I: Composition, a: int) -> Composition:
    """Partial reversal: reverse L in the split I = LR and keep R in place.

    Only defined for compositions with all parts >= 2.  Preserves the
    partition image, and maps the exact-suffix family into itself.
    """
    if not I.parts or min(I.parts) < 2:
        raise ValueError(f"psi requires all parts >= 2, got {I}")
    _check_split(I, a)
    return Composition._from_valid(_psi_parts(I.parts, I.prefix_moduli, a))


def classify(I: Composition, a: int) -> Classification:
    """Classify I at threshold a.

    Compositions containing a part 1 are NOT_W (the expansion assembler
    routes them through the first-part-1 bound instead of erroring).  The
    rest are W_GT when i_1 exceeds the undershoot of the reversal at a and
    W_LE otherwise.  ``in_A`` flags positive-weight compositions having a
    suffix of modulus exactly a.
    """
    _check_threshold(I, a)
    return Classification(*_classify_parts(I.parts, I.prefix_moduli, a))


def _check_fiber_params(I: Composition, a: int, b: int) -> None:
    if a < 1 or b < 1:
        raise ValueError(f"thresholds must be positive, got a={a}, b={b}")
    if I.modulus != a + b + 1:
        raise ValueError(
            f"composition {I} has modulus {I.modulus}, expected a+b+1 = {a + b + 1}"
        )
    if _classify_parts(I.parts, I.prefix_moduli, a)[0] is not WClass.W_GT:
        raise ValueError(f"fiber requires a composition in W_>, got {I}")


def fiber(I: Composition, a: int, b: int) -> List[Composition]:
    """The preimages of I under the partial reversal that lie in W_LE.

    For I in W_GT with indices (p, q) at equation value b + 1, these are
    H_r = reversed(i_1 ... i_{p+r}) followed by (i_{p+r+1} ... i_z) for
    r = 1 ... q - p, in that order; the list is empty when q = p.  Requires
    |I| = a + b + 1.
    """
    _check_fiber_params(I, a, b)
    return _fiber_from(I, solve_psqt(I, b))


def _fiber_from(I: Composition, sol: PSQTSolution) -> List[Composition]:
    # fiber's body, for callers that already hold I in W_> and sol = solve_psqt(I, b)
    return [Composition._from_valid(H) for H in _fiber_parts(I.parts, sol.p, sol.q)]


def _check_three_path_params(I: Composition, a: int, b: int, c: int) -> None:
    if not (a >= b >= c >= 1):
        raise ValueError(f"path lengths must satisfy a >= b >= c >= 1, got {(a, b, c)}")
    if b < 2:
        raise ValueError(f"at most one path may have length 1, got {(a, b, c)}")
    n = a + b + c - 1
    if I.modulus != n:
        raise ValueError(
            f"composition {I} has modulus {I.modulus}, expected a+b+c-1 = {n}"
        )


def _coeff(I: Composition, a: int, b: int, c: int, twisted: bool) -> int:
    _check_three_path_params(I, a, b, c)
    parts, moduli = I.parts, I.prefix_moduli
    return _c_parts(parts, moduli, a, c, _solve_psqt_parts(parts, moduli, b + c - 2), twisted)


def coeff_c(I: Composition, a: int, b: int, c: int) -> int:
    """Coefficient of I in the three-path expansion via the reversal of I.

    Equals sum_{k=2..c} theta_plus(I, k) - sum_{k=a..a+c-2} theta_minus of
    the reversal, plus delta(I, b+c-1).  May be negative for individual
    compositions; only the partition-grouped sums are nonnegative.
    """
    return _coeff(I, a, b, c, False)


def coeff_c_prime(I: Composition, a: int, b: int, c: int) -> int:
    """Variant of :func:`coeff_c` with the undershoot sum taken over the
    reversal of phi(I) instead of the reversal of I.

    Grouping by partition yields the same vector as :func:`coeff_c`.
    """
    return _coeff(I, a, b, c, True)


def coeff_D(I: Composition, a: int, b: int) -> int:
    """Clock coefficient: the c = 2 case of :func:`coeff_c_prime`.

    D_I = theta_plus(I, 2) - theta_minus(reversed(phi(I)), a) + delta(I, b+1),
    for a >= b >= 2 and |I| = a + b + 1.  At c = 2 the twist by phi changes
    no term, so D_I is computed as ``coeff_c(I, a, b, 2)``.
    """
    if not (a >= b >= 2):
        raise ValueError(f"clock parameters need a >= b >= 2, got {(a, b)}")
    return _coeff(I, a, b, 2, False)


def coeff_c_doubleprime(I: Composition, a: int, b: int) -> int:
    """Fiber-grouped clock coefficient D_I w_I + sum over the fiber of D_H w_H.

    Defined for I in W_GT; nonnegative for every such I.
    """
    _check_fiber_params(I, a, b)
    if not (a >= b >= 2):
        raise ValueError(f"clock parameters need a >= b >= 2, got {(a, b)}")
    parts, moduli = I.parts, I.prefix_moduli
    return _c_doubleprime_parts(parts, moduli, a, b, _solve_psqt_parts(parts, moduli, b))
