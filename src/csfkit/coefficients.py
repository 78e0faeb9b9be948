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

Two layers: each public function checks its parameters and wraps the kernel,
private functions on the parts and prefix-moduli tuples that check nothing
(``_solve_psqt_parts``, ``_delta_parts``, ``_phi_parts``, ``_psi_parts``,
``_in_w_gt``, ``_in_A``, ``_fiber_parts``, ``_theta_coeff``,
``_c_doubleprime_parts``); only ``classify`` builds a ``WClass``.  The kernel's
callers are the sweeps of :mod:`csfkit.verify` and the public wrappers here
(the closed forms of :mod:`csfkit.graphs` sum the same coefficients by a
window DP and never load this module); ``_theta_coeff`` is the one body of
c_I, c'_I, D_I and delta at c = 1; c'' sums looked-up D_H w_H.

Statistics of a reversal are read from the composition itself through
theta-duality, theta_minus(reversed I, k) = theta_plus(I, n - k) and
theta_plus(reversed I, k) = theta_minus(I, n - k), so no reversal is built.
"""

from __future__ import annotations

import bisect
from enum import Enum
from typing import List, NamedTuple, Tuple

from .compositions import (
    Composition, _check_clock, _check_modulus, _check_range, _check_theta, _moduli, _theta_minus,
    _theta_plus, _theta_plus_sum, _weight,
)


class WClass(Enum):
    """Position of a composition relative to the threshold a.

    ``NOT_W`` marks compositions containing a part equal to 1.  The other two
    split the all-parts->=2 compositions by comparing the first part with the
    undershoot of the reversed composition at a.
    """

    W_GT = "W>"
    W_LE = "W<="
    NOT_W = "not-W"


class Classification(NamedTuple):
    wclass: WClass
    # True when the composition has positive weight and a suffix of modulus
    # exactly a (equivalently the reversal has zero overshoot at a).
    in_A: bool


class PSQTSolution(NamedTuple):
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


def _delta_parts(parts, sol) -> int:
    # delta at the equation value that sol = (p, s, q, t) solves; else e2 of
    # x = (i_p - s, i_{p+1}, ..., i_q, t), which sums to i_1 as |i_p..i_q| = i_1 + s - t
    p, s, q, t = sol
    leftover = parts[p - 1] - s
    if parts[0] <= leftover:
        return s * (leftover - parts[0])
    square = leftover * leftover + t * t
    for part in parts[p:q]:
        square += part * part
    return (parts[0] * parts[0] - square) // 2


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


def _in_w_gt(parts, moduli, a: int) -> bool:
    # 1 <= a <= n: no part 1, and i_1 above the reversal's undershoot at a (at n - a)
    return 1 not in parts and parts[0] > _theta_plus(moduli, moduli[-1] - a)


def _in_A(parts, moduli, a: int) -> bool:
    # 1 <= a <= n: the reversal's overshoot at a (at n - a) is 0, and w_I > 0
    return _theta_minus(moduli, moduli[-1] - a) == 0 and 1 not in parts[1:]


def _fiber_parts(parts, p: int, q: int) -> List[tuple]:
    # H_1 ... H_{q-p} of I in W_> with indices (p, q)
    return [parts[: p + r][::-1] + parts[p + r :] for r in range(1, q - p + 1)]


def _theta_coeff(a: int, b: int, c: int, twisted: bool):
    # c_I (c'_I when twisted) on the kernel tuples: delta at b + c - 1 plus
    # sum_{k=2..c} theta_plus(I, k) - sum_{k=n-a-c+2..n-a} theta_plus(J, k), the
    # undershoots of J's reversal at a..a+c-2 read by duality; J = phi(I, a)
    # for c'_I, else I.  At c = 1 it is delta(I, b), which reads neither a nor
    # the twist, so it also serves a < b
    def coeff(parts, moduli) -> int:
        J = _phi_parts(parts, moduli, a) if twisted else parts
        j_moduli = moduli if J is parts else _moduli(J)
        n = moduli[-1]
        return (_delta_parts(parts, _solve_psqt_parts(parts, moduli, b + c - 2))
                + _theta_plus_sum(moduli, 2, c) - _theta_plus_sum(j_moduli, n - a - c + 2, n - a))
    return coeff


def _c_doubleprime_parts(parts, p: int, q: int, term) -> int:
    # I in W_> with indices (p, q) at b + 1; term(H) is the pair's D_H * w_H
    return term(parts) + sum(map(term, _fiber_parts(parts, p, q)))


# ---------------------------------------------------------------------------
# public API: checked wrappers over the kernel


def solve_ps(I: Composition, b: int) -> Tuple[int, int]:
    """Solve b + 1 = |i_1 ... i_{p-1}| + s with 1 <= s <= i_p."""
    return solve_psqt(I, b)[:2]


def solve_qt(I: Composition, b: int) -> Tuple[int, int]:
    """Solve b + 1 = |i_2 ... i_q| + t with 1 <= t <= i_{q+1} (cyclically)."""
    return solve_psqt(I, b)[2:]


def solve_psqt(I: Composition, b: int) -> PSQTSolution:
    """Both solutions at the common equation value b + 1, for b in [0, n)."""
    _check_range("b", b, 0, I.modulus - 1, I)
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
    _check_range("equation value", b, 1, I.modulus, I)
    return _delta_parts(I.parts, _solve_psqt_parts(I.parts, I.prefix_moduli, b - 1))


def phi(I: Composition, a: int) -> Composition:
    """Reverse the interior of the prefix before the shortest suffix of
    modulus >= a.

    Writing I = PQ with Q that shortest suffix, the image is i_1 followed by
    the reversal of P minus its first part, followed by Q; it is I itself
    (the same object) when P has at most two parts.  The map is an
    involution, fixes the first part, and preserves both the partition
    image and the weight.
    """
    _check_range("threshold", a, 1, I.modulus, I)
    J = _phi_parts(I.parts, I.prefix_moduli, a)
    return I if J is I.parts else Composition(J)


def split_LR(I: Composition, a: int) -> Tuple[Composition, Composition]:
    """Split I = LR where R is the longest proper suffix of modulus <= a.

    L is always non-empty; R may be empty.  The undershoot of the reversed
    composition at a equals a - |R|.
    """
    _check_range("threshold", a, 1, I.modulus - 1, I)
    cut = _split_cut(I.prefix_moduli, a)
    return Composition(I.parts[:cut]), Composition(I.parts[cut:])


def psi(I: Composition, a: int) -> Composition:
    """Partial reversal: reverse L in the split I = LR and keep R in place.

    Only defined for compositions with all parts >= 2.  Preserves the
    partition image, and maps the exact-suffix family into itself.
    """
    if not I.parts or min(I.parts) < 2:
        raise ValueError(f"psi requires all parts >= 2, got {I}")
    _check_range("threshold", a, 1, I.modulus - 1, I)
    return Composition(_psi_parts(I.parts, I.prefix_moduli, a))


def classify(I: Composition, a: int) -> Classification:
    """Classify I at threshold a.

    Compositions containing a part 1 are NOT_W (the expansion assembler
    routes them through the first-part-1 bound instead of erroring).  The
    rest are W_GT when i_1 exceeds the undershoot of the reversal at a and
    W_LE otherwise.  ``in_A`` flags positive-weight compositions having a
    suffix of modulus exactly a.
    """
    _check_range("threshold", a, 1, I.modulus, I)
    parts, moduli = I.parts, I.prefix_moduli
    wclass = (WClass.NOT_W if 1 in parts
              else WClass.W_GT if _in_w_gt(parts, moduli, a) else WClass.W_LE)
    return Classification(wclass, _in_A(parts, moduli, a))


def _check_fiber_params(I: Composition, a: int, b: int) -> None:
    _check_range("a", a, 1, I.modulus, I)
    _check_range("b", b, 1, I.modulus, I)
    _check_modulus(I, a + b + 1, "a+b+1")
    if not _in_w_gt(I.parts, I.prefix_moduli, a):
        raise ValueError(f"fiber requires a composition in W_>, got {I}")


def fiber(I: Composition, a: int, b: int) -> List[Composition]:
    """The preimages of I under the partial reversal that lie in W_LE.

    For I in W_GT with indices (p, q) at equation value b + 1, these are
    H_r = reversed(i_1 ... i_{p+r}) followed by (i_{p+r+1} ... i_z) for
    r = 1 ... q - p, in that order; the list is empty when q = p.  Requires
    |I| = a + b + 1.
    """
    _check_fiber_params(I, a, b)
    p, _, q, _ = _solve_psqt_parts(I.parts, I.prefix_moduli, b)
    return [Composition(H) for H in _fiber_parts(I.parts, p, q)]


def _coeff(I: Composition, a: int, b: int, c: int, twisted: bool) -> int:
    _check_theta(a, b, c)
    _check_modulus(I, a + b + c - 1, "a+b+c-1")
    return _theta_coeff(a, b, c, twisted)(I.parts, I.prefix_moduli)


def coeff_c(I: Composition, a: int, b: int, c: int) -> int:
    """Coefficient of I in the three-path expansion via the reversal of I.

    Equals delta(I, b+c-1) + sum_{k=2..c} theta_plus(I, k) minus
    sum_{k=n-a-c+2..n-a} theta_plus(I, k), the undershoots of the reversal at
    a..a+c-2 read by theta-duality.  May be negative for individual
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
    for a >= b >= 2 and |I| = a + b + 1.  At c = 2 phi keeps the prefix moduli
    where the one undershoot is read, so D_I is ``_theta_coeff(a, b, 2, False)``.
    """
    _check_clock(a, b)
    _check_modulus(I, a + b + 1, "a+b+1")
    return _theta_coeff(a, b, 2, False)(I.parts, I.prefix_moduli)


def coeff_c_doubleprime(I: Composition, a: int, b: int) -> int:
    """Fiber-grouped clock coefficient D_I w_I + sum over the fiber of D_H w_H.

    Defined for I in W_GT; nonnegative for every such I.
    """
    _check_clock(a, b)
    _check_fiber_params(I, a, b)
    p, _, q, _ = _solve_psqt_parts(I.parts, I.prefix_moduli, b)
    D = _theta_coeff(a, b, 2, False)
    return _c_doubleprime_parts(I.parts, p, q, lambda H: D(H, _moduli(H)) * _weight(H))
