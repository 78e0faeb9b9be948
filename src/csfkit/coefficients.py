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

Statistics of a reversal are read from the composition itself through
theta-duality, theta_minus(reversed I, k) = theta_plus(I, n - k) and
theta_plus(reversed I, k) = theta_minus(I, n - k), so no reversal is built.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import Enum
from typing import List, Tuple

from .compositions import Composition


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


def _solve_prefix(I: Composition, value: int) -> Tuple[int, int]:
    # unique (p, s): value = |i_1 ... i_{p-1}| + s with 1 <= s <= i_p
    moduli = I.prefix_moduli
    if value < 1 or value > moduli[-1]:
        raise ValueError(f"equation value {value} outside [1, {moduli[-1]}] for {I}")
    p = bisect.bisect_left(moduli, value)
    return p, value - moduli[p - 1]


def _solve_cyclic(I: Composition, value: int) -> Tuple[int, int]:
    # unique (q, t): value = |i_2 ... i_q| + t with 1 <= t <= i_{q+1},
    # reading i_{z+1} as i_1
    moduli = I.prefix_moduli
    if value < 1 or value > moduli[-1]:
        raise ValueError(f"equation value {value} outside [1, {moduli[-1]}] for {I}")
    # |i_2 ... i_k| = |i_1 ... i_k| - i_1, so bisect the prefix moduli for value + i_1
    i1 = I.parts[0]
    q = bisect.bisect_left(moduli, value + i1, 1) - 1
    return q, value + i1 - moduli[q]


def solve_ps(I: Composition, b: int) -> Tuple[int, int]:
    """Solve b + 1 = |i_1 ... i_{p-1}| + s with 1 <= s <= i_p."""
    return _solve_prefix(I, b + 1)


def solve_qt(I: Composition, b: int) -> Tuple[int, int]:
    """Solve b + 1 = |i_2 ... i_q| + t with 1 <= t <= i_{q+1} (cyclically)."""
    return _solve_cyclic(I, b + 1)


def solve_psqt(I: Composition, b: int) -> PSQTSolution:
    """Both solutions at the common equation value b + 1."""
    p, s = solve_ps(I, b)
    q, t = solve_qt(I, b)
    return PSQTSolution(p, s, q, t)


def _e2(values) -> int:
    # second elementary symmetric polynomial; zero on fewer than 2 variables
    total = 0
    square = 0
    for v in values:
        total += v
        square += v * v
    return (total * total - square) // 2


def delta(I: Composition, b: int) -> int:
    """Cycle-chord coefficient of I at prefix-equation value b.

    With (p, s) and (q, t) solving b = |i_1 ... i_{p-1}| + s = |i_2 ... i_q| + t,
    returns s * (i_p - s - i_1) when i_1 <= i_p - s, and otherwise the second
    elementary symmetric polynomial of (i_p - s, i_{p+1}, ..., i_q, t).

    Callers expanding a three-path graph pass b + c - 1, and b + 1 in the
    c = 2 case; the cycle-chord expansion itself passes its own b.  The
    result is always nonnegative.
    """
    p, s = _solve_prefix(I, b)
    leftover = I.parts[p - 1] - s
    if I.parts[0] <= leftover:
        return s * (leftover - I.parts[0])
    q, t = _solve_cyclic(I, b)
    return _e2((leftover, *I.parts[p:q], t))


def phi(I: Composition, a: int) -> Composition:
    """Reverse the interior of the prefix before the shortest suffix of
    modulus >= a.

    Writing I = PQ with Q that shortest suffix, the image is i_1 followed by
    the reversal of P minus its first part, followed by Q; it is I itself
    (the same object) when P has at most two parts.  The map is an
    involution, fixes the first part, and preserves both the partition
    image and the weight.
    """
    moduli = I.prefix_moduli
    n = moduli[-1]
    if not I.parts or a < 1 or a > n:
        raise ValueError(f"threshold {a} outside [1, {n}] for {I}")
    cut = bisect.bisect_right(moduli, n - a) - 1
    if cut <= 2:
        return I
    parts = I.parts
    return Composition._from_valid((parts[0],) + parts[1:cut][::-1] + parts[cut:])


def split_LR(I: Composition, a: int) -> Tuple[Composition, Composition]:
    """Split I = LR where R is the longest proper suffix of modulus <= a.

    L is always non-empty; R may be empty.  The undershoot of the reversed
    composition at a equals a - |R|.
    """
    if not I.parts or a < 1 or a >= I.modulus:
        raise ValueError(f"threshold {a} outside [1, {I.modulus}) for {I}")
    cut = bisect.bisect_left(I.prefix_moduli, I.modulus - a)
    return Composition._from_valid(I.parts[:cut]), Composition._from_valid(I.parts[cut:])


def psi(I: Composition, a: int) -> Composition:
    """Partial reversal: reverse L in the split I = LR and keep R in place.

    Only defined for compositions with all parts >= 2.  Preserves the
    partition image, and maps the exact-suffix family into itself.
    """
    if not I.parts or min(I.parts) < 2:
        raise ValueError(f"psi requires all parts >= 2, got {I}")
    L, R = split_LR(I, a)
    return Composition._from_valid(L.parts[::-1] + R.parts)


def classify(I: Composition, a: int) -> Classification:
    """Classify I at threshold a.

    Compositions containing a part 1 are NOT_W (the expansion assembler
    routes them through the first-part-1 bound instead of erroring).  The
    rest are W_GT when i_1 exceeds the undershoot of the reversal at a and
    W_LE otherwise.  ``in_A`` flags positive-weight compositions having a
    suffix of modulus exactly a.
    """
    parts = I.parts
    n = I.prefix_moduli[-1]
    if not parts or a < 1 or a > n:
        raise ValueError(f"threshold {a} outside [1, {n}] for {I}")
    # positive weight: no part after the first equals 1
    in_A = 1 not in parts[1:] and I.theta_minus(n - a) == 0
    if 1 in parts:
        return Classification(WClass.NOT_W, in_A)
    if parts[0] > I.theta_plus(n - a):
        return Classification(WClass.W_GT, in_A)
    return Classification(WClass.W_LE, in_A)


def fiber(I: Composition, a: int, b: int) -> List[Composition]:
    """The preimages of I under the partial reversal that lie in W_LE.

    For I in W_GT with indices (p, q) at equation value b + 1, these are
    H_r = reversed(i_1 ... i_{p+r}) followed by (i_{p+r+1} ... i_z) for
    r = 1 ... q - p, in that order; the list is empty when q = p.  Requires
    |I| = a + b + 1.
    """
    if a < 1 or b < 1:
        raise ValueError(f"thresholds must be positive, got a={a}, b={b}")
    if I.modulus != a + b + 1:
        raise ValueError(
            f"composition {I} has modulus {I.modulus}, expected a+b+1 = {a + b + 1}"
        )
    if classify(I, a).wclass is not WClass.W_GT:
        raise ValueError(f"fiber requires a composition in W_>, got {I}")
    return _fiber_from(I, solve_psqt(I, b))


def _fiber_from(I: Composition, sol: PSQTSolution) -> List[Composition]:
    # fiber's body, for callers that already hold I in W_> and sol = solve_psqt(I, b)
    parts = I.parts
    return [
        Composition._from_valid(parts[: sol.p + r][::-1] + parts[sol.p + r :])
        for r in range(1, sol.q - sol.p + 1)
    ]


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


def coeff_c(I: Composition, a: int, b: int, c: int) -> int:
    """Coefficient of I in the three-path expansion via the reversal of I.

    Equals sum_{k=2..c} theta_plus(I, k) - sum_{k=a..a+c-2} theta_minus of
    the reversal, plus delta(I, b+c-1).  May be negative for individual
    compositions; only the partition-grouped sums are nonnegative.
    """
    _check_three_path_params(I, a, b, c)
    total = delta(I, b + c - 1)
    for k in range(2, c + 1):
        total += I.theta_plus(k)
    n = I.modulus
    for k in range(a, a + c - 1):
        total -= I.theta_plus(n - k)
    return total


def coeff_c_prime(I: Composition, a: int, b: int, c: int) -> int:
    """Variant of :func:`coeff_c` with the undershoot sum taken over the
    reversal of phi(I) instead of the reversal of I.

    Grouping by partition yields the same vector as :func:`coeff_c`.
    """
    _check_three_path_params(I, a, b, c)
    total = delta(I, b + c - 1)
    for k in range(2, c + 1):
        total += I.theta_plus(k)
    J = phi(I, a)
    n = I.modulus
    for k in range(a, a + c - 1):
        total -= J.theta_plus(n - k)
    return total


def coeff_D(I: Composition, a: int, b: int) -> int:
    """Clock coefficient: the c = 2 case of :func:`coeff_c_prime`.

    D_I = theta_plus(I, 2) - theta_minus(reversed(phi(I)), a) + delta(I, b+1),
    for a >= b >= 2 and |I| = a + b + 1.
    """
    if not (a >= b >= 2):
        raise ValueError(f"clock parameters need a >= b >= 2, got {(a, b)}")
    return coeff_c_prime(I, a, b, 2)


def coeff_c_doubleprime(I: Composition, a: int, b: int) -> int:
    """Fiber-grouped clock coefficient D_I w_I + sum over the fiber of D_H w_H.

    Defined for I in W_GT; nonnegative for every such I.
    """
    preimages = fiber(I, a, b)
    total = coeff_D(I, a, b) * I.weight
    for H in preimages:
        total += coeff_D(H, a, b) * H.weight
    return total
