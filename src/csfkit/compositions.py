"""Compositions, partitions, and nearest-prefix statistics.

Every coefficient formula in this package is indexed by integer compositions
and evaluated through the statistics defined here: the path weight ``w_I``
and the overshoot/undershoot of prefix sums around a threshold.  All values
are immutable and all functions are pure, so sweeps may share them freely
across workers.

Two layers: the public API validates, through the range, degree, parts and
modulus checks that it owns for the whole composition layer (and the theta
and clock parameter checks of the closed forms and sweeps), and wraps a
kernel that checks nothing: ``_moduli``, ``_theta_plus``, ``_theta_plus_sum``,
``_theta_minus``, ``_weight`` and ``_composition_tuples`` (the one enumerator)
on parts and moduli tuples, ``_weight_positive_terms`` (each weight-positive
tuple with its moduli, the code of its rho and its weight), and ``_width``,
``_pack`` and ``_unpack`` of the partition codes, the one partition key inside
the kit.  The sweeps and closed forms call the kernel; every value is built by
its checking constructor.

The enumerators yield lexicographic order by the successor rule (Stanley,
EC1 1.2; Knuth, TAOCP 4A 7.2.1) on one list, from the least composition with
first part >= first: pop the last part t, add 1 to the part before it, refill
t - 1 with the smallest run of parts >= min_part, or merge the two parts when
0 < t - 1 < min_part.  The first part only ever rises, so first = 1 with
min_part = 2 walks exactly the weight-positive compositions.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Mapping
from itertools import accumulate
from typing import Iterator

# Parts and moduli stay machine-word sized; coefficients elsewhere are
# arbitrary precision.  Enforced at this boundary so bad input fails fast.
MAX_MODULUS = 64


def _check_ints(what: str, *values) -> None:
    # each an int and not a bool: a bool would pass as 0 or 1, a float be
    # truncated and a string parsed
    for value in values:
        if type(value) is not int:
            raise ValueError(f"{what} must be an integer, got {value!r}")


def _check_container(what: str, value, kind: type = Iterable) -> None:
    # parts and edges are never a mapping, which would be read by its keys
    if not isinstance(value, kind) or kind is Iterable and isinstance(value, Mapping):
        name = "an iterable, not a mapping" if kind is Iterable else f"a {kind.__name__.lower()}"
        raise ValueError(f"{what} must be {name}, got {value!r}")


def _check_range(what: str, value, lo: int, hi: int, I: Composition) -> None:
    # an int, not a bool, in [lo, hi]; I names the composition it indexes
    _check_ints(what, value)
    if value < lo or value > hi:
        raise ValueError(f"{what} {value} outside [{lo}, {hi}] for {I}")


def _check_degree(n) -> None:
    _check_ints("n", n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > MAX_MODULUS:
        raise ValueError(f"n {n} exceeds the supported bound {MAX_MODULUS}")


def _check_parts(what: str, parts: tuple) -> None:
    for p in parts:
        if type(p) is not int:
            raise ValueError(f"{what} parts must be integers, got {p!r}")
        if p < 1:
            raise ValueError(f"{what} parts must be positive, got {p}")


def _check_modulus(I: Composition, n: int, rule: str = "") -> None:
    # rule names n in the message, as in "expected a+b+1 = 12"
    if I.modulus != n:
        expected = f"{rule} = {n}" if rule else n
        raise ValueError(f"composition {I} has modulus {I.modulus}, expected {expected}")


def _check_clock(a: int, b: int) -> None:
    _check_ints("clock parameter", a, b)
    if not (a >= b >= 2):
        raise ValueError(f"clock needs a >= b >= 2, got {(a, b)}")


def _check_theta(a: int, b: int, c: int) -> None:
    _check_ints("theta parameter", a, b, c)
    if not (a >= b >= c >= 1 and b >= 2):
        raise ValueError(f"theta needs a >= b >= c >= 1 with b >= 2, got {(a, b, c)}")


def _moduli(parts: tuple) -> tuple:
    # (0, i1, i1+i2, ..., n)
    return (0, *accumulate(parts))


def _theta_plus(moduli: tuple, a: int) -> int:
    # overshoot: the smallest prefix modulus >= a, minus a
    return moduli[bisect.bisect_left(moduli, a)] - a


def _theta_plus_sum(moduli: tuple, lo: int, hi: int) -> int:
    # overshoots summed over lo <= k <= hi; 0 for an empty range
    total = 0
    for k in range(lo, hi + 1):
        total += _theta_plus(moduli, k)
    return total


def _theta_minus(moduli: tuple, a: int) -> int:
    # undershoot: a minus the largest prefix modulus <= a
    return a - moduli[bisect.bisect_right(moduli, a) - 1]


def _weight(parts: tuple) -> int:
    w = parts[0]
    for p in parts[1:]:
        w *= p - 1
    return w


class _Frozen:
    # the kit's one value protocol: __init__ writes each field with
    # object.__setattr__ and nothing can set or delete one afterwards; ==,
    # hash, pickle and copy read only the constructor arguments that _args()
    # names, so equal values share a class and arguments, and a copy is
    # rebuilt through __init__, not by setting slots
    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._args() == other._args()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._args())

    def __reduce__(self):
        return type(self), self._args()


class Partition(tuple):
    """Weakly decreasing positive parts; the index of an e- or p-basis term."""

    def __new__(cls, parts=()) -> "Partition":
        _check_container("partition parts", parts)
        parts = tuple(parts)
        _check_parts("partition", parts)
        return super().__new__(cls, sorted(parts, reverse=True))

    @property
    def modulus(self) -> int:
        return sum(self)

    def __repr__(self) -> str:
        return f"Partition({list(self)})"


# Partition codes.  A partition of degree at most n packs into one int with
# width = n.bit_length() bits per part size: the multiplicity of the part s
# sits in the bits [width * (s - 1), width * s).  A multiplicity is at most
# n < 2^width, so the product of two partitions of total degree at most n,
# the multiset union of their parts, is the sum of their codes.


def _width(n: int) -> int:
    return n.bit_length()


def _pack(parts, width: int) -> int:
    code = 0
    for part in parts:
        code += 1 << (width * (part - 1))
    return code


def _unpack(code: int, width: int) -> tuple:
    # the parts in decreasing order
    mask = (1 << width) - 1
    parts: list = []
    part = 0
    while code:
        part += 1
        parts += [part] * (code & mask)
        code >>= width
    return tuple(reversed(parts))


class Composition(_Frozen):
    """An ordered tuple of positive integer parts.

    The cumulative sums ``(0, i1, i1+i2, ..., n)`` are precomputed once so
    that the sigma/theta statistics are binary searches; coefficient sweeps
    evaluate them many times per composition.

    The empty composition is a legal value (it appears as a prefix or suffix
    of splits) but is never an expansion index: ``weight`` and ``rho`` reject
    it.
    """

    __slots__ = ("parts", "prefix_moduli")

    def __init__(self, parts=()):
        _check_container("composition parts", parts)
        parts = tuple(parts)
        _check_parts("composition", parts)
        moduli = _moduli(parts)
        if moduli[-1] > MAX_MODULUS:
            raise ValueError(
                f"modulus {moduli[-1]} exceeds the supported bound {MAX_MODULUS}"
            )
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "prefix_moduli", moduli)

    @property
    def modulus(self) -> int:
        return self.prefix_moduli[-1]

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, k):
        return self.parts[k]

    def __bool__(self) -> bool:
        return bool(self.parts)

    def _args(self) -> tuple:
        return (self.parts,)

    def __repr__(self) -> str:
        return f"Composition({list(self.parts)})"

    def __str__(self) -> str:
        return format_parts(self.parts)

    def reversed(self) -> "Composition":
        """The composition with the same parts in opposite order."""
        return Composition(self.parts[::-1])

    def rho(self) -> Partition:
        """The partition obtained by sorting the parts decreasingly."""
        if not self.parts:
            raise ValueError("the empty composition has no partition image")
        return Partition(self.parts)

    @property
    def weight(self) -> int:
        """Path weight i1 * (i2 - 1) * ... * (iz - 1).

        Zero exactly when some part after the first equals 1.
        """
        if not self.parts:
            raise ValueError("weight of the empty composition is undefined")
        return _weight(self.parts)

    def sigma_plus(self, a: int) -> int:
        """Smallest prefix modulus that is >= a (the empty prefix counts)."""
        return a + self.theta_plus(a)

    def theta_plus(self, a: int) -> int:
        """Overshoot sigma_plus(a) - a; how far prefixes jump past a."""
        _check_range("threshold", a, 0, self.prefix_moduli[-1], self)
        return _theta_plus(self.prefix_moduli, a)

    def sigma_minus(self, a: int) -> int:
        """Largest prefix modulus that is <= a."""
        return a - self.theta_minus(a)

    def theta_minus(self, a: int) -> int:
        """Undershoot a - sigma_minus(a)."""
        _check_range("threshold", a, 0, self.prefix_moduli[-1], self)
        return _theta_minus(self.prefix_moduli, a)


def format_parts(parts) -> str:
    """Compact display: '722' while all parts are single digits, else '12,2,2'."""
    parts = tuple(parts)
    if not parts:
        return "()"
    if all(p <= 9 for p in parts):
        return "".join(str(p) for p in parts)
    return ",".join(str(p) for p in parts)


def parse_composition(text: str) -> Composition:
    """Parse a comma-separated part list such as '7,2,2'."""
    _check_container("composition text", text, str)
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse composition from {text!r}") from None
    return Composition(parts)


def _composition_tuples(n: int, min_part: int = 1, first: int | None = None) -> Iterator[tuple]:
    # the module docstring's successor rule; first part >= first (None: min_part)
    _check_degree(n)
    _check_ints("min_part", min_part)
    if min_part < 1:
        raise ValueError(f"min_part must be >= 1, got {min_part}")
    first = min_part if first is None else first
    if n < first:
        return
    parts = [first] + [min_part] * ((n - first) // min_part)
    parts[-1] += (n - first) % min_part
    while True:
        yield tuple(parts)
        if len(parts) == 1:
            return
        t = parts.pop()
        if 0 < t - 1 < min_part:
            parts[-1] += t
            continue
        parts[-1] += 1
        parts += [min_part] * ((t - 1) // min_part)
        parts[-1] += (t - 1) % min_part


def _weight_positive_terms(n: int) -> Iterator[tuple]:
    # (parts, moduli, the code of rho at width _width(n), weight), in order
    _check_degree(n)
    width = _width(n)
    for parts in _composition_tuples(n, 2, 1):
        yield parts, _moduli(parts), _pack(parts, width), _weight(parts)


def compositions_of(n: int, min_part: int = 1) -> Iterator[Composition]:
    """Yield every composition of n with all parts >= min_part, each exactly
    once, in lexicographic order of the part lists.

    The stream is generated lazily so full sweeps stay memory-flat.
    """
    for parts in _composition_tuples(n, min_part):
        yield Composition(parts)


def weight_positive_compositions(n: int) -> Iterator[Composition]:
    """Yield exactly the compositions of n with nonzero path weight.

    These are the compositions whose parts after the first are all >= 2, so
    the stream is Fibonacci-sized rather than 2^(n-1)-sized.  Order is
    lexicographic, matching :func:`compositions_of`: the same walk as
    ``compositions_of(n, 2)``, started at first part 1.
    """
    for parts in _composition_tuples(n, 2, 1):
        yield Composition(parts)
