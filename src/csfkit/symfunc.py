"""Exact symmetric-function vectors in the elementary and power-sum bases.

Closed-form expansions arrive in the e-basis and the graph oracle produces
the p-basis natively.  Coefficients are ``int`` wherever they are integers.
Equality is decided in the e-basis: by Newton's identities every p_lambda
has integer e-coefficients, so :func:`pvector_to_e` maps the oracle's
vector over with integers only.  The e -> p direction
(:func:`e_partition_to_p`, :func:`evector_to_p`) stays as the independent
route; its coefficients are exact ``Fraction`` values because the images of
e_n acquire denominators up to n!.  Both directions share one grouped
conversion on the partition codes of :mod:`csfkit.compositions` and differ
only in the image of a one-part basis element.
"""

from __future__ import annotations

from collections.abc import Mapping
from enum import Enum
from functools import lru_cache
from math import comb
from types import MappingProxyType
from typing import Dict, Iterator, Optional, Tuple

from .compositions import (
    Partition, _Frozen, _check_container, _check_degree, _check_ints, _pack, _unpack, _width,
)


def _check_exact(what: str, value) -> None:
    # an int (not a bool) or a Fraction: a float would bring its binary
    # rounding into exact arithmetic, and a string would be parsed
    if type(value) is not int:
        from fractions import Fraction  # imported here: an int never needs it

        if not isinstance(value, Fraction):
            raise ValueError(f"{what} must be an int or a Fraction, got {value!r}")


def _decimal(what: str, text) -> int:
    # only the strings that str(int) writes, as to_json_dict does: no JSON
    # number or bool, and no '+', space, '_', non-ASCII digit or leading zero
    digits = text.removeprefix("-") if type(text) is str else ""
    if digits.isdigit() and digits.isascii() and str(int(text)) == text:
        return int(text)
    raise ValueError(f"term {what} must be a decimal integer string, got {text!r}")


class Basis(Enum):
    E = "e"
    P = "p"


class BasisVector(_Frozen):
    """A homogeneous symmetric function stored as partition -> coefficient.

    Invariants: every stored partition has modulus equal to the degree, no
    zero coefficients are stored, and a coefficient is an ``int`` when it is
    integral and a ``Fraction`` only when its denominator is not 1.
    ``terms`` is a read-only mapping and no field can be rebound.
    """

    __slots__ = ("basis", "degree", "terms")

    def __init__(self, basis: Basis, degree: int, terms: Optional[Dict] = None):
        if not isinstance(basis, Basis):
            raise ValueError(f"basis must be a Basis, got {basis!r}")
        _check_ints("degree", degree)
        if degree < 0:
            raise ValueError(f"degree must be nonnegative, got {degree}")
        terms = {} if terms is None else terms
        _check_container("terms", terms, Mapping)
        clean: Dict[Partition, object] = {}
        for key, value in terms.items():
            lam = key if isinstance(key, Partition) else Partition(key)
            if lam.modulus != degree:
                raise ValueError(
                    f"partition {list(lam)} has modulus {lam.modulus}, "
                    f"expected degree {degree}"
                )
            _check_exact("coefficient", value)
            if value:
                clean[lam] = value.numerator if value.denominator == 1 else value
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", MappingProxyType(clean))

    def _args(self) -> tuple:
        # terms as a dict, since a mappingproxy cannot pickle
        return (self.basis, self.degree, dict(self.terms))

    __hash__ = None  # unhashable, like the dict of its terms

    def __repr__(self) -> str:
        return f"BasisVector({self.basis.value}, degree={self.degree}, terms={len(self.terms)})"

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, lam):
        return self.terms.get(Partition(lam), 0)

    def items_sorted(self) -> Iterator[Tuple[Partition, object]]:
        """Terms in reverse-lexicographic partition order (deterministic)."""
        for lam in sorted(self.terms, reverse=True):
            yield lam, self.terms[lam]

    def _check_compatible(self, other: "BasisVector") -> None:
        if self.basis is not other.basis:
            raise ValueError(
                f"basis mismatch: {self.basis.value} vs {other.basis.value}"
            )
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def add(self, other: "BasisVector") -> "BasisVector":
        self._check_compatible(other)
        merged = self.terms.copy()
        for lam, coef in other.terms.items():
            merged[lam] = merged.get(lam, 0) + coef
        return BasisVector(self.basis, self.degree, merged)

    def scale(self, factor) -> "BasisVector":
        _check_exact("scale factor", factor)
        return BasisVector(
            self.basis,
            self.degree,
            {lam: coef * factor for lam, coef in self.terms.items()},
        )

    def subtract(self, other: "BasisVector") -> "BasisVector":
        return self.add(other.scale(-1))

    def equals(self, other: "BasisVector") -> bool:
        """Exact equality; requires matching basis and degree."""
        self._check_compatible(other)
        return self.terms == other.terms

    def evaluate_ones(self, k: int):
        """Evaluate at x_1 = ... = x_k = 1 and all other variables 0.

        In the e-basis each e_m contributes C(k, m); in the p-basis each
        p_m contributes k.
        """
        _check_ints("variable count", k)
        if k < 0:
            raise ValueError(f"variable count must be nonnegative, got {k}")
        total = 0
        for lam, coef in self.terms.items():
            if self.basis is Basis.E:
                value = 1
                for part in lam:
                    value *= comb(k, part)
            else:
                value = k ** len(lam)
            total += coef * value
        return total

    def to_json_dict(self) -> dict:
        return {
            "basis": self.basis.value,
            "degree": self.degree,
            "terms": [
                {
                    "partition": list(lam),
                    "num": str(coef.numerator),
                    "den": str(coef.denominator),
                }
                for lam, coef in self.items_sorted()
            ],
        }

    def to_json(self, **kwargs) -> str:
        # imported here: json costs every CLI process start-up time
        import json

        return json.dumps(self.to_json_dict(), **kwargs)

    @classmethod
    def from_json_dict(cls, data: dict) -> "BasisVector":
        from fractions import Fraction

        if not (isinstance(data, dict) and {"basis", "degree"} <= data.keys()
                and isinstance(data.get("terms"), list)
                and all(isinstance(t, dict) and {"num", "den"} <= t.keys()
                        and isinstance(t.get("partition"), list) for t in data["terms"])):
            raise ValueError("a basis vector document is a dict with a 'basis', a 'degree' and a"
                             " list 'terms' of dicts with a list 'partition', a 'num' and a 'den'")
        basis = Basis(data["basis"])
        terms = {}
        for entry in data["terms"]:
            den = _decimal("den", entry["den"])
            if den < 1:
                raise ValueError(f"term den must be positive, got {den}")
            terms[Partition(entry["partition"])] = Fraction(_decimal("num", entry["num"]), den)
        return cls(basis, data["degree"], terms)

    @classmethod
    def from_json(cls, text: str) -> "BasisVector":
        import json

        return cls.from_json_dict(json.loads(text))


def _multiply_into(acc: Dict, left: Dict, right: Dict) -> Dict:
    # add left * right to acc over codes of one width, in a basis where the
    # index partition of a product is the multiset union of the factors'
    # (p and e alike)
    get = acc.get
    for mu, c1 in left.items():
        for nu, c2 in right.items():
            key = mu + nu
            acc[key] = get(key, 0) + c1 * c2
    return acc


@lru_cache(maxsize=None)
def _e_to_p_terms(n: int, width: int) -> Dict[int, object]:
    """Power-sum image of a single e_n, keyed by codes of the given width,
    with ``Fraction`` coefficients, via the classical recursion
    n e_n = sum_{i=1..n} (-1)^(i-1) e_{n-i} p_i.

    Cached per degree and width; recomputation is idempotent so concurrent
    readers are safe.
    """
    from fractions import Fraction

    if n == 0:
        return {0: Fraction(1)}
    acc: Dict[int, object] = {}
    for i in range(1, n + 1):
        _multiply_into(acc, _e_to_p_terms(n - i, width),
                       {_pack((i,), width): Fraction(1 if i % 2 else -1, n)})
    return {key: coef for key, coef in acc.items() if coef}


@lru_cache(maxsize=None)
def _p_to_e_terms(k: int, width: int) -> Dict[int, int]:
    """e-basis image of a single p_k, keyed by codes of the given width, by
    Newton's identity p_k = sum_{i=1..k-1} (-1)^(i-1) e_i p_{k-i} + (-1)^(k-1) k e_k.

    Cached per k and width; recomputation is idempotent so concurrent
    readers are safe.
    """
    acc: Dict[int, int] = {_pack((k,), width): k if k % 2 else -k}
    for i in range(1, k):
        _multiply_into(acc, _p_to_e_terms(k - i, width), {_pack((i,), width): 1 if i % 2 else -1})
    return {key: coef for key, coef in acc.items() if coef}


def _change_basis(terms: Dict[int, object], width: int, image) -> Dict[int, object]:
    # Map terms over codes to the other multiplicative basis, where
    # image(k, width) is the image of its single basis element of index k.
    # b_lambda = b_k^m b_rest with k the largest part of lambda and m its
    # multiplicity: group the terms by (k, m), convert each group's rests,
    # then multiply by the image of b_k m times.  The recursion depth is the
    # number of distinct parts.
    acc: Dict[int, object] = {}
    groups: Dict[tuple, Dict[int, object]] = {}
    for code, coef in terms.items():
        if not code:
            acc[0] = coef  # the empty partition: 1 in both bases
            continue
        k = -(-code.bit_length() // width)
        top = width * (k - 1)
        m = code >> top
        groups.setdefault((k, m), {})[code - (m << top)] = coef
    for (k, m), rests in groups.items():
        product = _change_basis(rests, width, image)
        factor = image(k, width)
        for _ in range(m - 1):
            product = _multiply_into({}, product, factor)
        _multiply_into(acc, product, factor)
    return {key: coef for key, coef in acc.items() if coef}


def _vector_codes(vector: BasisVector) -> Dict[int, object]:
    width = _width(vector.degree)
    return {_pack(lam, width): coef for lam, coef in vector.terms.items()}


def _from_codes(basis: Basis, n: int, codes: Dict[int, object]) -> BasisVector:
    # the vector of degree n with coefficients by codes of width _width(n)
    width = _width(n)
    return BasisVector(basis, n, {_unpack(code, width): coef for code, coef in codes.items()})


def _convert(codes: Dict[int, object], n: int, target: Basis) -> BasisVector:
    """The vector of degree n in the basis ``target`` whose coefficients in the
    other basis are ``codes`` (width ``_width(n)``); n above MAX_MODULUS is refused."""
    _check_degree(max(n, 1))  # before any image is built; degree 0 builds none
    image = _p_to_e_terms if target is Basis.E else _e_to_p_terms
    return _from_codes(target, n, _change_basis(codes, _width(n), image))


def e_partition_to_p(lam) -> BasisVector:
    """Power-sum expansion of e_lambda, the product of the e_part images.

    Products are formed directly in the p-basis, where multiplication is
    just multiset union of the index partitions.
    """
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    if not lam:
        raise ValueError("empty partition has no basis element")
    return evector_to_p(BasisVector(Basis.E, lam.modulus, {lam: 1}))


def evector_to_p(vector: BasisVector) -> BasisVector:
    """Linear extension of :func:`e_partition_to_p` to e-basis vectors."""
    if vector.basis is not Basis.E:
        raise ValueError(f"expected an e-basis vector, got basis {vector.basis.value}")
    return _convert(_vector_codes(vector), vector.degree, Basis.P)


def pvector_to_e(vector: BasisVector) -> BasisVector:
    """e-basis expansion of a p-basis vector.

    The images of the p_k come from Newton's identities and each p_lambda
    factors through its largest part, on partition codes: an integer
    vector maps over in integers only.
    """
    if vector.basis is not Basis.P:
        raise ValueError(f"expected a p-basis vector, got basis {vector.basis.value}")
    return _convert(_vector_codes(vector), vector.degree, Basis.E)


def first_difference(v: BasisVector, w: BasisVector) -> Optional[Tuple[Partition, object, object]]:
    """First partition (reverse-lexicographically) where two vectors differ,
    with both coefficients; None when the vectors are equal."""
    v._check_compatible(w)
    for lam in sorted(set(v.terms) | set(w.terms), reverse=True):
        cv = v.terms.get(lam, 0)
        cw = w.terms.get(lam, 0)
        if cv != cw:
            return lam, cv, cw
    return None
