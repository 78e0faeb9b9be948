"""Exact symmetric-function vectors in the elementary and power-sum bases.

Closed-form expansions arrive in the e-basis and the graph oracle produces
the p-basis natively.  Equality is decided in the e-basis: by Newton's
identities every p_lambda has integer e-coefficients, so
:func:`pvector_to_e` maps the oracle's vector over with integers only.  The
e -> p direction (:func:`e_partition_to_p`, :func:`evector_to_p`) stays as
the independent route; its coefficients are exact rationals because the
images of e_n acquire denominators up to n!.
"""

from __future__ import annotations

import json
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from types import MappingProxyType
from typing import Dict, Iterator, Optional, Tuple

from .compositions import Partition


class Basis(Enum):
    E = "e"
    P = "p"


class BasisVector:
    """A homogeneous symmetric function stored as partition -> coefficient.

    Invariants: every stored partition has modulus equal to the degree, no
    zero coefficients are stored, and coefficients are exact ``Fraction``
    values.  ``terms`` is a read-only mapping.
    """

    __slots__ = ("basis", "degree", "terms")

    def __init__(self, basis: Basis, degree: int, terms: Optional[Dict] = None):
        if degree < 0:
            raise ValueError(f"degree must be nonnegative, got {degree}")
        clean: Dict[Partition, Fraction] = {}
        for key, value in (terms or {}).items():
            lam = key if isinstance(key, Partition) else Partition(key)
            if lam.modulus != degree:
                raise ValueError(
                    f"partition {list(lam)} has modulus {lam.modulus}, "
                    f"expected degree {degree}"
                )
            coef = Fraction(value)
            if coef:
                clean[lam] = coef
        self.basis = basis
        self.degree = degree
        self.terms = MappingProxyType(clean)

    def __repr__(self) -> str:
        return f"BasisVector({self.basis.value}, degree={self.degree}, terms={len(self.terms)})"

    def __eq__(self, other) -> bool:
        if isinstance(other, BasisVector):
            return (
                self.basis is other.basis
                and self.degree == other.degree
                and self.terms == other.terms
            )
        return NotImplemented

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, lam) -> Fraction:
        return self.terms.get(Partition(lam), Fraction(0))

    def items_sorted(self) -> Iterator[Tuple[Partition, Fraction]]:
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
            merged[lam] = merged.get(lam, Fraction(0)) + coef
        return BasisVector(self.basis, self.degree, merged)

    def scale(self, factor) -> "BasisVector":
        factor = Fraction(factor)
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

    def evaluate_ones(self, k: int) -> Fraction:
        """Evaluate at x_1 = ... = x_k = 1 and all other variables 0.

        In the e-basis each e_m contributes C(k, m); in the p-basis each
        p_m contributes k.
        """
        if k < 0:
            raise ValueError(f"variable count must be nonnegative, got {k}")
        total = Fraction(0)
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
        return json.dumps(self.to_json_dict(), **kwargs)

    @classmethod
    def from_json_dict(cls, data: dict) -> "BasisVector":
        basis = Basis(data["basis"])
        terms = {
            Partition(entry["partition"]): Fraction(
                int(entry["num"]), int(entry["den"])
            )
            for entry in data["terms"]
        }
        return cls(basis, int(data["degree"]), terms)

    @classmethod
    def from_json(cls, text: str) -> "BasisVector":
        return cls.from_json_dict(json.loads(text))


def _multiply_into(acc: Dict, left: Dict, right: Dict) -> Dict:
    # add left * right to acc, in a basis where the index partitions of a
    # product are the multiset union of the factors' (p and e alike)
    for mu, c1 in left.items():
        for nu, c2 in right.items():
            key = tuple(sorted(mu + nu, reverse=True))
            acc[key] = acc.get(key, 0) + c1 * c2
    return acc


@lru_cache(maxsize=None)
def _e_to_p_terms(n: int) -> Dict[tuple, Fraction]:
    """Power-sum image of a single e_n via the classical recursion
    n e_n = sum_{i=1..n} (-1)^(i-1) e_{n-i} p_i.

    Cached per degree; recomputation is idempotent so concurrent readers
    are safe.
    """
    if n == 0:
        return {(): Fraction(1)}
    acc: Dict[tuple, Fraction] = {}
    for i in range(1, n + 1):
        _multiply_into(acc, _e_to_p_terms(n - i), {(i,): Fraction(1 if i % 2 else -1, n)})
    return {key: coef for key, coef in acc.items() if coef}


def e_partition_to_p(lam) -> BasisVector:
    """Power-sum expansion of e_lambda, the product of the e_part images.

    Products are formed directly in the p-basis, where multiplication is
    just multiset union of the index partitions.
    """
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    if not lam:
        raise ValueError("empty partition has no basis element")
    terms: Dict[tuple, Fraction] = {(): Fraction(1)}
    for part in lam:
        terms = _multiply_into({}, terms, _e_to_p_terms(part))
    return BasisVector(
        Basis.P, lam.modulus, {Partition(key): coef for key, coef in terms.items()}
    )


def evector_to_p(vector: BasisVector) -> BasisVector:
    """Linear extension of :func:`e_partition_to_p` to e-basis vectors."""
    if vector.basis is not Basis.E:
        raise ValueError(f"expected an e-basis vector, got basis {vector.basis.value}")
    result = BasisVector(Basis.P, vector.degree)
    for lam, coef in vector.terms.items():
        result = result.add(e_partition_to_p(lam).scale(coef))
    return result


@lru_cache(maxsize=None)
def _p_to_e_terms(k: int) -> Dict[tuple, int]:
    """e-basis image of a single p_k by Newton's identity
    p_k = sum_{i=1..k-1} (-1)^(i-1) e_i p_{k-i} + (-1)^(k-1) k e_k.

    Cached per k; recomputation is idempotent so concurrent readers are
    safe.
    """
    if k == 0:
        return {(): 1}
    acc: Dict[tuple, int] = {(k,): k if k % 2 else -k}
    for i in range(1, k):
        _multiply_into(acc, _p_to_e_terms(k - i), {(i,): 1 if i % 2 else -1})
    return {key: coef for key, coef in acc.items() if coef}


def _p_terms_to_e(terms: Dict[tuple, int]) -> Dict[tuple, int]:
    # p_lambda = p_k^m p_rest with k the largest part of lambda and m its
    # multiplicity: group the terms by (k, m), convert each group's rests,
    # then multiply by the image of p_k m times.  The recursion depth is the
    # number of distinct parts; the empty partition forms the group m = 0.
    groups: Dict[tuple, Dict[tuple, int]] = {}
    for lam, coef in terms.items():
        k = lam[0] if lam else 0
        m = lam.count(k)
        groups.setdefault((k, m), {})[lam[m:]] = coef
    acc: Dict[tuple, int] = {}
    for (k, m), rests in groups.items():
        image = _p_terms_to_e(rests) if m else rests
        factor = _p_to_e_terms(k)
        for _ in range(m):
            image = _multiply_into({}, image, factor)
        for key, coef in image.items():
            acc[key] = acc.get(key, 0) + coef
    return {key: coef for key, coef in acc.items() if coef}


def pvector_to_e(vector: BasisVector) -> BasisVector:
    """e-basis expansion of a p-basis vector.

    The images of the p_k come from Newton's identities and each p_lambda
    factors through its largest part, all in integers.  Rational
    coefficients are scaled to integers first and the result scaled back.
    """
    if vector.basis is not Basis.P:
        raise ValueError(f"expected a p-basis vector, got basis {vector.basis.value}")
    scale = lcm(*(coef.denominator for coef in vector.terms.values()))
    terms = {
        tuple(lam): coef.numerator * (scale // coef.denominator)
        for lam, coef in vector.terms.items()
    }
    result = BasisVector(Basis.E, vector.degree, _p_terms_to_e(terms))
    return result if scale == 1 else result.scale(Fraction(1, scale))


def first_difference(
    v: BasisVector, w: BasisVector
) -> Optional[Tuple[Partition, Fraction, Fraction]]:
    """First partition (reverse-lexicographically) where two vectors differ,
    with both coefficients; None when the vectors are equal."""
    v._check_compatible(w)
    for lam in sorted(set(v.terms) | set(w.terms), reverse=True):
        cv = v.terms.get(lam, Fraction(0))
        cw = w.terms.get(lam, Fraction(0))
        if cv != cw:
            return lam, cv, cw
    return None
