"""Exact coefficient algebra for first-passage moment polynomials.

Every joint moment E[tau^m A^n] of drifted Brownian motion killed at zero is
a polynomial in the starting point x whose coefficients are rational
multiples of integer (mostly negative) powers of the drift mu.  This module
provides that value domain: Laurent polynomials in mu over exact rationals,
and dense polynomials in x over those.

All arithmetic is exact.  Floating point appears only on the `evaluate`
readout path, and only when the caller passes a float.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Mapping, Union

RationalLike = Union[int, Fraction]


class Laurent:
    """Laurent polynomial in mu: finite map {integer exponent: Fraction}.

    Zero coefficients are never stored, so dict equality is semantic
    equality.  Instances are treated as immutable values.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, RationalLike] | None = None):
        clean: dict[int, Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                q = Fraction(coeff)
                if q:
                    clean[int(exp)] = q
        self.terms = clean

    @classmethod
    def of(cls, coeff: RationalLike, exp: int = 0) -> "Laurent":
        """Single term coeff * mu^exp."""
        return cls({exp: coeff})

    @classmethod
    def zero(cls) -> "Laurent":
        return cls()

    @classmethod
    def one(cls) -> "Laurent":
        return cls({0: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __neg__(self) -> "Laurent":
        return Laurent({e: -q for e, q in self.terms.items()})

    def __add__(self, other: "Laurent") -> "Laurent":
        out = dict(self.terms)
        for e, q in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + q
        return Laurent(out)

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other: "Laurent | RationalLike") -> "Laurent":
        if isinstance(other, (int, Fraction)):
            other = Laurent.of(other)
        if not isinstance(other, Laurent):
            return NotImplemented
        out: dict[int, Fraction] = {}
        for e1, q1 in self.terms.items():
            for e2, q2 in other.terms.items():
                e = e1 + e2
                out[e] = out.get(e, Fraction(0)) + q1 * q2
        return Laurent(out)

    __rmul__ = __mul__

    def evaluate(self, mu: float) -> float:
        return sum(float(q) * mu**e for e, q in self.terms.items())

    def evaluate_exact(self, mu: RationalLike) -> Fraction:
        m = Fraction(mu)
        return sum((q * m**e for e, q in self.terms.items()), Fraction(0))

    def __repr__(self) -> str:
        if not self.terms:
            return "Laurent(0)"
        body = " + ".join(
            f"({q})*mu^{e}" for e, q in sorted(self.terms.items(), reverse=True)
        )
        return f"Laurent({body})"


class Poly:
    """Dense polynomial in x with Laurent-in-mu coefficients.

    `coeffs[k]` is the coefficient of x^k.  Trailing zero coefficients are
    trimmed on construction, so the leading coefficient is nonzero unless
    the polynomial is zero (empty tuple, degree -1).  Moment polynomials
    additionally vanish at x = 0; that invariant belongs to the moment
    table, not to this type, because formal derivatives legitimately carry
    constant terms.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Laurent] = ()):
        cs = list(coeffs)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def constant(cls, c: "Laurent | RationalLike") -> "Poly":
        if isinstance(c, (int, Fraction)):
            c = Laurent.of(c)
        return cls([c])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Laurent:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Laurent.zero()

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.coefficient(k) + other.coefficient(k) for k in range(n))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def scale(self, c: "Laurent | RationalLike") -> "Poly":
        """Multiply every coefficient by the Laurent scalar c."""
        if isinstance(c, (int, Fraction)):
            c = Laurent.of(c)
        return Poly(coeff * c for coeff in self.coeffs)

    def mul_by_x(self) -> "Poly":
        """Shift every coefficient up one x power."""
        if not self.coeffs:
            return self
        return Poly((Laurent.zero(),) + self.coeffs)

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly.zero()
        out = [Laurent.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    def differentiate(self) -> "Poly":
        """Formal derivative in x; the result may have a constant term."""
        return Poly(self.coeffs[k] * k for k in range(1, len(self.coeffs)))

    def evaluate(self, x, mu):
        """Horner readout at (x, mu).

        Exact Fraction arithmetic when both arguments are int or Fraction;
        double precision otherwise.  mu must be positive: the coefficients
        carry negative mu powers.  At tiny mu those powers mu**e leave the
        float range even where the value does not; the float readout then
        evaluates exactly and rounds once, and raises ValueError only when
        the value itself is beyond the float range.
        """
        if isinstance(x, (int, Fraction)) and isinstance(mu, (int, Fraction)):
            if mu <= 0:
                raise ValueError(f"mu must be positive, got {mu}")
            xq = Fraction(x)
            acc = Fraction(0)
            for k in range(len(self.coeffs) - 1, -1, -1):
                acc = acc * xq + self.coeffs[k].evaluate_exact(mu)
            return acc
        xf = float(x)
        muf = float(mu)
        if muf <= 0.0:
            raise ValueError(f"mu must be positive, got {mu}")
        try:
            acc = 0.0
            for k in range(len(self.coeffs) - 1, -1, -1):
                acc = acc * xf + self.coeffs[k].evaluate(muf)
            if math.isfinite(acc):
                return acc
        except OverflowError:
            pass
        try:
            return float(self.evaluate(Fraction(xf), Fraction(muf)))
        except OverflowError:
            raise ValueError(f"the value at x={xf:g}, mu={muf:g} exceeds the float range") from None

    def to_text(self) -> str:
        """Canonical text form, e.g. ``(1/2)*x^3*mu^-2 + (1)*x^2*mu^-3``.

        Terms in decreasing x power, then decreasing mu exponent.  A bare
        rational constant renders without the factor scaffolding (``1``),
        and the zero polynomial renders as ``0``.  `parse_polynomial`
        inverts this exactly.
        """
        if not self.coeffs:
            return "0"
        if self.degree == 0 and set(self.coeffs[0].terms) == {0}:
            return str(self.coeffs[0].terms[0])
        parts = []
        for k in range(self.degree, -1, -1):
            terms = self.coeffs[k].terms
            for e in sorted(terms, reverse=True):
                parts.append(f"({terms[e]})*x^{k}*mu^{e}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self.to_text()})"


_TERM_RE = re.compile(r"\((-?\d+(?:/\d+)?)\)\*x\^(\d+)\*mu\^(-?\d+)")
_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?")


def parse_polynomial(text: str) -> Poly:
    """Parse the `to_text` format back into a Poly.

    Raises ValueError on anything that is not a well-formed rendering.
    """
    body = text.strip()
    if body == "0":
        return Poly.zero()
    if _RATIONAL_RE.fullmatch(body):
        return Poly.constant(Fraction(body))
    by_power: dict[int, dict[int, Fraction]] = {}
    for part in body.split(" + "):
        m = _TERM_RE.fullmatch(part.strip())
        if m is None:
            raise ValueError(f"malformed polynomial term: {part!r}")
        q, k, e = Fraction(m.group(1)), int(m.group(2)), int(m.group(3))
        slot = by_power.setdefault(k, {})
        slot[e] = slot.get(e, Fraction(0)) + q
    top = max(by_power)
    return Poly(Laurent(by_power.get(k, {})) for k in range(top + 1))
