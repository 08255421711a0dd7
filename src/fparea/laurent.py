"""Exact coefficient algebra for first-passage moment polynomials.

Brownian scaling makes every joint moment E[tau^m A^n] of drifted Brownian
motion killed at zero equal to mu^-(2m+3n) * P_{m,n}(mu*x), with P_{m,n} a
polynomial over the rationals.  `Poly` holds that shape: a weight W and the
coefficients c_k of gamma = mu*x, so the coefficient of x^k is the single
monomial c_k * mu^(k-W).

All arithmetic is exact.  Floating point appears only on the `evaluate`
readout path, and only when the caller passes a float.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Iterable


class Poly:
    """Homogeneous polynomial mu^-weight * sum_k coeffs[k] * (mu x)^k.

    Trailing zero coefficients are trimmed on construction, so the leading
    coefficient is nonzero unless the polynomial is zero (empty tuple,
    degree -1, weight 0).  Sums need equal weights, zero being neutral;
    products add them.  Moment polynomials additionally vanish at x = 0;
    that invariant belongs to the moment table, not to this type, because
    formal derivatives legitimately carry constant terms.
    """

    __slots__ = ("coeffs", "weight")

    def __init__(self, coeffs: Iterable[int | Fraction] = (), weight: int = 0):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)
        self.weight = int(weight) if cs else 0

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of gamma^k; zero outside 0..degree."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.weight == other.weight and self.coeffs == other.coeffs

    def __neg__(self) -> "Poly":
        return Poly((-c for c in self.coeffs), self.weight)

    def __add__(self, other: "Poly") -> "Poly":
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        if self.weight != other.weight:
            raise ValueError(f"cannot add polynomials of weight {self.weight} and {other.weight}")
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly((self.coefficient(k) + other.coefficient(k) for k in range(n)), self.weight)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out, self.weight + other.weight)

    def differentiate(self) -> "Poly":
        """Formal derivative in x (weight - 1); the result may have a constant term."""
        return Poly((k * self.coeffs[k] for k in range(1, len(self.coeffs))), self.weight - 1)

    def evaluate(self, x, mu):
        """Readout at (x, mu), mu > 0; exact when both are int or Fraction.

        Floats run Horner in x over the coefficients c_k * mu**(k - weight).
        At tiny or huge mu those powers overflow, or underflow below the
        normal range, even where the value does not; the readout then
        rounds the exact value once, and raises
        ValueError only when the value itself is beyond the float range, or
        when x or mu is NaN or infinite.
        """
        if isinstance(x, (int, Fraction)) and isinstance(mu, (int, Fraction)):
            if mu <= 0:
                raise ValueError(f"mu must be positive, got {mu}")
            muq = Fraction(mu)
            gamma = Fraction(x) * muq
            acc = Fraction(0)
            for c in reversed(self.coeffs):
                acc = acc * gamma + c
            return acc * muq**-self.weight
        xf = float(x)
        muf = float(mu)
        if not muf > 0.0:
            raise ValueError(f"mu must be positive, got {mu}")
        if math.isnan(xf):
            raise ValueError(f"x must be a number, got {x}")
        if math.isinf(xf) or math.isinf(muf):
            raise ValueError(f"x and mu must be finite, got x={xf:g}, mu={muf:g}")
        try:
            acc = 0.0
            for k in range(self.degree, -1, -1):
                c = self.coeffs[k]
                term = 0
                if c:
                    power = muf ** (k - self.weight)
                    if power < sys.float_info.min:
                        break  # underflowed: the term would read as 0 or lose bits
                    term = float(c) * power
                acc = acc * xf + term
            else:
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

        One term ``(c_k)*x^k*mu^(k-weight)`` per nonzero coefficient, in
        decreasing x power; a weight-0 constant renders as a bare rational
        (``1``), zero as ``0``.  `parse_polynomial` inverts this exactly.
        """
        if not self.coeffs:
            return "0"
        if self.degree == 0 and self.weight == 0:
            return str(self.coeffs[0])
        terms = [(k, c) for k, c in enumerate(self.coeffs) if c]
        return " + ".join(f"({c})*x^{k}*mu^{k - self.weight}" for k, c in reversed(terms))

    def __repr__(self) -> str:
        return f"Poly({self.to_text()})"


_TERM_RE = re.compile(r"\((-?\d+(?:/\d+)?)\)\*x\^(\d+)\*mu\^(-?\d+)")
_RATIONAL_RE = re.compile(r"-?\d+(?:/\d+)?")


def parse_polynomial(text: str) -> Poly:
    """Parse the `to_text` format back into a Poly.

    Raises ValueError on anything that is not a well-formed rendering,
    including terms ``x^k*mu^e`` whose weights k - e differ: such text is
    not of the form mu^-W * P(mu*x).
    """
    body = text.strip()
    if body == "0":
        return Poly()
    if _RATIONAL_RE.fullmatch(body):
        return Poly([Fraction(body)])
    coeffs: dict[int, Fraction] = {}
    weights = set()
    for part in body.split(" + "):
        m = _TERM_RE.fullmatch(part.strip())
        if m is None:
            raise ValueError(f"malformed polynomial term: {part!r}")
        q, k, e = Fraction(m.group(1)), int(m.group(2)), int(m.group(3))
        weights.add(k - e)
        coeffs[k] = coeffs.get(k, 0) + q
    if len(weights) > 1:
        raise ValueError(f"terms of unequal weight k - e {sorted(weights)}: {text!r}")
    return Poly((coeffs.get(k, 0) for k in range(max(coeffs) + 1)), weights.pop())
