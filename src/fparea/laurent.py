"""Exact coefficient algebra for first-passage moment polynomials.

Brownian scaling makes every joint moment E[tau^m A^n] of drifted Brownian
motion killed at zero equal to mu^-(2m+3n) * P_{m,n}(mu*x), with P_{m,n} a
polynomial over the rationals.  `Poly` holds that shape: a weight W and the
coefficients c_k of gamma = mu*x, so the coefficient of x^k is the single
monomial c_k * mu^(k-W).  Each c_k is stored as nums[k] / den, over one den > 0.

All arithmetic is exact.  Floating point appears only on the `evaluate`
readout path, and only when the caller passes a float.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable


class Poly:
    """Homogeneous polynomial mu^-weight * sum_k (nums[k] / den) * (mu x)^k.

    Built from int or Fraction coefficients (over `den`) in lowest terms,
    read back as `Fraction`s by `coeffs`; trailing zeros are trimmed, so the
    leading numerator is nonzero unless the polynomial is zero (empty tuple,
    degree -1, weight 0).  Sums need equal weights, zero being neutral;
    products add them.  Moment polynomials vanish at x = 0; that invariant
    belongs to the moment table, not to this type, because formal
    derivatives legitimately carry constant terms.
    """

    __slots__ = ("nums", "den", "weight")

    def __init__(self, coeffs: Iterable[int | Fraction] = (), weight: int = 0, den: int = 1):
        nums = list(coeffs)
        if not all(type(c) is int for c in nums):
            den *= (scale := math.lcm(*(Fraction(c).denominator for c in nums)))
            nums = [int(Fraction(c) * scale) for c in nums]
        while nums and not nums[-1]:
            nums.pop()
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        g = math.gcd(den, *nums)
        self.nums = tuple(c // g for c in nums)
        self.den = den // g
        self.weight = int(weight) if nums else 0

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of gamma^k; zero outside 0..degree."""
        return Fraction(self.nums[k] if 0 <= k < len(self.nums) else 0, self.den)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.weight, self.den, self.nums) == (other.weight, other.den, other.nums)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.nums], self.weight, self.den)

    def __add__(self, other: "Poly") -> "Poly":
        if not (self.nums and other.nums):
            return self if self.nums else other
        if self.weight != other.weight:
            raise ValueError(f"cannot add polynomials of weight {self.weight} and {other.weight}")
        a, b = other.den, self.den
        nums = [a * u + b * v for u, v in zip_longest(self.nums, other.nums, fillvalue=0)]
        return Poly(nums, self.weight, a * b)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.nums or not other.nums:
            return Poly()
        out = [0] * (len(self.nums) + len(other.nums) - 1)
        for i, a in enumerate(self.nums):
            if a:
                for j, b in enumerate(other.nums):
                    out[i + j] += a * b
        return Poly(out, self.weight + other.weight, self.den * other.den)

    def differentiate(self) -> "Poly":
        """Formal derivative in x (weight - 1); the result may have a constant term."""
        return Poly([k * self.nums[k] for k in range(1, len(self.nums))], self.weight - 1, self.den)

    def evaluate(self, x, mu):
        """Readout at (x, mu), mu > 0; exact when both are int or Fraction.

        Floats run Horner in x over the coefficients c_k * mu**(k - weight).
        At tiny or huge mu those powers overflow, or underflow below the
        normal range, even where the value does not; the readout then
        rounds the exact value once, and raises
        ValueError only when the value itself is beyond the float range, or
        when x or mu is NaN or infinite.  With x > 0 and no negative
        coefficient, a largest term past the float range raises at once,
        without the exact value.
        """
        if isinstance(x, (int, Fraction)) and isinstance(mu, (int, Fraction)):
            if mu <= 0:
                raise ValueError(f"mu must be positive, got {mu}")
            muq = Fraction(mu)
            p, s = (Fraction(x) * muq).as_integer_ratio()
            acc, w = 0, 1  # acc ends as s^D den P(gamma), w as s^(D+1)
            for c in reversed(self.nums):
                acc, w = acc * p + c * w, w * s
            return Fraction(acc * s, w * self.den) * muq**-self.weight
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
                c = self.nums[k]
                term = 0
                if c:
                    power = muf ** (k - self.weight)
                    if power < sys.float_info.min:
                        break  # underflowed: the term would read as 0 or lose bits
                    term = c / self.den * power  # int / int rounds correctly
                acc = acc * xf + term
            else:
                if math.isfinite(acc):
                    return acc
        except OverflowError:
            pass
        too_large = f"the value at x={xf:g}, mu={muf:g} exceeds the float range"
        if xf > 0.0 and all(c >= 0 for c in self.nums):
            # No term is negative, so the value is at least its largest term;
            # past 2^1025 (a margin of 1 for the rounding of the logs) it
            # rounds beyond the largest double, and needs no exact value.
            lx, lmu, lden = math.log2(xf), math.log2(muf), math.log2(self.den)
            top = max(
                (math.log2(c) - lden + k * lx + (k - self.weight) * lmu for k, c in enumerate(self.nums) if c),
                default=-math.inf,
            )
            if top > 1025:
                raise ValueError(too_large)
        try:
            return float(self.evaluate(Fraction(xf), Fraction(muf)))
        except OverflowError:
            raise ValueError(too_large) from None

    def to_text(self) -> str:
        """Canonical text form, e.g. ``(1/2)*x^3*mu^-2 + (1)*x^2*mu^-3``.

        One term ``(c_k)*x^k*mu^(k-weight)`` per nonzero coefficient, in
        decreasing x power; a weight-0 constant renders as a bare rational
        (``1``), zero as ``0``.  `parse_polynomial` inverts this exactly.
        """
        if self.degree <= 0 and self.weight == 0:
            return str(self.coefficient(0))
        terms = []
        for k in range(self.degree, -1, -1):
            if c := self.nums[k]:
                g = math.gcd(c, self.den)
                q = f"/{self.den // g}" if g != self.den else ""
                terms.append(f"({c // g}{q})*x^{k}*mu^{k - self.weight}")
        return " + ".join(terms)

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
