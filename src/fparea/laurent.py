"""The exact moment polynomial: integer numerators over one denominator.

Brownian scaling makes every joint moment E[tau^m A^n] of drifted Brownian
motion killed at zero equal to mu^-(2m+3n) * P_{m,n}(mu*x), with P_{m,n} a
polynomial over the rationals.  `Poly` holds that shape: a weight W and the
coefficients c_k of gamma = mu*x, so the coefficient of x^k is the single
monomial c_k * mu^(k-W).  Each c_k is stored as nums[k] / den, over one den > 0.

`moments` builds every `Poly` from integers; this module only stores,
renders and reads them out.  Every exact readout, here and in `moments`,
runs one integer Horner, `Poly.homogenized`.  Floating point appears only
on the `evaluate` readout path, and only when the caller passes a float.
The module keeps its name from the Laurent-polynomial type it once held,
because the benchmark's span tracer (perfbench/spans.py) hooks
`Poly.to_text` and `Poly.evaluate` under `fparea.laurent`.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterable


class Poly:
    """Homogeneous polynomial mu^-weight * sum_k (nums[k] / den) * (mu x)^k.

    Built from int numerators over `den` and kept in lowest terms, with
    trailing zeros trimmed, so the leading numerator is nonzero unless the
    polynomial is zero (empty tuple, degree -1, weight 0).  A non-integer
    numerator raises TypeError rather than being truncated.
    """

    __slots__ = ("nums", "den", "weight")

    def __init__(self, nums: Iterable[int] = (), weight: int = 0, den: int = 1):
        nums = list(nums)
        while nums and not nums[-1]:
            nums.pop()
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
        self.nums = tuple(nums)
        self.den = den
        self.weight = int(weight) if nums else 0

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def coefficient(self, k: int) -> Fraction:
        """Coefficient of gamma^k; zero outside 0..degree."""
        return Fraction(self.nums[k] if 0 <= k < len(self.nums) else 0, self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return (self.weight, self.den, self.nums) == (other.weight, other.den, other.nums)

    def homogenized(self, p: int, s: int) -> int:
        """s^D den P(p/s) = sum_k nums_k p^k s^(D-k), an integer; D = degree, 0 for zero."""
        acc, w = 0, 1
        for c in reversed(self.nums):
            acc, w = acc * p + c * w, w * s
        return acc

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
            return Fraction(self.homogenized(p, s), s ** max(self.degree, 0) * self.den) * muq**-self.weight
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
        (``1``), zero as ``0``.
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

