"""Independent special-function oracles used by the test suite.

These share no code path with the shipped quadrature: the scaled
exponential integral is evaluated by classical means (power series for
z <= 1, modified Lentz continued fraction beyond).  The shipped closed form
of the expected time average follows the same recipe, so a comparison with
this oracle checks the recipe was typed twice alike, not that it is right;
scipy.special.exp1 and the quadrature are the independent references for
that (tests/test_closed_forms.py).
"""

import math

EULER_GAMMA = 0.5772156649015328606


def exp1_scaled(z: float) -> float:
    """e^z * E1(z) for z > 0, accurate to ~1e-14 relative."""
    if z <= 1.0:
        total = 0.0
        term = 1.0
        for k in range(1, 80):
            term *= z / k
            add = term / k
            total += add if k % 2 == 1 else -add
            if add < 1e-18:
                break
        return math.exp(z) * (-EULER_GAMMA - math.log(z) + total)
    # modified Lentz on E1(z) = e^-z / (z+1- 1/(z+3- 4/(z+5- 9/(...))))
    tiny = 1e-300
    b = z + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 200):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (b + a * d)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise RuntimeError(f"continued fraction failed to settle at z={z}")
