"""Seeded generators for test points and random polynomials.

Every randomized verification flow in the library draws from these
generators, so a seed fully determines a run.  Points, rational ones
and the unit-circle parameters of periodic ones alike, use small-height
fractions and reject singular hits to keep the exact arithmetic cheap
and well defined.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .invariants import is_singular_point
from .poly import MPoly


#: the height of rational points and of polynomial coefficients
HEIGHT = 4
#: the most terms of a random polynomial
MAX_TERMS = 6
#: the height of periodic parameters: at small heights most draws meet a
#: pole (t = 1, t_i t_j = 1, r = 1, r_i = r_j, ...) and are drawn again
PERIODIC_HEIGHT = 12


class SeededSampler:
    """Deterministic source of small-height rational data."""

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)

    def fraction(self, height: int = HEIGHT) -> Fraction:
        """A nonzero num/den with |num| and den at most ``height``."""
        num = 0
        while not num:
            num = self.rng.randrange(-height, height + 1)
        return Fraction(num, self.rng.randrange(1, height + 1))

    def point(self, beta2=None) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """A nonsingular point (off every ground-state zero set): a rational
        point, or with beta2 the periodic parameters of
        ``invariants.circle_points``, of height ``PERIODIC_HEIGHT`` and
        positive when beta2 < 0."""
        height = HEIGHT if beta2 is None else PERIODIC_HEIGHT
        while True:
            x = tuple(self.fraction(height) for _ in range(4))
            if beta2 is not None and beta2 < 0:
                x = tuple(map(abs, x))
            if not is_singular_point(x, beta2):
                return x

    def polynomial(self, frame: str, monomials: Sequence) -> MPoly:
        """A random polynomial supported on the given monomials, nonzero
        because it draws distinct monomials with nonzero coefficients."""
        count = self.rng.randrange(1, min(MAX_TERMS, len(monomials)) + 1)
        picks = self.rng.sample(list(monomials), count)
        return MPoly(frame, {exp: self.fraction() for exp in picks})
