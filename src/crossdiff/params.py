"""Coefficient quadruples of the cross-diffusion system and derived constants."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache


@dataclass(frozen=True)
class Params:
    """Diffusion coefficients (a, b, c, d), all positive and finite with
    a*d > b*c.

    The strict inequality a*d > b*c is what makes the whole entropy
    construction work; it is validated eagerly so downstream code can rely
    on it.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            v = getattr(self, name)
            if not 0.0 < v < math.inf:
                raise ValueError(f"parameter {name} must be positive and finite, got {v}")
        if not (self.a * self.d > self.b * self.c):
            raise ValueError(
                f"parameters must satisfy ad > bc, got ad={self.a * self.d} "
                f"<= bc={self.b * self.c}"
            )

    @property
    def det(self) -> float:
        """a*d - b*c > 0."""
        return self.a * self.d - self.b * self.c

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


def muskat_params(R: float, mu: float) -> Params:
    """Two-layer thin-film preset: (a, b, c, d) = (1+R, R, mu*R, mu*R).

    The determinant is mu*R*(1+R) - mu*R**2 = mu*R > 0, so the preset is
    admissible for finite R, mu > 0 (as long as mu*R does not overflow).
    """
    for name, v in (("R", R), ("mu", mu)):
        if not 0.0 < v < math.inf:
            raise ValueError(f"muskat preset requires positive and finite R and mu, "
                             f"got {name}={v}")
    return Params(1.0 + R, R, mu * R, mu * R)


@lru_cache(maxsize=256)     # read by the dissipation report at every step
def theta_constants(params: Params) -> tuple[float, float]:
    """Constants ``(theta1, theta2)`` pairing with the logarithmic entropy
    dissipation: theta1 = b(ad+bc)/(2ad) and theta2 = (ad-bc)(3ad+bc)/(4 a^2 d^2);
    both are positive exactly when ad > bc."""
    a, b, c, d = params.as_tuple()
    ad = a * d
    bc = b * c
    return b * (ad + bc) / (2.0 * ad), (ad - bc) * (3.0 * ad + bc) / (4.0 * ad * ad)
