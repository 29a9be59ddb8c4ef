"""Fidelity lower bounds built from homodyne quadrature moments.

Direct projection probabilities onto a squeezed-vacuum target are
rarely measured; first and second quadrature moments are.
Bounding the target's number operator expectation by the measured
moments gives a fidelity floor that needs no tomography:

    F >= 3/2 - s1 * e**(-2r) - s2 * e**(2r)

for the squeezed-vacuum target whose x1 variance is e**(2r) / 4, where
s1, s2 are the measured second moments of centered data.  The bound is
tight exactly when the state is the target itself and can go negative
when the data are too noisy; it is returned unclipped so callers see how
far from useful their data are.
"""

from __future__ import annotations

import math
import warnings

from .criterion import _Value

__all__ = [
    "QuadratureMoments",
    "squeezed_vacuum_bound",
    "optimal_bound_squeezing",
]

CENTERING_TOL = 1e-9


class QuadratureMoments(_Value):
    """First moments and raw second moments of the two quadratures."""

    m1: float
    m2: float
    s1: float
    s2: float

    def __init__(self, m1: float, m2: float, s1: float, s2: float) -> None:
        self.__dict__.update(m1=m1, m2=m2, s1=s1, s2=s2)
        for name in ("m1", "m2", "s1", "s2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"moment {name} must be finite")
        v1 = self.s1 - self.m1**2
        v2 = self.s2 - self.m2**2
        if v1 < -1e-12 or v2 < -1e-12:
            raise ValueError("second moments must dominate squared first moments")
        if v1 * v2 < (1.0 / 16.0) * (1.0 - 1e-6):
            warnings.warn(
                "centered variance product below the uncertainty floor 1/16; "
                "the data cannot come from a physical state",
                stacklevel=2,
            )

    def centered(self) -> "QuadratureMoments":
        """Moments of the same data displaced to zero mean."""
        return QuadratureMoments(
            0.0, 0.0, self.s1 - self.m1**2, self.s2 - self.m2**2
        )


def squeezed_vacuum_bound(q: QuadratureMoments, r: float) -> float:
    """Fidelity floor onto the squeezed vacuum with x1 variance e**(2r)/4.

    Requires centered moments; displace the data (or use ``centered()``)
    first, since the target is zero-mean.  May return a negative value,
    in which case the bound certifies nothing.
    """
    if abs(q.m1) > CENTERING_TOL or abs(q.m2) > CENTERING_TOL:
        raise ValueError(
            "moments must be centered: displace the data to zero mean first"
        )
    return 1.5 - q.s1 * math.exp(-2.0 * r) - q.s2 * math.exp(2.0 * r)


def optimal_bound_squeezing(q: QuadratureMoments) -> float:
    """Target squeezing maximising :func:`squeezed_vacuum_bound`.

    r = ln(s1 / s2) / 4, depending only on the moment ratio; the bound at
    this r equals 3/2 - 2 * sqrt(s1 * s2).
    """
    if q.s1 <= 0.0 or q.s2 <= 0.0:
        raise ValueError("second moments must be positive")
    return 0.25 * math.log(q.s1 / q.s2)
