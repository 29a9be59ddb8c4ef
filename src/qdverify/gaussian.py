"""Single-mode Gaussian state algebra in shot-noise units.

Covariance matrices follow the convention in which the vacuum state is
the identity: entries are four times the symmetrised second moments of
the quadratures x1 = (a + a*) / 2 and x2 = (a - a*) / (2i).  Squeezing
levels quoted in dB are power ratios, variance = 10**(dB / 10), so -3 dB
means roughly half the shot noise.  A squeezed vacuum with parameter r
has covariance diag(e**(2r), e**(-2r)); positive r stretches x1.

Everything here is closed-form, with the 2x2 algebra in scalar math:
fidelities between arbitrary single-mode Gaussian states, projections
onto pure squeezed-vacuum targets, and the overlap curves of rotated
state pairs that :mod:`qdverify.applications` scans over.  Only those
curves, which take arrays of angles, import numpy.  The matching
truncated number-basis computations live in :mod:`qdverify.fock_oracle`
and validate each formula in the test suite.

The public functions check the variances they are given.  The private
per-angle helpers (``_input_overlap_sq``, ``_target_overlap_sq`` and
``_rotation_spread``) check nothing: they take pairs that a
:class:`SqueezingRecord`, and the storage record built from it, have
already checked, and are written with positive terms only so that no
step cancels.
"""

from __future__ import annotations

import math

from .criterion import _Value

__all__ = [
    "CovMat2",
    "GaussianState",
    "SqueezingRecord",
    "db_to_linear",
    "rotate_cov",
    "uhlmann_fidelity_gaussian",
    "pure_target_projection",
    "optimal_target_squeezing",
    "input_overlap_sq",
    "target_overlap_sq",
]

#: Slack allowed below the physical determinant floor det(C) >= 1.
DET_TOL = 1e-9


class CovMat2(_Value):
    """Symmetric 2x2 covariance matrix, vacuum = identity convention."""

    c11: float
    c12: float
    c22: float

    def __init__(self, c11: float, c12: float, c22: float) -> None:
        self.__dict__.update(c11=c11, c12=c12, c22=c22)
        for name in ("c11", "c12", "c22"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"covariance entry {name} must be finite")
        if self.c11 <= 0.0 or self.c22 <= 0.0:
            raise ValueError("diagonal covariance entries must be positive")
        if not math.isfinite(self.det):
            raise ValueError(f"covariance determinant {self.det!r} is not finite")
        if self.det < 1.0 - DET_TOL:
            raise ValueError(
                f"covariance determinant {self.det!r} is below the physical floor"
            )

    @property
    def det(self) -> float:
        return self.c11 * self.c22 - self.c12 * self.c12

    @classmethod
    def diagonal(cls, v1: float, v2: float) -> "CovMat2":
        return cls(float(v1), 0.0, float(v2))


class GaussianState(_Value):
    """A covariance matrix plus quadrature means in x-eigenvalue units."""

    cov: CovMat2
    mean1: float
    mean2: float

    def __init__(self, cov: CovMat2, mean1: float = 0.0, mean2: float = 0.0) -> None:
        self.__dict__.update(cov=cov, mean1=mean1, mean2=mean2)


class SqueezingRecord(_Value):
    """Measured squeezing and antisqueezing of one state, in dB."""

    squeezing_db: float
    antisqueezing_db: float

    def __init__(self, squeezing_db: float, antisqueezing_db: float) -> None:
        self.__dict__.update(squeezing_db=squeezing_db, antisqueezing_db=antisqueezing_db)
        for name in ("squeezing_db", "antisqueezing_db"):
            db = getattr(self, name)
            if not math.isfinite(db):
                raise ValueError(f"{name} must be a finite dB value, got {db!r}")
            try:
                db_to_linear(db)
            except OverflowError:
                raise ValueError(f"{name} of {db!r} dB overflows a variance") from None
        v1, v2 = self.linear_pair
        if v1 * v2 < 1.0 - 1e-6:
            raise ValueError(
                f"squeezing_db {self.squeezing_db!r} and antisqueezing_db "
                f"{self.antisqueezing_db!r} give a variance product {v1 * v2!r} "
                f"below 1: record is unphysical"
            )
        if not _overlap_fits(v1, v2, physical=False):
            raise ValueError(
                f"squeezing_db {self.squeezing_db!r} and antisqueezing_db "
                f"{self.antisqueezing_db!r} overflow the overlap algebra"
            )

    @property
    def linear_pair(self) -> tuple[float, float]:
        return db_to_linear(self.squeezing_db), db_to_linear(self.antisqueezing_db)

    @property
    def pure_target_pair(self) -> tuple[float, float]:
        """Variances e**(2r), e**(-2r) of the nearest pure squeezed vacuum."""
        r = _target_squeezing(*self.linear_pair)
        return math.exp(2.0 * r), math.exp(-2.0 * r)


def db_to_linear(db: float) -> float:
    """Convert a dB power ratio to a linear variance (0 dB = shot noise)."""
    return 10.0 ** (db / 10.0)


def rotate_cov(c: CovMat2, theta: float) -> CovMat2:
    """Covariance of the state after a phase rotation by ``theta``."""
    ct, st = math.cos(theta), math.sin(theta)
    c11 = ct * ct * c.c11 + 2.0 * ct * st * c.c12 + st * st * c.c22
    c22 = st * st * c.c11 - 2.0 * ct * st * c.c12 + ct * ct * c.c22
    c12 = ct * st * (c.c22 - c.c11) + (ct * ct - st * st) * c.c12
    return CovMat2(c11, c12, c22)


def uhlmann_fidelity_gaussian(g1: GaussianState, g2: GaussianState) -> float:
    """Unsquared fidelity between two single-mode Gaussian states.

    Evaluates sqrt(2 / (sqrt(D + d) - sqrt(d))) * exp(-q) in scalar math,
    with D = det(C1 + C2), d = (det C1 - 1)(det C2 - 1), and q the quadratic
    form of the mean difference under the explicit inverse of C1 + C2.  The
    difference of square roots is computed as D / (sqrt(D + d) + sqrt(d))
    so the result stays accurate when d is large or vanishing.  C1 + C2 is
    a :class:`CovMat2`, so a sum with an overflowing entry raises ValueError.
    """
    c1, c2 = g1.cov, g2.cov
    total = CovMat2(c1.c11 + c2.c11, c1.c12 + c2.c12, c1.c22 + c2.c22)
    big = total.det
    # Construction already enforces det >= 1 - DET_TOL; anything mildly
    # negative here is pure roundoff.
    small = max((c1.det - 1.0) * (c2.det - 1.0), 0.0)
    fid = math.sqrt(2.0 * (math.sqrt(big + small) + math.sqrt(small)) / big)
    d1 = g1.mean1 - g2.mean1
    d2 = g1.mean2 - g2.mean2
    if d1 != 0.0 or d2 != 0.0:
        quad = total.c22 * d1 * d1 - 2.0 * total.c12 * d1 * d2 + total.c11 * d2 * d2
        fid *= math.exp(-quad / big)
    return min(fid, 1.0)


def pure_target_projection(x_var: float, y_var: float, r: float) -> float:
    """Projection probability of a zero-mean Gaussian onto a squeezed vacuum.

    The state has covariance diag(x_var, y_var); the target is the pure
    squeezed vacuum with parameter ``r``.  Equals the squared fidelity
    2 / sqrt(e**(2r) * y_var + e**(-2r) * x_var + x_var * y_var + 1).
    """
    _check_variances(x_var, y_var, physical=True)
    return 2.0 / math.sqrt(
        math.exp(2.0 * r) * y_var + math.exp(-2.0 * r) * x_var + x_var * y_var + 1.0
    )


def optimal_target_squeezing(x_var: float, y_var: float) -> float:
    """Squeezing parameter maximising :func:`pure_target_projection`.

    r = ln(x_var / y_var) / 4; at this r the projection reduces to
    2 / (1 + sqrt(x_var * y_var)).
    """
    _check_variances(x_var, y_var, physical=False)
    return _target_squeezing(x_var, y_var)


def _target_squeezing(x_var: float, y_var: float) -> float:
    return 0.25 * math.log(x_var / y_var)


def input_overlap_sq(x_var, y_var, theta):
    """Squared fidelity between a zero-mean Gaussian and its rotated copy.

    The state has covariance diag(x_var, y_var) and the copy is rotated
    by ``theta``; works for mixed states (variance product above 1).
    Accepts scalar or array ``theta``.
    """
    import numpy as np

    _check_variances(x_var, y_var, physical=True)
    return _input_overlap_sq(x_var, y_var, np.cos(2.0 * np.asarray(theta)), np.sqrt)


def target_overlap_sq(x_var, y_var, theta):
    """Squared overlap of two rotated copies of a pure squeezed vacuum.

    Exact when x_var * y_var = 1.  Callers may also feed mixed-state
    diagonal entries; the value is then just this formula evaluated on
    those entries, which is how the published storage benchmark numbers
    arise, not a physical overlap.  Accepts scalar or array ``theta``.
    """
    import numpy as np

    _check_variances(x_var, y_var, physical=False)
    return _target_overlap_sq(x_var, y_var, np.cos(2.0 * np.asarray(theta)), np.sqrt)


# The two overlaps at cos2t = cos(2 theta), with the caller's numpy sqrt, so
# that a scan computes the cosine once per angle and imports numpy once.
# Neither checks its pair.  The input overlap is 2 / (sqrt(p**2 + s + 1) - p
# + 1) with p = x_var * y_var and s the spread, its root difference written
# as (s + 1) / (sqrt(p**2 + s + 1) + p) so that nothing cancels.
def _input_overlap_sq(x_var, y_var, cos2t, sqrt):
    prod = x_var * y_var
    spread = _rotation_spread(x_var, y_var, cos2t)
    return 2.0 / ((spread + 1.0) / (sqrt(prod * prod + spread + 1.0) + prod) + 1.0)


def _target_overlap_sq(x_var, y_var, cos2t, sqrt):
    return 2.0 / sqrt(2.0 + _rotation_spread(x_var, y_var, cos2t))


def _overlap_fits(x_var: float, y_var: float, *, physical: bool) -> bool:
    """Whether the overlap of this pair with its rotated copy stays finite.

    Both overlaps grow with the rotation spread, which peaks at
    cos(2 theta) = -1, and the input overlap (``physical``) adds
    (x_var * y_var)**2 + 1 to it; the sums are taken in the same order.
    An overflow at any step leaves the result infinite or NaN.
    """
    worst = _rotation_spread(x_var, y_var, -1.0)
    if physical:
        prod = x_var * y_var
        worst = prod * prod + worst + 1.0
    return math.isfinite(worst)


def _rotation_spread(x_var, y_var, cos2t):
    # ((x + y)**2 - (x - y)**2 cos2t) / 2 in positive terms: at cos2t = 1 it
    # is 2 x y, which the difference of squares loses once x / y nears 1/eps
    return 0.5 * (
        (x_var * x_var + y_var * y_var) * (1.0 - cos2t)
        + 2.0 * x_var * y_var * (1.0 + cos2t)
    )


def _check_variances(x_var: float, y_var: float, *, physical: bool) -> None:
    if x_var <= 0.0 or y_var <= 0.0:
        raise ValueError("variances must be positive")
    if physical and x_var * y_var < 1.0 - DET_TOL:
        raise ValueError(
            f"variance product {x_var * y_var!r} below 1: state is unphysical"
        )
