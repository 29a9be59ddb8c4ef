"""Truncated number-basis oracle for the Gaussian closed forms.

States live on the first ``dim`` Fock levels, built from the standard
ladder operators: squeeze unitaries come from an eigenbasis of their
generator, computed once per ``dim`` and exact to about 1e-14, thermal
states from the geometric photon distribution.  Each state is held as the
spectrum its constructor already knows, rho = V diag(w) V^H, so no state
is ever formed as a dense matrix or diagonalised, and every fidelity is a
trace norm read from the two spectra.  A spectrum keeps only the rank it
needs: its lightest columns, of total weight at most ``DROPPED_WEIGHT`` =
1e-26, are dropped, which lowers a fidelity by at most 2e-13 and leaves a
squeezed thermal state at dim 120 with 20 to 87 columns for nbar between
0.05 and 1.  Nothing here assumes any Gaussian identity, which is the
point: agreement with :mod:`qdverify.gaussian` validates those identities
independently.  From :mod:`qdverify.criterion` it takes only the base of its
frozen value type, no formula.

Truncation is treated as a hard precondition, not a degradation: state
constructors raise when the retained trace falls below 1 - 1e-6, or,
for the squeeze constructor whose truncated exponential is unitary
regardless, when the top level carries more than that tolerance.  The
default dimension of 120 comfortably covers squeezing up to about 6 dB
with up to one thermal photon.

Each function that needs numpy imports it itself, so that the command line
can load this module without it.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING

from .criterion import _Value

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "FockDensity",
    "destroy",
    "coherent_fock",
    "thermal_fock",
    "squeeze_matrix",
    "squeezed_thermal",
    "uhlmann_fock",
    "quadrature_moments_fock",
]

DEFAULT_DIM = 120
TRACE_TOL = 1e-6
EIGENVALUE_FLOOR = -1e-10
#: Largest |V^H V - I| entry allowed; the trace sum(w_k |v_k|^2) is known no
#: better, so it is also the rounding allowance above a trace of 1.
ORTHONORMAL_TOL = 1e-10
#: Largest total weight of the lightest columns a state drops; each fidelity
#: with the state moves down by at most sqrt(DROPPED_WEIGHT).
DROPPED_WEIGHT = 1e-26


class FockDensity(_Value):
    """A truncated density matrix V diag(w) V^H, held as its spectrum.

    ``weights`` are the eigenvalues and the columns of ``vectors`` the
    orthonormal eigenvectors.  On entry the shapes, weights and trace are
    checked.  Then the columns of weight at most 0 are dropped, and so are
    the lightest positive ones while their weights sum to at most
    ``DROPPED_WEIGHT``; the rest keep their order, and only they are checked
    for orthonormality and kept, as private read-only copies.  A pure state
    holds one column.
    """

    weights: np.ndarray
    vectors: np.ndarray

    # compared and hashed by identity, as its fields are arrays
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, weights: np.ndarray, vectors: np.ndarray) -> None:
        import numpy as np

        w = np.array(weights, dtype=float)
        v = np.asarray(vectors)
        if w.ndim != 1 or v.ndim != 2 or v.shape[1] != w.size or v.size == 0:
            raise ValueError(f"shapes {w.shape}, {v.shape} are not (k,), (dim, k) with k > 0")
        if not (np.isfinite(w).all() and w.min() >= EIGENVALUE_FLOOR):
            raise ValueError(f"weights must be finite and at least {EIGENVALUE_FLOOR}")
        tr = float(w.sum())
        if not (1.0 - TRACE_TOL <= tr <= 1.0 + ORTHONORMAL_TOL):
            raise ValueError(f"trace {tr!r} outside [1 - {TRACE_TOL}, 1]: too few Fock levels")
        # drop the columns of weight <= 0, then the lightest while their sum stays
        # within DROPPED_WEIGHT (of equal weights, the earlier column goes first)
        keep = w > 0.0
        lightest = np.flatnonzero(keep)[np.argsort(w[keep], kind="stable")]
        keep[lightest[: np.searchsorted(np.cumsum(w[lightest]), DROPPED_WEIGHT, "right")]] = False
        w, v = w[keep], v[:, keep].astype(complex, copy=False)
        err = float(np.max(np.abs(v.conj().T @ v - np.eye(w.size))))
        if not (err <= ORTHONORMAL_TOL):
            raise ValueError(f"vectors are not orthonormal: max |V^H V - I| = {err!r}")
        w.setflags(write=False)
        v.setflags(write=False)
        self.__dict__.update(weights=w, vectors=v)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


def destroy(dim: int) -> np.ndarray:
    """Annihilation operator on the first ``dim`` Fock levels."""
    import numpy as np

    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def _check_args(dim: int, **params: complex) -> None:
    import numpy as np

    if dim < 2:
        raise ValueError(f"dim must be at least 2, got {dim!r}")
    for name, value in params.items():
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def coherent_fock(alpha: complex, dim: int = DEFAULT_DIM) -> FockDensity:
    """Coherent state built from its analytic number-basis amplitudes."""
    import numpy as np

    _check_args(dim, alpha=alpha)
    mod = math.hypot(alpha.real, alpha.imag)  # abs() raises past the float range
    if not mod * mod < dim:
        raise ValueError(f"alpha={alpha!r} needs more than dim={dim} Fock levels")
    n0 = int(mod * mod)  # start at the peak, in log space, and recurse away from it
    amps = np.empty(dim, dtype=complex)
    log_peak = -0.5 * mod * mod + n0 * math.log(mod or 1.0) - 0.5 * math.lgamma(n0 + 1)
    amps[n0] = math.exp(log_peak) * (alpha / (mod or 1.0)) ** n0
    for n in range(n0, 0, -1):
        amps[n - 1] = amps[n] * math.sqrt(n) / alpha
    for n in range(n0 + 1, dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    norm2 = float(np.vdot(amps, amps).real)
    if not norm2 >= 1.0 - TRACE_TOL:
        raise ValueError(f"alpha={alpha!r} needs more than dim={dim} Fock levels")
    return FockDensity([norm2], (amps / math.sqrt(norm2))[:, None])


def _thermal_weights(nbar: float, dim: int) -> np.ndarray:
    import numpy as np

    if nbar < 0.0:
        raise ValueError("nbar must be non-negative")
    ratio = nbar / (1.0 + nbar)
    return ratio ** np.arange(dim) / (1.0 + nbar)


def thermal_fock(nbar: float, dim: int = DEFAULT_DIM) -> FockDensity:
    """Thermal state with mean photon number ``nbar`` (geometric weights)."""
    import numpy as np

    _check_args(dim, nbar=nbar)
    return FockDensity(_thermal_weights(nbar, dim), np.eye(dim))


@functools.lru_cache(maxsize=2)
def _squeeze_basis(dim: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    import numpy as np

    # Per parity block: the eigenvalues and orthogonal eigenvectors of the real
    # symmetric tridiagonal T whose off-diagonal is half that block's slice of
    # the band, and the signs (-1)**floor((j - k) / 2); all read-only.  T has a
    # zero diagonal, so its spectrum is symmetric about 0, and is made exactly
    # so: eigh's rounding asymmetry, up to 4e-13 at dim 1000, would otherwise
    # leak cosine terms onto odd j - k and sine terms onto even.
    root = np.sqrt(np.arange(1.0, dim))  # the band of destroy(dim)
    band = root[:-1] * root[1:]  # the bands of a^2 and a^dag^2, rounded as a @ a rounds
    basis = []
    for parity in (0, 1):
        off = 0.5 * band[parity::2]
        lam, q = np.linalg.eigh(np.diag(off, -1) + np.diag(off, 1))
        lam = 0.5 * (lam - lam[::-1])  # ascending, so lam[::-1] pairs lam with -lam
        k = np.arange(lam.size)
        sign = 1.0 - 2.0 * (np.subtract.outer(k, k) // 2 % 2)
        for arr in (lam, q, sign):
            arr.setflags(write=False)
        basis.append((lam, q, sign))
    return tuple(basis)


def squeeze_matrix(r: float, dim: int) -> np.ndarray:
    """Squeeze unitary scaling the x1 variance of the vacuum by e**(2r).

    The generator moves the photon number in steps of two, so it is block
    diagonal in the even and odd levels.  Each block is r K, with K real,
    antisymmetric and tridiagonal, so K = D (-i T) D^H for D = diag(i**j)
    and T real symmetric with a zero diagonal.  With T = Q diag(lam) Q^T,
    computed once per ``dim``, exp(r K) = D Q exp(-i r lam) Q^T D^H; as the
    spectrum of T is symmetric about 0, its cosine terms land only where
    j - k is even and its sine terms only where it is odd, so entry (j, k)
    is (-1)**floor((j - k) / 2) (Q diag(cos r lam + sin r lam) Q^T)[j, k]:
    one real product per block.  Against a 40-digit exponential at dim 120
    the entries are within 6e-15 for r = 0.3 and 1.1 (a parity-split
    ``scipy.linalg.expm``: 1.7e-13), and S S^T lies within 1e-14 of the
    identity up to dim 1000 (expm: 1e-11).
    """
    import numpy as np

    _check_args(dim, r=r)
    s = np.zeros((dim, dim))
    for parity, (lam, q, sign) in enumerate(_squeeze_basis(dim)):
        s[parity::2, parity::2] = sign * ((q * (np.cos(r * lam) + np.sin(r * lam))) @ q.T)
    return s


def squeezed_thermal(
    r: float, nbar: float, theta: float = 0.0, dim: int = DEFAULT_DIM
) -> FockDensity:
    """Rotated squeezed thermal state.

    The covariance is (2*nbar + 1) times the rotated diag(e**(2r),
    e**(-2r)).  Parameter choices the truncation cannot represent are
    rejected by inspecting the two highest level populations: the
    truncated squeeze exponential stays unitary, so a starved basis shows
    up as weight parked near the top rather than as a trace deficit (two
    levels because squeezing a diagonal base populates levels in steps of
    two, leaving one parity empty).
    """
    import numpy as np

    _check_args(dim, r=r, nbar=nbar, theta=theta)
    s = squeeze_matrix(r, dim)
    p = _thermal_weights(nbar, dim)
    # the top two diagonal entries of S diag(p) S^T
    if float(((s[-2:] ** 2) @ p).sum()) > TRACE_TOL:
        raise ValueError(f"squeezing r={r!r} needs more than {dim} Fock levels")
    # the diagonal rotation exp(-i theta n) whose covariance action matches rotate_cov
    phase = np.exp(-1j * theta * np.arange(dim))
    return FockDensity(p, phase[:, None] * s)


def uhlmann_fock(r1: FockDensity, r2: FockDensity) -> float:
    """Fidelity Tr sqrt(sqrt(p1) p2 sqrt(p1)) as the trace norm |sqrt(p1) sqrt(p2)|_1.

    With each state held as p = V diag(w) V^H, this is the sum of the
    singular values of diag(sqrt(w1)) V1^H V2 diag(sqrt(w2)), where a pure
    state gives its one vector and weight.  Singular values carry absolute
    error near 1e-16: no rounding noise is square-rooted.  The columns each
    state dropped, of weight d <= ``DROPPED_WEIGHT``, share its eigenbasis,
    so |sqrt(p_d) sqrt(s)|_1 <= |sqrt(p_d)|_2 |sqrt(s)|_2 = sqrt(d): the
    full-rank fidelity is higher by at most 2 sqrt(DROPPED_WEIGHT) = 2e-13.
    """
    import numpy as np

    if r1.dim != r2.dim:
        raise ValueError(f"dimension mismatch: {r1.dim} vs {r2.dim}")
    (s1, v1), (s2, v2) = ((np.sqrt(r.weights), r.vectors) for r in (r1, r2))
    x = s1[:, None] * (v1.conj().T @ v2) * s2
    return float(np.linalg.svd(x, compute_uv=False).sum())


def quadrature_moments_fock(r: FockDensity) -> tuple[float, float, float, float]:
    """First and raw second quadrature moments (m1, m2, <x1^2>, <x2^2>).

    <a> and <a^2> are read from the first two subdiagonals, and
    <a^dag a + a a^dag> from the diagonal, with the truncated ``destroy``;
    each band p[n+j, n] = sum_k w_k V[n+j, k] V*[n, k] comes from the spectrum.
    """
    import numpy as np

    v, wv = r.vectors, r.vectors.conj() * r.weights
    diag, sub1, sub2 = ((v[j:] * wv[:r.dim - j]).sum(axis=1) for j in range(3))
    n = np.arange(1.0, r.dim)
    a1 = sub1 @ np.sqrt(n)
    a2 = sub2 @ np.sqrt(n[:-1] * n[1:])
    sym = diag.real @ np.append(2.0 * n - 1.0, r.dim - 1.0)
    return (
        float(a1.real), float(a1.imag),
        float(0.25 * sym + 0.5 * a2.real), float(0.25 * sym - 0.5 * a2.real),
    )
