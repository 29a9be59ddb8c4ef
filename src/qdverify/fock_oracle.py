"""Truncated number-basis oracle for the Gaussian closed forms.

States are dense matrices on the first ``dim`` Fock levels, built from
the standard ladder operators: squeeze and displacement unitaries come
from matrix exponentials of their generators, thermal states from the
geometric photon distribution.  Each state is decomposed once, when it
is validated, and every fidelity is a trace norm read from the two stored
spectra.  Nothing here assumes any Gaussian identity, which is the
point: agreement with :mod:`qdverify.gaussian` validates those
identities independently.

Truncation is treated as a hard precondition, not a degradation: state
constructors raise when the retained trace falls below 1 - 1e-6, or,
for the squeeze constructor whose truncated exponential is unitary
regardless, when the top level carries more than that tolerance.  The
default dimension of 120 comfortably covers squeezing up to about 6 dB
with up to one thermal photon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FockDensity",
    "destroy",
    "coherent_fock",
    "thermal_fock",
    "squeeze_matrix",
    "displacement_matrix",
    "squeezed_thermal",
    "uhlmann_fock",
    "quadrature_moments_fock",
]

DEFAULT_DIM = 120
TRACE_TOL = 1e-6
HERMITICITY_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
#: A state whose top eigenvalue reaches 1 - PURITY_TOL is treated as pure.
PURITY_TOL = 1e-11


@dataclass(frozen=True, eq=False)
class FockDensity:
    """A truncated density matrix with its invariants checked on entry.

    ``matrix`` is a private read-only copy, so ``spectrum``, the read-only
    ``(eigenvalues, eigenvectors)`` pair of the validating ``eigh``, stays
    valid for the life of the state.  A pure state keeps only its top
    eigenvector column.
    """

    matrix: np.ndarray
    spectrum: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
            raise ValueError(f"density matrix must be square and non-empty: {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ValueError("density matrix must be Hermitian")
        tr = float(np.trace(m).real)
        if not (1.0 - TRACE_TOL <= tr <= 1.0 + HERMITICITY_TOL):
            raise ValueError(
                f"trace {tr!r} outside [1 - {TRACE_TOL}, 1]: truncation insufficient"
            )
        vals, vecs = np.linalg.eigh(m)
        if float(vals[0]) < EIGENVALUE_FLOOR:
            raise ValueError("density matrix has a significantly negative eigenvalue")
        if float(vals[-1]) >= 1.0 - PURITY_TOL:
            vecs = vecs[:, -1:].copy()
        for arr in (m, vals, vecs):
            arr.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "spectrum", (vals, vecs))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def destroy(dim: int) -> np.ndarray:
    """Annihilation operator on the first ``dim`` Fock levels."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def _check_args(dim: int, **params: complex) -> None:
    if dim < 2:
        raise ValueError(f"dim must be at least 2, got {dim!r}")
    for name, value in params.items():
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


def coherent_fock(alpha: complex, dim: int = DEFAULT_DIM) -> FockDensity:
    """Coherent state built from its analytic number-basis amplitudes."""
    _check_args(dim, alpha=alpha)
    amps = np.zeros(dim, dtype=complex)
    amps[0] = 1.0
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    amps *= math.exp(-0.5 * abs(alpha) ** 2)
    return FockDensity(np.outer(amps, amps.conj()))


def _thermal_weights(nbar: float, dim: int) -> np.ndarray:
    if nbar < 0.0:
        raise ValueError("nbar must be non-negative")
    ratio = nbar / (1.0 + nbar)
    return ratio ** np.arange(dim) / (1.0 + nbar)


def thermal_fock(nbar: float, dim: int = DEFAULT_DIM) -> FockDensity:
    """Thermal state with mean photon number ``nbar`` (geometric weights)."""
    _check_args(dim, nbar=nbar)
    return FockDensity(np.diag(_thermal_weights(nbar, dim)))


def squeeze_matrix(r: float, dim: int) -> np.ndarray:
    """Squeeze unitary scaling the x1 variance of the vacuum by e**(2r).

    The generator moves the photon number in steps of two, so it is block
    diagonal in the even and odd levels, and each block is exponentiated
    on its own (two half-size exponentials cost about a third of one).
    """
    from scipy.linalg import expm

    a = destroy(dim)
    gen = 0.5 * r * (a.T @ a.T - a @ a)
    s = np.zeros((dim, dim))
    for parity in (slice(0, None, 2), slice(1, None, 2)):
        s[parity, parity] = expm(gen[parity, parity])
    return s


def displacement_matrix(alpha: complex, dim: int) -> np.ndarray:
    """Displacement unitary moving the vacuum to the coherent state alpha."""
    from scipy.linalg import expm

    a = destroy(dim).astype(complex)
    gen = alpha * a.conj().T - np.conj(alpha) * a
    return expm(gen)


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
    _check_args(dim, r=r, nbar=nbar, theta=theta)
    s = squeeze_matrix(r, dim)
    m = (s * _thermal_weights(nbar, dim)) @ s.T
    if float(m.diagonal()[-2:].sum()) > TRACE_TOL:
        raise ValueError(f"squeezing r={r!r} needs more than {dim} Fock levels")
    # the diagonal rotation exp(-i theta n) whose covariance action matches rotate_cov
    phase = np.exp(-1j * theta * np.arange(dim))
    m = phase[:, None] * m * phase.conj()
    return FockDensity(0.5 * (m + m.conj().T))


def uhlmann_fock(r1: FockDensity, r2: FockDensity) -> float:
    """Fidelity Tr sqrt(sqrt(p1) p2 sqrt(p1)) as the trace norm |sqrt(p1) sqrt(p2)|_1.

    From the stored spectra p = V diag(w) V^H this is the sum of the
    singular values of diag(sqrt(w1)) V1^H V2 diag(sqrt(w2)), where a pure
    state gives its one stored vector and top eigenvalue.  Singular values
    carry absolute error near 1e-16: no rounding noise is square-rooted.
    """
    if r1.dim != r2.dim:
        raise ValueError(f"dimension mismatch: {r1.dim} vs {r2.dim}")
    (s1, v1), (s2, v2) = (
        (np.sqrt(np.clip(vals[-vecs.shape[1]:], 0.0, None)), vecs)
        for vals, vecs in (r1.spectrum, r2.spectrum)
    )
    x = s1[:, None] * (v1.conj().T @ v2) * s2
    return float(np.linalg.svd(x, compute_uv=False).sum())


def quadrature_moments_fock(r: FockDensity) -> tuple[float, float, float, float]:
    """First and raw second quadrature moments (m1, m2, <x1^2>, <x2^2>).

    <a> and <a^2> are read from the first two subdiagonals, and
    <a^dag a + a a^dag> from the diagonal, with the truncated ``destroy``.
    """
    m = r.matrix
    n = np.arange(1.0, r.dim)
    a1 = np.diagonal(m, -1) @ np.sqrt(n)
    a2 = np.diagonal(m, -2) @ np.sqrt(n[:-1] * n[1:])
    sym = m.diagonal().real @ np.append(2.0 * n - 1.0, r.dim - 1.0)
    return (
        float(a1.real), float(a1.imag),
        float(0.25 * sym + 0.5 * a2.real), float(0.25 * sym - 0.5 * a2.real),
    )
