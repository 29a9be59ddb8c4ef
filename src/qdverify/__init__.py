"""Verification toolkit for quantum-domain channel tests.

Decides, from measured fidelities of two non-orthogonal probe states,
whether a channel did something no measure-and-prepare scheme can
imitate.  The closed-form test lives in :mod:`qdverify.criterion`;
:mod:`qdverify.applications` wires it to three concrete experiment
families, :mod:`qdverify.gaussian` and :mod:`qdverify.quadrature_bounds`
supply the continuous-variable plumbing, and :mod:`qdverify.mp_oracle`
plus :mod:`qdverify.fock_oracle` are independent numerical checks on the
closed forms.
"""

__version__ = "0.2.0"

from .applications import (
    AS_PUBLISHED,
    BENCHMARK_RECORDS,
    PURE_TARGET,
    CoherentTask,
    StorageRecord,
    StorageReport,
    benchmark_table,
    coherent_task_overlaps,
    coherent_verify,
    estimate_fidelity_from_clicks,
    squeezed_storage_analysis,
    teleport_two_state_check,
)
from .criterion import (
    FidelityPair,
    OverlapPair,
    Verdict,
    boundary_curve,
    classical_fidelity_bound,
    legendre_conjugate,
    qd_criterion,
    qd_criterion_numeric,
    tangency_prior,
    total_nonorthogonality,
)
from .gaussian import (
    CovMat2,
    GaussianState,
    SqueezingRecord,
    uhlmann_fidelity_gaussian,
)
from .quadrature_bounds import (
    QuadratureMoments,
    optimal_bound_squeezing,
    squeezed_vacuum_bound,
)

__all__ = [
    "__version__",
    "AS_PUBLISHED",
    "BENCHMARK_RECORDS",
    "PURE_TARGET",
    "CoherentTask",
    "CovMat2",
    "FidelityPair",
    "GaussianState",
    "OverlapPair",
    "QuadratureMoments",
    "SqueezingRecord",
    "StorageRecord",
    "StorageReport",
    "Verdict",
    "benchmark_table",
    "boundary_curve",
    "classical_fidelity_bound",
    "coherent_task_overlaps",
    "coherent_verify",
    "estimate_fidelity_from_clicks",
    "legendre_conjugate",
    "optimal_bound_squeezing",
    "qd_criterion",
    "qd_criterion_numeric",
    "squeezed_storage_analysis",
    "squeezed_vacuum_bound",
    "tangency_prior",
    "teleport_two_state_check",
    "total_nonorthogonality",
    "uhlmann_fidelity_gaussian",
]
