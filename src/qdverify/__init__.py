"""Verification toolkit for quantum-domain channel tests.

Decides, from measured fidelities of two non-orthogonal probe states,
whether a channel did something no measure-and-prepare scheme can
imitate.  The closed-form test lives in :mod:`qdverify.criterion`;
:mod:`qdverify.applications` wires it to three concrete experiment
families, :mod:`qdverify.gaussian` and :mod:`qdverify.quadrature_bounds`
supply the continuous-variable plumbing, and :mod:`qdverify.mp_oracle`
plus :mod:`qdverify.fock_oracle` are independent numerical checks on the
closed forms.

``import qdverify`` loads none of these modules: each public name below
resolves on first use, which imports the module that defines it.
"""

import importlib

__version__ = "0.2.0"

# Each public name, once, under the module that defines it.
_EXPORTS = {
    "applications": (
        "AS_PUBLISHED", "BENCHMARK_RECORDS", "PURE_TARGET", "CoherentTask",
        "StorageRecord", "StorageReport", "benchmark_table", "coherent_task_overlaps",
        "coherent_verify", "estimate_fidelity_from_clicks", "squeezed_storage_analysis",
        "teleport_two_state_check",
    ),
    "criterion": (
        "FidelityPair", "OverlapPair", "Verdict", "boundary_curve",
        "classical_fidelity_bound", "legendre_conjugate", "qd_criterion",
        "qd_criterion_numeric", "tangency_prior", "total_nonorthogonality",
    ),
    "gaussian": ("CovMat2", "GaussianState", "SqueezingRecord", "uhlmann_fidelity_gaussian"),
    "quadrature_bounds": (
        "QuadratureMoments", "optimal_bound_squeezing", "squeezed_vacuum_bound",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
