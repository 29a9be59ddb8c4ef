"""The public surface: every name each ``__all__`` lists exists, and the
names dropped from it stay dropped."""

import importlib

import pytest

import qdverify

MODULES = [
    "qdverify",
    "qdverify.applications",
    "qdverify.cli",
    "qdverify.criterion",
    "qdverify.fock_oracle",
    "qdverify.gaussian",
    "qdverify.mp_oracle",
    "qdverify.quadrature_bounds",
]

REMOVED = [
    ("qdverify.fock_oracle", "displacement_matrix"),
    ("qdverify.gaussian", "mixed_input_gamma"),
    ("qdverify.mp_oracle", "element_contribution"),
    ("qdverify.quadrature_bounds", "coherent_bound"),
    ("qdverify.criterion", "PriorEnsemble"),
    ("qdverify.gaussian", "CovMat2.from_array"),
    ("qdverify.gaussian", "CovMat2.as_array"),
    ("qdverify.criterion", "OverlapPair.useful"),
    ("qdverify.criterion", "FidelityPair.slope"),
    ("qdverify.mp_oracle", "EnsembleParams.axis_cos"),
    ("qdverify.mp_oracle", "EnsembleParams.axis_sin"),
]


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(name)
    assert len(module.__all__) == len(set(module.__all__))
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from qdverify import *", namespace)
    assert set(qdverify.__all__) <= namespace.keys()


@pytest.mark.parametrize("module, path", REMOVED, ids=[p for _, p in REMOVED])
def test_removed_names_stay_gone(module, path):
    owner = importlib.import_module(module)
    *parents, leaf = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    assert not hasattr(owner, leaf)
