"""The public surface: every name each ``__all__`` lists exists, and the
names dropped from it stay dropped."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_each_export_is_its_home_modules_object():
    for module, names in qdverify._EXPORTS.items():
        home = importlib.import_module(f"qdverify.{module}")
        for name in names:
            assert getattr(qdverify, name) is getattr(home, name), name
    assert set(qdverify.__all__) <= set(dir(qdverify))


def test_import_loads_no_submodule_until_a_name_is_used():
    # each public name imports its home module on first use, and only that one
    code = (
        "import json, sys\n"
        "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] in "
        "('qdverify', 'numpy'))\n"
        "import qdverify\n"
        "bare = loaded()\n"
        "qdverify.qd_criterion\n"
        "print(json.dumps([bare, loaded()]))\n"
    )
    src = str(Path(qdverify.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert json.loads(run.stdout) == [["qdverify"], ["qdverify", "qdverify.criterion"]]
