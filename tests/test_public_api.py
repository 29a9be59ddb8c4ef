"""The public surface: every name each ``__all__`` lists exists, the names
dropped from it stay dropped, and the value types behave as frozen
dataclasses would."""

import copy
import dataclasses
import importlib
import inspect
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qdverify
from qdverify.fock_oracle import FockDensity
from qdverify.mp_oracle import CQScheme, EnsembleParams

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


# Valid fields for each public value type, in field order.
UNIT = st.floats(0.0, 1.0)
REAL = st.floats(-1e6, 1e6, allow_nan=False)
TEXT = st.text(max_size=8)


@st.composite
def _cov(draw):
    c11 = draw(st.floats(0.1, 10.0))
    c22 = draw(st.floats(1.0, 6.0)) / c11
    c12 = draw(st.floats(-0.99, 0.99)) * math.sqrt(max(c11 * c22 - 1.0, 0.0))
    return {"c11": c11, "c12": c12, "c22": c22}


@st.composite
def _squeezing(draw):
    squeezing_db = draw(st.floats(-10.0, 0.0))
    return {"squeezing_db": squeezing_db,
            "antisqueezing_db": draw(st.floats(-squeezing_db, 20.0))}


@st.composite
def _moments(draw):
    m1, m2 = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    v1 = draw(st.floats(0.05, 5.0))
    v2 = draw(st.floats(1.1, 20.0)) / (16.0 * v1)
    return {"m1": m1, "m2": m2, "s1": m1 * m1 + v1, "s2": m2 * m2 + v2}


@st.composite
def _scheme(draw):
    n = draw(st.integers(1, 4))
    return {"weights": tuple(draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n))),
            "angles": tuple(draw(st.lists(REAL, min_size=n, max_size=n)))}


@st.composite
def _spectrum(draw):
    k = draw(st.integers(1, 3))
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    order = draw(st.permutations(range(k + 1)))
    return {"weights": w / w.sum(), "vectors": np.eye(k + 1)[:, list(order)[:k]]}


def _array(size):
    return st.lists(REAL, min_size=size, max_size=size).map(np.array)


def _fields(**strategies):
    # a dict in the order given, which st.fixed_dictionaries does not keep
    return st.tuples(*strategies.values()).map(lambda values: dict(zip(strategies, values)))


VERDICT = _fields(is_quantum_domain=st.booleans(), lhs=UNIT, rhs=UNIT, method=TEXT,
                  marginal=st.booleans(), swapped=st.booleans(),
                  degenerate=st.none() | TEXT)
VALUE_TYPES = {
    "OverlapPair": _fields(gamma=UNIT, gamma_prime=UNIT),
    "FidelityPair": _fields(a=UNIT, b=UNIT),
    "Verdict": VERDICT,
    "CovMat2": _cov(),
    "GaussianState": _fields(cov=_cov().map(lambda kw: qdverify.CovMat2(**kw)),
                             mean1=REAL, mean2=REAL),
    "SqueezingRecord": _squeezing(),
    "CoherentTask": _fields(alpha=st.floats(0.01, 5.0), eta=st.floats(1e-3, 1.0)),
    "StorageRecord": _fields(
        label=TEXT,
        input_state=_squeezing().map(lambda kw: qdverify.SqueezingRecord(**kw)),
        output_state=_squeezing().map(lambda kw: qdverify.SqueezingRecord(**kw)),
    ),
    "StorageReport": _fields(
        label=TEXT, mode=st.sampled_from([qdverify.AS_PUBLISHED, qdverify.PURE_TARGET]),
        a=UNIT, b=UNIT, thetas=_array(3), gamma_sq=_array(3), gamma_prime_sq=_array(3),
        B=_array(3), rhs=_array(3), theta_min=REAL, rhs_min=UNIT, lhs=UNIT,
        verdict=VERDICT.map(lambda kw: qdverify.Verdict(**kw)),
        notes=st.lists(TEXT, max_size=2).map(tuple),
    ),
    "EnsembleParams": _fields(bias=REAL, diff_norm=REAL, axis_angle=REAL),
    "CQScheme": _scheme(),
    "FockDensity": _spectrum(),
    "QuadratureMoments": _moments(),
}
TYPES = {name: getattr(qdverify, name) for name in VALUE_TYPES if name in qdverify.__all__}
TYPES.update(EnsembleParams=EnsembleParams, CQScheme=CQScheme, FockDensity=FockDensity)
#: Types compared and hashed by identity, because their fields hold arrays.
BY_IDENTITY = {"StorageReport", "FockDensity"}


def _same(x, y):
    if isinstance(x, np.ndarray):
        return type(y) is np.ndarray and x.dtype == y.dtype and np.array_equal(x, y)
    return type(x) is type(y) and x == y


def _stored(obj, names):
    return {name: getattr(obj, name) for name in names}


@pytest.mark.parametrize("name", list(VALUE_TYPES))
@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(data=st.data())
def test_value_types_behave_as_frozen_dataclasses(name, data):
    cls = TYPES[name]
    by_value = name not in BY_IDENTITY
    names = list(inspect.signature(cls).parameters)
    twin = dataclasses.make_dataclass(cls.__name__, names, frozen=True, eq=by_value)
    given_a, given_b = data.draw(VALUE_TYPES[name]), data.draw(VALUE_TYPES[name])
    assert list(given_a) == names
    obj, other = cls(**given_a), cls(*given_b.values())
    fields = _stored(obj, names)
    twin_obj, twin_other = twin(**fields), twin(**_stored(other, names))

    assert repr(obj) == repr(twin_obj)
    assert obj.__eq__(twin_obj) is NotImplemented and obj != twin_obj
    if by_value:
        assert obj == cls(**given_a) and hash(obj) == hash(twin_obj)
        assert (obj == other) is (twin_obj == twin_other)
        assert (obj != other) is (twin_obj != twin_other)
    else:
        assert obj == obj and obj != cls(**given_a)
        assert hash(obj) == object.__hash__(obj)

    for field in [*names, "extra"]:
        with pytest.raises(AttributeError):
            setattr(obj, field, 0.5)
        with pytest.raises(AttributeError):
            delattr(obj, field)
    for clone in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(clone) is cls
        assert all(_same(fields[f], value) for f, value in _stored(clone, names).items())
        if by_value:
            assert clone == obj and hash(clone) == hash(obj)
        with pytest.raises(AttributeError):
            setattr(clone, names[0], 0.5)


def test_value_type_signatures_and_defaults():
    verdict = qdverify.Verdict(True, 0.9, 0.8, "x")
    assert repr(verdict) == (
        "Verdict(is_quantum_domain=True, lhs=0.9, rhs=0.8, method='x', marginal=False, "
        "swapped=False, degenerate=None)"
    )
    assert verdict == qdverify.Verdict(
        method="x", rhs=0.8, lhs=0.9, is_quantum_domain=True, degenerate=None
    )
    cov = qdverify.CovMat2(1.0, 0.0, 1.0)
    assert qdverify.GaussianState(cov) == qdverify.GaussianState(cov=cov, mean1=0.0, mean2=0.0)
    defaults = {
        "Verdict": {"marginal": False, "swapped": False, "degenerate": None},
        "GaussianState": {"mean1": 0.0, "mean2": 0.0},
    }
    for name, cls in TYPES.items():
        params = inspect.signature(cls).parameters.values()
        assert {p.name: p.default for p in params if p.default is not p.empty} == (
            defaults.get(name, {})
        ), name
