"""What the benchmark in perfbench/ needs from the program.

The tracer wraps functions by name and reads evolve's arguments, and the
oracles parse the CSV the observer writes. A change to any of these fails
here, not only in a traced benchmark run.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import typing
from pathlib import Path

import numpy as np
import pytest

from solitonlab import propagation
from solitonlab.propagation import ObserverSeries

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


@pytest.fixture(scope="module")
def oracles():
    return _load("oracles")


def test_every_traced_name_resolves(tracer):
    for layer, names in tracer.TRACED.items():
        module = importlib.import_module(f"solitonlab.{layer}")
        for name in names:
            obj = module
            for part in name.split("."):
                obj = getattr(obj, part)  # AttributeError names the missing one
            assert callable(obj), f"{layer}.{name}"


def test_evolve_takes_the_stepper_config_fourth(tracer):
    # tracer._evolve_steps reads dt and obs_cadence from args[3]
    param = list(inspect.signature(propagation.evolve).parameters.values())[3]
    assert param.name == "config" and param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    config_type = typing.get_type_hints(propagation.evolve)[param.name]
    assert {"dt", "obs_cadence"} <= {f.name for f in dataclasses.fields(config_type)}


def test_series_csv_passes_the_oracle_reader(tmp_path, oracles):
    t = np.linspace(0.0, 1.0, 5)
    columns = {"times": t, "err_l2": 1e-3 * t, "mass": np.full(5, 2.0),
               "energy": np.full(5, 31.8), "a_abs": 0.1 * t, "edge_mass": np.zeros(5)}
    path = tmp_path / "series.csv"
    ObserverSeries(**columns).to_csv(path)
    read = oracles.read_series(path)
    assert list(read) == ["t", "err_l2", "mass", "energy", "a_abs", "edge_mass"]
    for (name, expected), got in zip(columns.items(), read.values()):
        assert np.array_equal(got, expected), name
