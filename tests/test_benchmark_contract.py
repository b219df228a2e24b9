"""What the benchmark in perfbench/ needs from the program.

The tracer wraps functions by name and reads evolve's arguments, the
oracles parse the CSV the observer writes, and every input the workloads
give the command line must pass its readers. A change to any of these fails
here, not only in a traced benchmark run.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import json
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

from solitonlab import propagation, scattering
from solitonlab.cli import _potential_from_args, build_parser
from solitonlab.experiments import ExperimentConfig
from solitonlab.grid import Field, make_grid
from solitonlab.potentials import PotentialSpec, SampledPotential
from solitonlab.propagation import ObserverSeries, StepperConfig

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


def test_scattering_table_takes_the_sampled_potential_first():
    # the tracer's scattering_table wrapper reads args[0].grid (or the
    # "potential" keyword) to count lambda-nodes
    param = next(iter(inspect.signature(scattering.scattering_table).parameters.values()))
    assert param.name == "potential" and param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    potential_type = typing.get_type_hints(scattering.scattering_table)[param.name]
    assert potential_type is SampledPotential
    assert "grid" in {f.name for f in dataclasses.fields(SampledPotential)}


def test_evolve_steps_match_the_run(tracer):
    # tracer._evolve_steps keeps its own copy of evolve's step rule for a
    # cadence within the horizon; propagation.point_steps counts with it
    g = make_grid(-20.0, 20.0, 256)
    args = (Field(g, np.exp(-g.x**2)), None, 1.0, StepperConfig(dt=0.0103, obs_cadence=0.1))
    result = propagation.evolve(*args)
    assert result.steps == 99
    assert tracer._evolve_steps(args, {}, result) == result.steps


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


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its sibling oracles.py by plain name
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_workload_potentials_pass_the_reader(workloads):
    specs = [workloads.STUDY_POTENTIAL, *workloads.SIMULATE_POTENTIALS,
             workloads.KNOWN_FAULT["potential"], *workloads.SPECTRAL_POTENTIALS]
    for spec in specs:
        assert PotentialSpec.from_dict(spec).to_dict() == {"center": 0.0, **spec}


@pytest.mark.parametrize("name", ["study", "simulate"])
def test_workload_configs_pass_the_reader(workloads, tmp_path, name):
    ops = workloads.Workload(name, tmp_path, seed=0).ops
    assert ops
    for op in ops:
        config = json.loads(Path(op.argv[op.argv.index("--config") + 1]).read_text())
        ExperimentConfig.from_dict(config)


def test_spectral_argv_parses(workloads, tmp_path):
    workload = workloads.Workload("spectral", tmp_path, seed=0)
    ops = workload.ops + workload.warmup()
    assert len(ops) == 2 * len(workloads.SPECTRAL_POTENTIALS)
    for op in ops:
        args = build_parser().parse_args(op.argv)
        assert _potential_from_args(args).kind == args.kind
