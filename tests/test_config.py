"""JSON config reading: every object yields a valid config or a ConfigError."""

import dataclasses
import json
import math

import pytest

from solitonlab.errors import ConfigError
from solitonlab.experiments import ExperimentConfig, plan_run
from solitonlab.potentials import KIND_PARAMS, KINDS, PARAMS, PotentialSpec
from solitonlab.propagation import validate_step_rules

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

BASE = {"potential": {"kind": "algebraic", "q": 0.5, "s": 3.0}, "delta": 0.6, "v": 8.0}


def with_(**overrides):
    return {**BASE, **overrides}


class TestExperimentConfigTypes:
    @pytest.mark.parametrize("raw", [
        with_(override_admissibility="no"),
        with_(override_admissibility=0),
        with_(delta="x"),
        with_(delta=True),
        with_(x0="abc"),
        with_(dt="0.01"),
        with_(v=[8.0]),
        with_(delta=math.nan),
        with_(v=10**400),  # a JSON integer beyond the float range
        with_(obs_points=800.0),
        with_(out_dir=5),
        {**{k: v for k, v in BASE.items() if k != "v"}, "velocities": "ab"},
        {**{k: v for k, v in BASE.items() if k != "v"}, "velocities": [8.0, "16"]},
        with_(velocities=[8.0]),  # both 'v' and 'velocities'
        with_(kmax_factor=-1.0),
        with_(potential={"kind": "algebraic", "q": 0.5, "s": -1.0}),
        with_(edge_mass_tol=0.0),  # a module constant, not a key
        # x0_factor and the run rules set these; mu = 1 is the paper's soliton
        with_(x0=-5.0),
        with_(dt=0.001),
        with_(dt_safety=2.0),
        with_(margin=40.0),
        with_(obs_points=800),
        with_(mu=1.0),
    ])
    def test_rejected(self, raw):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)

    def test_accepted_keys(self):
        # the whole config surface: what the experiment varies, and out_dir
        full = with_(x0_factor=1.5, override_admissibility=True, out_dir="o")
        assert set(full) == {"potential", "delta", "v", "x0_factor", "override_admissibility",
                             "out_dir"}
        cfg = ExperimentConfig.from_dict(full)
        assert {f.name for f in dataclasses.fields(cfg)} == {
            "potential", "delta", "velocities", "x0_factor", "override_admissibility"}
        listed = {**{k: v for k, v in full.items() if k != "v"}, "velocities": [8.0, 16.0]}
        assert ExperimentConfig.from_dict(listed).velocities == (8.0, 16.0)

    def test_single_run_values_read_once(self):
        cfg = ExperimentConfig.from_dict(with_(override_admissibility=True))
        assert cfg.velocities == (8.0,)
        assert cfg.override_admissibility is True


class TestPotentialSpecTypes:
    @pytest.mark.parametrize("raw", [
        {"kind": "gaussian", "q": "2.0"},
        {"kind": "gaussian", "sigma": True},
        {"kind": "gaussian", "center": None},
        {"kind": ["gaussian"]},
        {"kind": "algebraic", "s": math.inf},
        # sigma**2 underflows to 0, so V(center) would be 0/0
        {"kind": "gaussian", "sigma": 1e-200},
        {"kind": "gaussian", "sigma": 1e-320},
        # keys the kind does not read (every single one: test_cli FOREIGN)
        {"kind": "gaussian", "q": 2.0, "sigma": 1.0, "s": 5.0, "beta": 7.0},
        {"kind": "sech2_scaled", "q": 9.0, "sigma": 3.0, "beta": 0.5},
    ])
    def test_rejected(self, raw):
        with pytest.raises(ConfigError):
            PotentialSpec.from_dict(raw)

    @pytest.mark.parametrize("kind", KINDS)
    def test_to_dict_holds_the_kinds_own_keys(self, kind):
        d = PotentialSpec(kind).to_dict()
        assert list(d) == ["kind", "center", *KIND_PARAMS[kind]]
        assert PotentialSpec.from_dict(d) == PotentialSpec(kind)

    def test_integers_are_numbers(self):
        assert PotentialSpec.from_dict({"kind": "algebraic", "q": 1, "s": 3}).s == 3.0


# --- property: any JSON object gives a config or a ConfigError -----------------

_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
_json = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _mutated(base, keys):
    """``base`` with up to two keys dropped and up to two keys (known ones or
    not) set to arbitrary JSON values."""
    return st.tuples(
        base,
        st.sets(st.sampled_from(keys), max_size=2),
        st.dictionaries(st.sampled_from(keys) | st.text(max_size=3), _json, max_size=2),
    ).map(lambda t: {**{k: v for k, v in t[0].items() if k not in t[1]}, **t[2]})


_param_values = {"q": st.floats(-3, 3), "s": st.floats(1.5, 6), "sigma": st.floats(0.1, 3),
                 "beta": st.floats(0, 0.9), "ell": st.floats(0.1, 3),
                 "center": st.integers(-5, 5)}
# each kind draws only its own keys, so accepted specs stay common; the
# mutations still set foreign keys
_potentials = _mutated(
    st.sampled_from(KINDS).flatmap(lambda kind: st.fixed_dictionaries(
        {"kind": st.just(kind)},
        optional={k: _param_values[k] for k in (*KIND_PARAMS[kind], "center")})),
    ("kind", *PARAMS),
)
_speeds = st.floats(1.5, 64) | st.integers(2, 64)
_valid_configs = st.fixed_dictionaries(
    {"potential": _potentials, "delta": st.floats(0.51, 0.6),
     "v": _speeds},
    optional={
        "x0_factor": st.floats(1, 4), "override_admissibility": st.booleans(),
        "out_dir": st.text(max_size=4),
    },
)
_NUMERIC_KEYS = ("delta", "v", "x0_factor")
_configs = _mutated(_valid_configs, (
    "potential", "delta", "velocities", "v", "x0_factor", "override_admissibility", "out_dir",
)) | st.fixed_dictionaries(
    {"potential": _potentials, "delta": st.floats(0.51, 0.6),
     "velocities": st.lists(_speeds, min_size=1, max_size=5) | _json})


def _outcome(reader, raw):
    try:
        return reader(raw)
    except ConfigError:
        return None


@settings(max_examples=300, deadline=None)
@given(_configs | _json)
def test_any_json_experiment_config(raw):
    # what json.load could have returned: strict JSON has no nan or infinity,
    # but Python's reader accepts them, so they stay in the input space
    cfg = _outcome(ExperimentConfig.from_dict, raw)
    if cfg is not None:
        assert 0.5 < cfg.delta < 1.0
        assert cfg.velocities and all(math.isfinite(v) and v > 1 for v in cfg.velocities)
        assert isinstance(cfg.override_admissibility, bool)
        # nothing was coerced: every numeric value read was a JSON number
        assert all(type(raw[k]) in (int, float) for k in _NUMERIC_KEYS if k in raw)
        assert math.isfinite(cfg.x0_factor)


@settings(max_examples=300, deadline=None)
@given(_potentials | _json)
def test_any_json_potential(raw):
    spec = _outcome(PotentialSpec.from_dict, raw)
    if spec is not None:
        assert all(type(v) in (int, float) for k, v in raw.items() if k != "kind")
        assert set(raw) <= {"kind", "center", *KIND_PARAMS[spec.kind]}
        echo = spec.to_dict()
        assert PotentialSpec.from_dict(json.loads(json.dumps(echo))).to_dict() == echo


# --- property: every run plan satisfies the resolution rules -------------------

_centers = st.integers(-5, 5)
_catalog = st.one_of(
    st.just(PotentialSpec("zero")),
    st.builds(lambda q, s, c: PotentialSpec("algebraic", q=q, s=s, center=c),
              st.floats(-3, 3), st.floats(2.5, 6), _centers),
    st.builds(lambda q, sigma, c: PotentialSpec("gaussian", q=q, sigma=sigma, center=c),
              st.floats(-3, 3), st.floats(0.05, 3), _centers),
    st.builds(lambda beta, c: PotentialSpec("sech2_scaled", beta=beta, center=c),
              st.floats(-2, 2), _centers),
    st.builds(lambda ell, c: PotentialSpec("poschl_teller", ell=ell, center=c),
              st.floats(0.1, 3), _centers),
)


@settings(max_examples=200, deadline=None)
@given(spec=_catalog, delta=st.floats(0.51, 0.7), v=st.floats(6, 64), x0_factor=st.floats(1, 3))
def test_every_plan_passes_the_step_rules(spec, delta, v, x0_factor):
    # plan_run and validate_step_rules read one owner per rule, so whatever
    # plan_run sizes, the run (under V, and its V = 0 floor) accepts on its
    # grid, which co-moves with the soliton
    try:
        config = ExperimentConfig(potential=spec, delta=delta, velocities=(v,),
                                  x0_factor=x0_factor)
        plan = plan_run(config, v)
    except ConfigError:  # a launch geometry the phase rules reject
        hypothesis.reject()
    validate_step_rules(plan.grid, plan.dt, plan.v, spec)
    validate_step_rules(plan.grid, plan.dt, plan.v, None)
