"""The step schedule: propagation.schedule keeps its documented contract
for every horizon, step cap and cadence."""

import math

import pytest

from solitonlab.errors import ConfigError
from solitonlab.propagation import MAX_STEPS, schedule

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

#: relative roundoff allowed on a bound: ``schedule`` rounds k_obs and n_seg
#: with a 1e-12 guard, so a horizon within 1e-12 of a multiple of dt keeps
#: that multiple, and the step may exceed dt by as much
ROUNDOFF = 1e-11


def _check_contract(t_end, dt, cadence):
    k_obs, n_seg, step = schedule(t_end, dt, cadence)
    steps = n_seg * k_obs
    assert k_obs >= 1 and n_seg >= 1
    assert step <= dt * (1 + ROUNDOFF)
    assert abs(steps * step - t_end) <= 1e-14 * t_end
    c = min(cadence, t_end)
    if dt <= cadence:
        assert k_obs * step <= c * (1 + ROUNDOFF)
    else:
        # a cadence finer than the step: every step is observed
        assert k_obs == 1
    if cadence >= t_end:
        # the ends, and the midpoint unless dt divides t_end or exceeds it
        assert n_seg <= (1 if dt >= t_end else 2)
    assert steps < (t_end / dt + k_obs) * (1 + ROUNDOFF)
    return steps


# t_end / dt <= 1e5, so no plan here reaches MAX_STEPS
@settings(max_examples=500, deadline=None)
@given(t_end=st.floats(1e-3, 100.0), dt=st.floats(1e-3, 10.0), cadence=st.floats(1e-4, 1e3))
@example(t_end=1.0, dt=0.03, cadence=1.0)
@example(t_end=1.0, dt=0.01, cadence=10.0)
@example(t_end=0.2, dt=0.01, cadence=0.05)
@example(t_end=0.005, dt=0.01, cadence=0.01)
def test_schedule_keeps_its_contract(t_end, dt, cadence):
    _check_contract(t_end, dt, cadence)


def test_cadence_near_the_horizon_stays_under_the_bound():
    # the cadence reaches the horizon, so k_obs = 33 and the rounding takes
    # 2 segments of 33 steps where 34 steps of 1/34 would meet dt: a known
    # waste of up to k_obs steps. Only the documented bound is asserted,
    # 1/0.03 + 33 = 66.3 steps, so a schedule that wastes less still passes
    assert _check_contract(1.0, 0.03, 1.0) < 1.0 / 0.03 + 33


@pytest.mark.parametrize("t_end", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_bad_horizon_rejected(t_end):
    with pytest.raises(ConfigError, match="t_end"):
        schedule(t_end, 0.01, 0.1)


def test_max_steps_is_the_last_plan_allowed():
    k_obs, n_seg, step = schedule(0.5 * MAX_STEPS, 0.5, 0.5)
    assert (k_obs * n_seg, step) == (MAX_STEPS, 0.5)
    with pytest.raises(ConfigError, match="MAX_STEPS"):
        schedule(0.5 * (MAX_STEPS + 1), 0.5, 0.5)


@pytest.mark.parametrize("t_end, dt", [(2.0, 1e-6), (1e300, 0.01), (1.0, 1e-300)])
def test_plan_past_max_steps_rejected(t_end, dt):
    with pytest.raises(ConfigError, match="MAX_STEPS"):
        schedule(t_end, dt, 0.1)
