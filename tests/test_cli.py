"""Command-line behaviour: exit codes, file outputs, manifests, determinism."""

import json
import math
import time
import warnings

import numpy as np
import pytest

from solitonlab import cli, scattering
from solitonlab.cli import _potential_from_args, build_parser, main
from solitonlab.errors import ConfigError, InvalidRunError
from solitonlab.experiments import ExperimentConfig, _admissibility_gate
from solitonlab.grid import make_grid
from solitonlab.potentials import KIND_PARAMS, KINDS, PARAMS, PotentialSpec, sample_potential
from solitonlab.propagation import MAX_STEPS, SolitonParams, soliton, suggested_dt
from solitonlab.reporting import config_hash


def write_config(path, **overrides):
    config = {
        "potential": {"kind": "algebraic", "q": 0.5, "s": 3.0},
        "delta": 0.6,
        "v": 8.0,
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return path


class TestSimulate:
    def test_valid_run(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "series.csv").read_text().strip().splitlines()
        assert rows[0] == "t,err_l2,mass,energy,a_abs,edge_mass"
        assert len(rows) >= 3
        # V > 0 has no bound state, so there is no mode amplitude to track
        assert np.all(np.loadtxt(out / "series.csv", delimiter=",", skiprows=1)[:, 4] == 0.0)
        report = json.loads((out / "report.json").read_text())
        assert report["valid"] is True
        assert report["sup_error"] > 0
        assert "wall_s" not in report
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        assert manifest["flags"]["wall_s"] > 0
        listed = {p.split("/")[-1] for p in manifest["outputs"]}
        produced = {p.name for p in out.iterdir()}
        assert produced <= listed | {"manifest.json"} and "series.csv" in listed
        assert (out / "final_field.bin").exists()
        assert (out / "summary.svg").read_text().startswith("<svg")

    def test_report_states_the_step_taken(self, tmp_path):
        # at v = 8 the observer cadence t_end/800 is finer than the step, so
        # every step is observed and the series is spaced by the step taken
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        dt, steps = report["dt"], report["steps"]
        assert isinstance(steps, int) and steps > 0
        assert dt * steps == pytest.approx(report["t_end"], rel=1e-12, abs=0)
        assert dt <= suggested_dt(8.0, PotentialSpec("algebraic", q=0.5, s=3.0))
        times = np.loadtxt(out / "series.csv", delimiter=",", skiprows=1)[:, 0]
        assert times.size == steps + 1
        assert np.allclose(np.diff(times), dt, rtol=1e-12, atol=0)

    def test_report_times_the_step_loop(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        timing = report["timing"]
        assert set(timing) == {"loop_s", "observe_s", "steps_per_s", "n", "dt", "transforms",
                               "admissibility_s"}
        assert timing["n"] == report["grid"]["n"] and timing["dt"] == report["dt"]
        assert timing["loop_s"] > 0 and timing["admissibility_s"] > 0
        assert 0 < timing["observe_s"] < timing["loop_s"]
        assert timing["steps_per_s"] == pytest.approx(report["steps"] / timing["loop_s"])
        # every step is observed at v = 8: one forward transform, then 3 a step
        assert timing["transforms"] == 1 + 3 * report["steps"]
        # telemetry stays out of the config and so out of its hash
        manifest = json.loads((out / "manifest.json").read_text())
        assert "timing" not in json.dumps(manifest["config"])

    def test_bound_mode_amplitude(self, tmp_path):
        spec = {"kind": "sech2_scaled", "beta": 0.5}
        cfg = write_config(tmp_path / "c.json", potential=spec)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        series = np.loadtxt(out / "series.csv", delimiter=",", skiprows=1)
        a_abs, t_end = series[:, 4], series[-1, 0]
        report = json.loads((out / "report.json").read_text())
        # the report's grid is that of final_field.bin at t_end; the run's
        # grid co-moves at v = 8, so at t = 0 it lay 8 t_end to the left
        g = report["grid"]
        grid = make_grid(g["x_min"] - 8.0 * t_end, g["x_max"] - 8.0 * t_end, g["n"])
        (state,) = scattering.bound_states(sample_potential(PotentialSpec.from_dict(spec), grid))
        u0 = soliton(SolitonParams(v=8.0, x0=report["x0"]), 0.0, grid).values
        expected = abs(grid.dx * np.sum(u0 * np.conj(state.field.values)))
        assert expected > 0.0
        assert abs(a_abs[0] - expected) <= 1e-12

    def test_delta_out_of_range_exits_1(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", delta=0.4)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_dt_over_cap_exits_1(self, tmp_path, capsys):
        # the dt rule is the only owner of dt: a config cannot set one
        cfg = write_config(tmp_path / "c.json", dt=0.05)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "unknown config keys: ['dt']" in capsys.readouterr().err

    def test_inadmissible_without_override_exits_1(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", potential={"kind": "sech2_scaled", "beta": 1.0})
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "rejected"
        assert "not admissible" in manifest["flags"]["error"]
        assert manifest["finished_utc"] is not None

    def test_huge_velocity_is_rejected(self, tmp_path, capsys):
        # the grid's point count overflows to inf before its log is taken
        cfg = write_config(tmp_path / "c.json", v=1e160)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "unreasonably large" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "rejected"

    @pytest.mark.parametrize("beta", [1e6, 1e300])
    def test_deep_well_step_count_exits_1_at_once(self, tmp_path, capsys, beta):
        # dt = 0.1/(beta + 1 + 2v/ell) plans 8.3e6 steps at beta = 1e6, and
        # 8.3e300 at beta = 1e300; the override skips the admissibility gate
        cfg = write_config(tmp_path / "c.json", potential={"kind": "sech2_scaled", "beta": beta},
                           override_admissibility=True)
        out = tmp_path / "o"
        start = time.perf_counter()
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert time.perf_counter() - start < 10.0
        assert f"more than {MAX_STEPS}" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "rejected"

    def test_underflowing_gaussian_width_exits_1(self, tmp_path, capsys):
        # sigma**2 == 0 would make V(center) = 0/0
        cfg = write_config(tmp_path / "c.json", potential={"kind": "gaussian", "q": 1,
                                                           "sigma": 1e-200})
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("center", [1e300, 1e15])
    def test_far_center_exits_1(self, tmp_path, capsys, center):
        # at 1e300 the domain's width rounds to 0; at 1e15 floats are 0.125
        # apart, about the run's dx
        cfg = write_config(tmp_path / "c.json",
                           potential={"kind": "algebraic", "q": 0.5, "s": 3.0, "center": center})
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "cannot be resolved" in capsys.readouterr().err
        assert json.loads((out / "manifest.json").read_text())["status"] == "rejected"

    def test_delta_stand_in_runs_without_override(self, tmp_path):
        # the narrow gaussian's decay-fit window underflows; it is admissible
        cfg = write_config(tmp_path / "c.json", potential={"kind": "gaussian", "q": 1.0,
                                                           "sigma": 0.05}, delta=0.9, v=32.0)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["valid"] is True
        assert report["admissibility_overridden"] is False

    def test_override_must_be_a_bool(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", potential={"kind": "sech2_scaled", "beta": 1.0},
                           override_admissibility="no")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "override_admissibility" in capsys.readouterr().err

    def test_kmax_factor_is_not_a_key(self, tmp_path, capsys):
        # the k rule has one owner, propagation.required_kmax
        cfg = write_config(tmp_path / "c.json", kmax_factor=4.0)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "unknown config keys: ['kmax_factor']" in capsys.readouterr().err

    def test_edge_mass_tol_is_not_a_key(self, tmp_path, capsys):
        # the validity gate is propagation.EDGE_MASS_TOL
        cfg = write_config(tmp_path / "c.json", edge_mass_tol=0.0)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "unknown config keys: ['edge_mass_tol']" in capsys.readouterr().err

    def test_explicit_zero_dt_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", dt=0)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "unknown config keys: ['dt']" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("x0", -6.0), ("dt_safety", 2.0), ("margin", 10.0), ("obs_points", 800), ("mu", 0.9),
    ])
    def test_removed_key_exits_1(self, tmp_path, capsys, key, value):
        # x0_factor and the run rules set these, and the soliton has mu = 1;
        # dt is covered by the two tests above
        cfg = write_config(tmp_path / "c.json", **{key: value})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err

    def test_unworkable_geometry_exits_4(self, tmp_path, monkeypatch):
        # the run rules size every domain to hold the soliton, so no config
        # reaches this; the InvalidRunError a soliton tail at the domain edge
        # raises must still exit 4 with the manifest status "invalid"
        def tail_at_edge(config, v):
            raise InvalidRunError("soliton tail 3.38e-12 exceeds 1e-12 at the domain edge")

        monkeypatch.setattr(cli, "transmission_run", tail_at_edge)
        cfg = write_config(tmp_path / "c.json")
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 4
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "invalid"
        assert "soliton tail" in manifest["flags"]["error"]

    @pytest.mark.slow
    def test_fast_run_stays_clear_of_the_edges(self, tmp_path):
        # a fixed 30-unit clearance put 1.8e-8 of the mass in the edge
        # windows at v = 128; the derived clearance keeps the run valid
        cfg = write_config(tmp_path / "c.json", v=128.0)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["valid"] is True
        assert np.loadtxt(out / "series.csv", delimiter=",", skiprows=1)[:, 5].max() <= 1e-10

    def test_bad_json_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1

    def test_missing_file_exits_1(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "none.json")]) == 1

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path / "c.json")
        target = tmp_path / "envout"
        monkeypatch.setenv("SOLITONLAB_OUT_DIR", str(target))
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert (target / "series.csv").exists()

    def test_out_is_an_existing_file_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["simulate", "--config", str(cfg), "--out", str(taken)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot use output directory")

    def test_single_entry_velocity_list(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "potential": {"kind": "algebraic", "q": 0.5, "s": 3.0},
            "delta": 0.6,
            "velocities": [8.0],
        }))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_multi_velocity_list_without_v_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "potential": {"kind": "algebraic", "q": 0.5, "s": 3.0},
            "delta": 0.6,
            "velocities": [8.0, 16.0],
        }))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


class TestSpectral:
    def test_resonant_well(self, tmp_path):
        out = tmp_path / "spec"
        code = main(
            ["spectral", "--kind", "sech2_scaled", "--beta", "1.0",
             "--lambda-min", "0.5", "--lambda-max", "10", "--lambda-points", "6",
             "--out", str(out)]
        )
        assert code == 0
        payload = json.loads((out / "spectral_report.json").read_text())
        assert payload["resonance"]["detected"] is True
        assert len(payload["bound_state_energies"]) == 1
        assert payload["bound_state_energies"][0] == pytest.approx(-0.5, abs=1e-3)
        assert payload["admissibility"]["admissible"] is False
        rows = (out / "coefficients.csv").read_text().strip().splitlines()
        assert rows[0] == "lambda,re_T,im_T,re_R,im_R,unitarity_defect"
        assert len(rows) == 7
        worst = max(abs(float(r.split(",")[5])) for r in rows[1:])
        assert worst <= 1e-6

    def test_manifest_times_table_and_admissibility(self, tmp_path):
        out = tmp_path / "spec"
        assert main(["spectral", "--kind", "gaussian", "--q", "2", "--sigma", "1",
                     "--lambda-points", "4", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["flags"]["table_s"] > 0 and manifest["flags"]["admissibility_s"] > 0
        # telemetry stays out of the config, its hash and the report
        assert not {"table_s", "admissibility_s"} & set(manifest["config"])
        assert manifest["config_hash"] == config_hash(manifest["config"])
        payload = (out / "spectral_report.json").read_text()
        assert "table_s" not in payload and "admissibility_s" not in payload

    def test_manifest_counts_table_substeps(self, tmp_path):
        # the table's substeps per cell summed over lam: one per lam for V = 0,
        # the capped rule's count otherwise; the report keeps its shape
        flags = ["--lambda-points", "6", "--lambda-max", "40"]
        assert main(["spectral", "--kind", "zero", *flags, "--out", str(tmp_path / "z")]) == 0
        manifest = json.loads((tmp_path / "z" / "manifest.json").read_text())
        assert manifest["flags"]["table_substeps"] == 6
        out = tmp_path / "g"
        assert main(["spectral", "--kind", "gaussian", "--q", "2", "--sigma", "1", *flags,
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        spec, grid = PotentialSpec("gaussian", q=2.0, sigma=1.0), make_grid(-60.0, 60.0, 2048)
        lams = [float(row.split(",")[0])
                for row in (out / "coefficients.csv").read_text().splitlines()[1:]]
        assert manifest["flags"]["table_substeps"] == sum(
            scattering._substeps(grid, lam, spec) for lam in lams)
        assert "table_substeps" not in (out / "spectral_report.json").read_text()

    def test_zero_kind(self, tmp_path):
        out = tmp_path / "spec0"
        assert main(["spectral", "--kind", "zero", "--lambda-points", "4", "--out", str(out)]) == 0
        payload = json.loads((out / "spectral_report.json").read_text())
        assert payload["resonance"]["detected"] is True
        assert payload["bound_state_energies"] == []

    def test_one_probe_per_call(self, tmp_path, monkeypatch):
        calls = {"bound_states": 0, "detect_resonance": 0}
        for name in calls:
            real = getattr(scattering, name)

            def counted(*a, _real=real, _name=name, **k):
                calls[_name] += 1
                return _real(*a, **k)

            monkeypatch.setattr(scattering, name, counted)
        out = tmp_path / "spec1"
        assert main(["spectral", "--kind", "sech2_scaled", "--beta", "0.5",
                     "--lambda-points", "4", "--out", str(out)]) == 0
        assert calls == {"bound_states": 1, "detect_resonance": 1}
        payload = json.loads((out / "spectral_report.json").read_text())
        assert payload["admissibility"]["bound_state_energies"] == payload["bound_state_energies"]
        assert payload["admissibility"]["wronskian_at_zero_abs"] == payload["resonance"]["w0_abs"]

    @pytest.mark.parametrize("flags", [
        ["--lambda-points", "0"],
        ["--lambda-points", "-3"],
        ["--lambda-min", "0"],
    ])
    def test_bad_lambda_table_exits_1(self, tmp_path, capsys, flags):
        out = tmp_path / "specbad"
        assert main(["spectral", "--kind", "zero", *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("flags, named", [
        (["--lambda-max", "inf"], "--lambda-max"),
        (["--lambda-min", "nan"], "--lambda-min"),
        (["--linear", "--lambda-min=-inf"], "--lambda-min"),
        (["--linear", "--lambda-max", "nan"], "--lambda-max"),
    ])
    def test_non_finite_lambda_bound_exits_1(self, tmp_path, capsys, flags, named):
        out = tmp_path / "specinf"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["spectral", "--kind", "zero", *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named} must be finite")
        assert not out.exists()

    @pytest.mark.parametrize("flags, named", [
        (["--lambda-points", "1000000000000"], "table budget"),
        (["--n", "4096", "--lambda-points", "1025"], "table budget"),
        (["--n", str(1 << 23)], "power of two"),
        (["--n", str(1 << 34), "--half-width", "60"], "power of two"),
    ])
    def test_oversized_table_exits_1_before_allocating(self, tmp_path, capsys, flags, named):
        # only sizes rejected before anything of their size is allocated
        assert 50 * 2048 <= scattering.MAX_TABLE_NODES  # the CLI default table
        out = tmp_path / "specbig"
        assert main(["spectral", "--kind", "algebraic", "--q", "0.5", "--s", "3", *flags,
                     "--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_underflowing_gaussian_width_exits_1(self, tmp_path, capsys):
        out = tmp_path / "spec"
        assert main(["spectral", "--kind", "gaussian", "--q", "1", "--sigma", "1e-200",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert main(["potential-report", "--kind", "gaussian", "--q", "1", "--sigma", "1e-200",
                     "--out", str(tmp_path / "pot")]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_overflowing_barrier_exits_3_without_warnings(self, tmp_path, capsys):
        # the Jost walk under q = 1e5 overflows at every lambda
        out = tmp_path / "spec"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["spectral", "--kind", "gaussian", "--q", "1e5", "--sigma", "1",
                         "--lambda-points", "2", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "non-finite" in err
        assert "RuntimeWarning" not in err

    def test_algebraic_admissible(self, tmp_path):
        out = tmp_path / "speca"
        code = main(
            ["spectral", "--kind", "algebraic", "--q", "0.5", "--s", "3",
             "--lambda-points", "4", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads((out / "spectral_report.json").read_text())
        assert payload["admissibility"]["admissible"] is True

    def test_table_wider_than_the_admissibility_domain(self, tmp_path):
        # the table's edges pass at |x| = 4096; admissibility stops at its
        # widest domain, where |V| is still over the edge tolerance
        out = tmp_path / "wide"
        assert main(["spectral", "--kind", "algebraic", "--q", "2", "--s", "1.2",
                     "--half-width", "4096", "--n", "4096", "--lambda-min", "1",
                     "--lambda-max", "1", "--lambda-points", "1", "--out", str(out)]) == 0
        payload = json.loads((out / "spectral_report.json").read_text())
        assert payload["resonance"] is None
        assert payload["admissibility"]["conclusive"] is False


#: a value of each potential parameter that every kind reading it runs with
OWN_VALUES = {"q": 0.5, "s": 3.0, "sigma": 1.0, "beta": 0.5, "ell": 2.0, "center": 1.0}
FOREIGN = [(kind, key) for kind in KINDS for key in PARAMS
           if key not in (*KIND_PARAMS[kind], "center")]


@pytest.mark.parametrize("kind", KINDS)
def test_kind_flag_accepts_every_catalog_kind(kind, tmp_path):
    own = {key: OWN_VALUES[key] for key in (*KIND_PARAMS[kind], "center")}
    flags = ["--kind", kind, *(f"--{key}={value:g}" for key, value in own.items())]
    args = build_parser().parse_args(["potential-report", *flags])
    assert _potential_from_args(args) == PotentialSpec(kind, **own)
    assert main(["potential-report", *flags, "--out", str(tmp_path / "pot")]) == 0


@pytest.mark.parametrize("kind, key", FOREIGN)
def test_foreign_potential_parameter_exits_1(kind, key, tmp_path, capsys):
    # a parameter the kind does not read would be dropped from the run but
    # kept in the manifest; it is rejected on both input surfaces
    spec = {"kind": kind, **{k: OWN_VALUES[k] for k in KIND_PARAMS[kind]}, key: OWN_VALUES[key]}
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"potential": spec, "delta": 0.6, "v": 8.0})
    cfg = write_config(tmp_path / "c.json", potential=spec)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"potential kind {kind!r}" in err and f"foreign keys: [{key!r}]" in err
    pot = tmp_path / "pot"
    assert main(["potential-report", "--kind", kind, f"--{key}", "0.5", "--out", str(pot)]) == 1
    assert not pot.exists()


class TestPotentialReport:
    def test_writes_json(self, tmp_path, capsys):
        out = tmp_path / "pot"
        code = main(
            ["potential-report", "--kind", "gaussian", "--q", "2.0", "--sigma", "1.0",
             "--out", str(out)]
        )
        assert code == 0
        d = json.loads((out / "admissibility.json").read_text())
        assert d["resonance_detected"] is False
        assert d["decay_super_algebraic"] is True
        assert d["admissible"] is True
        assert d["domain"] == {"x_min": -40.0, "x_max": 40.0, "n": 2048}

    def test_slow_decay_judged_on_its_own_domain(self, tmp_path):
        # |V(40)| = 4.9e-4 is over the edge tolerance; the domain doubles
        out = tmp_path / "pot"
        assert main(["potential-report", "--kind", "algebraic", "--q", "5", "--s", "2.5",
                     "--out", str(out)]) == 0
        d = json.loads((out / "admissibility.json").read_text())
        assert d["admissible"] is True and d["conclusive"] is True
        assert d["domain"] == {"x_min": -80.0, "x_max": 80.0, "n": 4096}

    def test_stdout_is_the_file_as_strict_json(self, tmp_path, capsys):
        # inconclusive: the Wronskian at zero is never computed (NaN -> null)
        out = tmp_path / "pot"
        assert main(["potential-report", "--kind", "algebraic", "--q", "2", "--s", "1.2",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert text == (out / "admissibility.json").read_text()

        def reject(constant):
            raise ValueError(f"non-strict JSON constant {constant}")

        d = json.loads(text, parse_constant=reject)
        assert d["conclusive"] is False and d["wronskian_at_zero_abs"] is None

    def test_env_out_dir_under_a_file_exits_1(self, tmp_path, monkeypatch, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        monkeypatch.setenv("SOLITONLAB_OUT_DIR", str(taken / "sub"))
        assert main(["potential-report", "--kind", "gaussian", "--q", "2", "--sigma", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: cannot use output directory")

    def test_tiny_gaussian_width_warns_nothing(self, tmp_path):
        # sigma**2 = 1e-320 is subnormal: y*y/(2 sigma**2) overflows to inf
        # and exp(-inf) = 0 is exact
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["potential-report", "--kind", "gaussian", "--q", "1",
                         "--sigma", "1e-160", "--out", str(tmp_path / "pot")]) == 0

    def test_no_grid_flags(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["potential-report", "--kind", "gaussian", "--half-width", "40",
                  "--out", str(tmp_path / "pot")])
        assert info.value.code == 2

    def test_spectral_and_the_run_gate_report_the_same_verdict(self, tmp_path):
        # the T/R table's --half-width sizes only the table
        flags = ["--kind", "sech2_scaled", "--beta", "0.5"]
        assert main(["potential-report", *flags, "--out", str(tmp_path / "pot")]) == 0
        assert main(["spectral", *flags, "--half-width", "60", "--lambda-points", "2",
                     "--out", str(tmp_path / "spec")]) == 0
        alone = json.loads((tmp_path / "pot" / "admissibility.json").read_text())
        spectral = json.loads((tmp_path / "spec" / "spectral_report.json").read_text())
        gate = _admissibility_gate(ExperimentConfig(
            potential=PotentialSpec("sech2_scaled", beta=0.5), delta=0.6, velocities=(8.0,)))
        assert spectral["admissibility"] == alone == json.loads(json.dumps(gate.to_dict()))


class TestStudy:
    def _study_config(self, path, **overrides):
        # delta near the top of the admissible window keeps the horizons
        # (1-delta) log v short, so this integration test stays quick
        config = {
            "potential": {"kind": "algebraic", "q": 0.5, "s": 3.0},
            "delta": 0.74,
            "velocities": [8.0, 16.0, 32.0, 64.0],
        }
        config.update(overrides)
        path.write_text(json.dumps(config))
        return path

    def test_single_velocity_exits_1(self, tmp_path):
        cfg = self._study_config(tmp_path / "c.json", velocities=[8.0])
        assert main(["study", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_inadmissible_exits_1(self, tmp_path):
        cfg = self._study_config(
            tmp_path / "c.json", potential={"kind": "sech2_scaled", "beta": 1.0}, delta=0.7
        )
        out = tmp_path / "o"
        assert main(["study", "--config", str(cfg), "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "rejected"
        assert not (out / "runs").exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_exits_1(self, tmp_path, capsys, jobs):
        cfg = self._study_config(tmp_path / "c.json")
        out = tmp_path / "o"
        assert main(["study", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (out / "runs").exists()

    def test_horizon_before_crossing_exits_1(self, tmp_path):
        # at the default x0_factor = 2, v = 4 would be measured before it
        # meets the potential; the study is rejected before any run
        cfg = self._study_config(tmp_path / "c.json", delta=0.6, velocities=[4.0, 8.0, 16.0, 32.0])
        out = tmp_path / "o"
        assert main(["study", "--config", str(cfg), "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "rejected"
        assert "before the crossing" in manifest["flags"]["error"]
        assert not (out / "runs").exists()

    def test_huge_velocities_are_rejected(self, tmp_path):
        cfg = self._study_config(tmp_path / "c.json", delta=0.6,
                                 velocities=[1e160, 2e160, 4e160, 8e160])
        out = tmp_path / "o"
        assert main(["study", "--config", str(cfg), "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "rejected"
        assert "unreasonably large" in manifest["flags"]["error"]

    def test_repeated_velocity_exits_1(self, tmp_path, capsys):
        cfg = self._study_config(tmp_path / "c.json", delta=0.6, x0_factor=1.0,
                                 velocities=[4.0, 4.0, 8.0, 32.0])
        out = tmp_path / "o"
        assert main(["study", "--config", str(cfg), "--out", str(out), "--jobs", "2"]) == 1
        assert "repeated: 4" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "rejected"
        assert not (out / "runs").exists()

    @pytest.mark.slow
    def test_small_study_passes(self, tmp_path):
        cfg = self._study_config(tmp_path / "c.json")
        out = tmp_path / "study"
        assert main(["study", "--config", str(cfg), "--out", str(out)]) == 0
        study = json.loads((out / "study.json").read_text())
        assert study["pass"] is True
        assert study["slope"] <= study["slope_limit"]
        assert len(study["per_v_error"]) == 4
        for v in study["velocities"]:
            flags = json.loads((out / "runs" / f"v{v:g}" / "manifest.json").read_text())["flags"]
            assert flags["wall_s"] > 0 and flags["floor_wall_s"] > 0
        rows = (out / "scaling.csv").read_text().strip().splitlines()
        assert rows[0] == "log_v,log_err"
        lv, le = map(float, rows[1].split(","))
        assert lv == pytest.approx(math.log(8.0), abs=1e-12)
        assert le == pytest.approx(math.log(study["per_v_error"][0]), abs=1e-12)
        for v in (8, 16, 32, 64):
            run_dir = out / "runs" / f"v{v}"
            assert (run_dir / "series.csv").exists()
            assert (run_dir / "floor_series.csv").exists()
            assert (run_dir / "report.json").exists()
        assert (out / "scaling.svg").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        assert manifest["flags"]["passed"] is True


@pytest.fixture(scope="module")
def benchmark_study(tmp_path_factory):
    """Output directory of the benchmark's study (v = 4..32, x0_factor 1)."""
    work = tmp_path_factory.mktemp("study")
    cfg = work / "c.json"
    cfg.write_text(json.dumps({"potential": {"kind": "algebraic", "q": 0.5, "s": 3.0},
                               "delta": 0.6, "velocities": [16.0, 4.0, 32.0, 8.0],
                               "x0_factor": 1.0}))
    out = work / "study"
    assert main(["study", "--config", str(cfg), "--out", str(out), "--jobs", "2"]) == 0
    return out


def test_each_velocity_manifest_holds_its_simulate_config(benchmark_study):
    for v in (4.0, 8.0, 16.0, 32.0):
        manifest = json.loads((benchmark_study / "runs" / f"v{v:g}" / "manifest.json").read_text())
        assert ExperimentConfig.from_dict(manifest["config"]).velocities == (v,)


def test_study_manifest_times_the_admissibility_gate(benchmark_study):
    manifest = json.loads((benchmark_study / "manifest.json").read_text())
    assert manifest["flags"]["admissibility_s"] > 0
    assert "admissibility_s" not in manifest["config"]
    assert "admissibility_s" not in json.loads((benchmark_study / "study.json").read_text())


def test_study_runs_report_the_shared_admissibility_gate(benchmark_study):
    gate_s = json.loads((benchmark_study / "manifest.json").read_text())["flags"]["admissibility_s"]
    for v in (4, 8, 16, 32):
        report = json.loads((benchmark_study / "runs" / f"v{v}" / "report.json").read_text())
        assert report["timing"]["admissibility_s"] == gate_s


def test_csv_lines_end_in_lf(tmp_path, benchmark_study):
    cfg = write_config(tmp_path / "c.json")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
    assert main(["spectral", "--kind", "gaussian", "--q", "2", "--sigma", "1",
                 "--lambda-points", "4", "--out", str(tmp_path / "spec")]) == 0
    paths = [*tmp_path.rglob("*.csv"), *benchmark_study.rglob("*.csv")]
    names = {p.name for p in paths}
    assert names == {"series.csv", "coefficients.csv", "floor_series.csv", "scaling.csv"}
    for path in paths:
        assert b"\r" not in path.read_bytes(), path


class TestCheck:
    @pytest.mark.slow
    def test_passes_and_deterministic(self, tmp_path, capsys):
        assert main(["check"]) == 0
        first = capsys.readouterr().out
        assert main(["check"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "overall" in first and "FAIL" not in first

    @pytest.mark.slow
    def test_report_files(self, tmp_path, capsys):
        out = tmp_path / "check"
        assert main(["check", "--out", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads((out / "check_report.json").read_text())
        assert payload["passed"] is True
        assert len(payload["checks"]) >= 10


class TestManifestHash:
    def test_key_order_invariant(self):
        a = {"potential": {"kind": "algebraic", "q": 0.5, "s": 3.0}, "delta": 0.6, "v": 8.0}
        b = {"v": 8.0, "delta": 0.6, "potential": {"s": 3.0, "q": 0.5, "kind": "algebraic"}}
        assert config_hash(a) == config_hash(b)

    def test_value_change_changes_hash(self):
        a = {"delta": 0.6, "v": 8.0}
        b = {"delta": 0.6, "v": 16.0}
        assert config_hash(a) != config_hash(b)
