"""What a command loads at start-up, and what a deep well may allocate.

scipy is imported only by the tridiagonal bound-state solve, and the process
pool only by a study with jobs > 1, so a command on a barrier (V >= 0) starts
without either. Each check runs in a fresh interpreter, because the test
process has loaded both long before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import solitonlab
from solitonlab.cli import main

SRC = str(Path(solitonlab.__file__).resolve().parent.parent)

#: prints the sorted names of the loaded modules that start with any prefix in argv[1:]
_LOADED = ("import sys; print(json.dumps(sorted(m for m in sys.modules"
           " if m.startswith(tuple(sys.argv[1:])))))")


def _python(code: str, *args: str, limit_bytes: int | None = None) -> subprocess.CompletedProcess:
    preexec = None
    if limit_bytes is not None:
        def preexec():
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))
    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=300, preexec_fn=preexec)


def _loaded_after(code: str, *prefixes: str) -> list[str]:
    proc = _python(f"import json\n{code}\n{_LOADED}", *prefixes)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _config(path: Path, potential: dict) -> Path:
    path.write_text(json.dumps({"potential": potential, "delta": 0.6, "v": 8.0,
                                "x0_factor": 1.0}))
    return path


BARRIER = {"kind": "algebraic", "q": 0.5, "s": 3.0}
WELL = {"kind": "sech2_scaled", "beta": 0.5}


def test_parsing_a_config_loads_no_scipy_and_no_pool(tmp_path):
    # what perfbench/setup_probe.py times
    cfg = _config(tmp_path / "c.json", BARRIER)
    code = ("import pathlib\n"
            "from solitonlab import cli\n"
            "from solitonlab.experiments import ExperimentConfig\n"
            f"args = cli.build_parser().parse_args(['simulate', '--config', {str(cfg)!r}])\n"
            "ExperimentConfig.from_dict(json.loads(pathlib.Path(args.config).read_text()))")
    assert _loaded_after(code, "scipy", "concurrent.futures.process") == []


def test_barrier_run_loads_no_scipy(tmp_path):
    cfg = _config(tmp_path / "c.json", BARRIER)
    code = ("from solitonlab.cli import main\n"
            f"assert main(['simulate', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'o')!r}]) == 0")
    assert _loaded_after(code, "scipy") == []


def test_well_run_loads_scipy_and_writes_the_same_outputs(tmp_path):
    cfg = _config(tmp_path / "c.json", WELL)
    fresh = tmp_path / "fresh"
    code = ("from solitonlab.cli import main\n"
            f"assert main(['simulate', '--config', {str(cfg)!r}, '--out', {str(fresh)!r}]) == 0")
    assert "scipy.linalg" in _loaded_after(code, "scipy")
    here = tmp_path / "here"
    assert main(["simulate", "--config", str(cfg), "--out", str(here)]) == 0
    reports = [json.loads((out / "report.json").read_text()) for out in (fresh, here)]
    for report in reports:
        del report["timing"]
    assert reports[0] == reports[1]
    assert (fresh / "series.csv").read_bytes() == (here / "series.csv").read_bytes()


def test_deep_well_exits_1_in_bounded_memory(tmp_path):
    # 17570 bound states on the 32768-point admissibility domain: their
    # eigenvectors alone would take 4.29 GiB, and the Jost walk would need
    # 2.8e150 substeps per cell
    cfg = _config(tmp_path / "c.json", {"kind": "sech2_scaled", "beta": 1e300})
    code = ("import sys\nfrom solitonlab.cli import main\n"
            f"sys.exit(main(['simulate', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'o')!r}]))")
    proc = _python(code, limit_bytes=2 << 30)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error:") and "substeps per cell" in proc.stderr
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["status"] == "rejected"

