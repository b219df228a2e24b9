"""Quick self-test of the benchmark oracles (about 5 s).

    python3 perfbench/selftest.py

Runs one tiny ``simulate`` and one tiny ``spectral`` through the program and
checks that the oracles accept the real outputs and reject deliberately
perturbed copies: a final field scaled by 1+1e-6, a reflection column with
its sign swapped, a non-decreasing study error list and a study fingerprint
moved by far more than its floor. Exits 0 when every verdict is as expected.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
from pathlib import Path

import numpy as np

import oracles
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench" / "selftest"


def verdict(check) -> str | None:
    """None when the check passes, else the oracle's message."""
    try:
        check()
    except oracles.OracleError as exc:
        return str(exc)
    return None


def run_cli(argv) -> None:
    from solitonlab import cli

    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([str(a) for a in argv])
    if rc != 0:
        raise SystemExit(f"selftest: solitonlab {argv[0]} exited {rc}")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    results = []

    def expect(label, message, should_fail):
        ok = (message is not None) == should_fail
        results.append(ok)
        state = "rejected" if message is not None else "accepted"
        print(f"{'ok  ' if ok else 'BAD '} {label}: {state}" + (f" ({message})" if message else ""))

    try:
        # simulate, v=4 on n=1024
        spec = {"kind": "algebraic", "q": 0.5, "s": 3.0}
        v, delta, x0_factor = 4.0, workloads.DELTA, workloads.X0_FACTOR
        x0 = -x0_factor * v ** (1.0 - delta)
        cfg = WORK / "sim.json"
        workloads.write_config(cfg, {"potential": spec, "delta": delta, "v": v,
                                      "x0_factor": x0_factor})
        sim = WORK / "sim"
        run_cli(["simulate", "--config", cfg, "--out", sim])
        expect("simulate output", verdict(lambda: oracles.check_run(sim, spec, v, x0)), False)
        field = sim / "final_field.bin"
        raw = bytearray(field.read_bytes())
        head = oracles.FIELD_HEADER.size
        data = np.frombuffer(bytes(raw[head:]), dtype="<f8") * (1.0 + 1e-6)
        field.write_bytes(bytes(raw[:head]) + data.astype("<f8").tobytes())
        expect("field scaled by 1+1e-6", verdict(lambda: oracles.check_run(sim, spec, v, x0)), True)

        # spectral, 8 large lambda on n=512
        lams = np.geomspace(15.0, 40.0, 8)
        spec_dir = WORK / "spec"
        run_cli(["spectral", "--kind", "algebraic", "--q", "0.5", "--s", "3", "--lambda-min", "15",
                 "--lambda-max", "40", "--lambda-points", "8", "--n", "512", "--out", spec_dir])
        check = lambda: oracles.check_spectral(spec_dir, spec, lams, 512, 60.0)  # noqa: E731
        expect("spectral output", verdict(check), False)
        csv = spec_dir / "coefficients.csv"
        lines = csv.read_text().splitlines()
        swapped = [lines[0]]
        for line in lines[1:]:
            cols = line.split(",")
            cols[3], cols[4] = (f"{-float(c):.17g}" for c in cols[3:5])
            swapped.append(",".join(cols))
        csv.write_text("\n".join(swapped) + "\n")
        expect("reflection sign swapped", verdict(check), True)

        # study criteria and fingerprint, on numbers only
        ref = {"velocities": [4.0, 8.0, 16.0, 32.0], "sup_error": [0.2, 0.16, 0.09, 0.04],
               "floor": [1e-5, 1e-6, 1e-7, 1e-8]}
        ref["slope"] = oracles.loglog_slope(ref["velocities"], ref["sup_error"])
        numbers = lambda errs: lambda: oracles.check_study_numbers(  # noqa: E731
            ref["velocities"], errs, ref["floor"], delta)
        expect("decreasing study errors", verdict(numbers(ref["sup_error"])), False)
        expect("non-decreasing study errors", verdict(numbers([0.2, 0.16, 0.16, 0.04])), True)

        def fingerprint(shift):
            errs = [e + shift * f for e, f in zip(ref["sup_error"], ref["floor"])]
            fp = dict(ref, sup_error=errs, slope=oracles.loglog_slope(ref["velocities"], errs))
            msgs = oracles.fingerprint_mismatches(fp, ref)
            return "; ".join(msgs) if msgs else None

        expect("fingerprint moved by 1 floor", fingerprint(1.0), False)
        expect("fingerprint moved by 100 floors", fingerprint(100.0), True)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"selftest: {sum(results)}/{len(results)} verdicts as expected")
    return 0 if all(results) else 1


if __name__ == "__main__":
    raise SystemExit(main())
