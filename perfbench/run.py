"""solitonlab benchmark: closed loop, one caller, in one process.

    python3 perfbench/run.py --workload {study,simulate,spectral} \
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seconds S      # table of every workload
    python3 perfbench/run.py --write-fingerprint             # regenerate the study reference

Run from the root of a source checkout; the program is imported from
``src/``. Operations call ``solitonlab.cli.main([...])`` back to back, in whole
rounds, until ``--seconds`` have passed. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics
with ``--trace 1``). See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import oracles
import workloads
from tracer import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
FINGERPRINT = HERE / "fingerprint_study.json"
SETUP_SAMPLES = 7
WORKLOADS = ("study", "simulate", "spectral")


def measure_setup(argv: list[str]) -> float:
    """Median wall time from starting a fresh interpreter until it has
    imported the program and parsed the first operation's command line and
    config (perfbench/setup_probe.py reports "ready" at that point)."""
    times = []
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), json.dumps(argv)]
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            _, err = proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.strip()}")
        times.append(elapsed)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Largest resident size of this process and of any waited-for child
    (pool workers, set-up probes); ru_maxrss is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


class Run:
    """Counts, timings and verdicts of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.by_label = {False: {}, True: {}}  # traced? -> op label -> latencies
        self.untraced_s = 0.0  # untraced operation time, failed operations included
        self.output_bytes = 0
        self.traced_ops = 0

    def op(self, cli, op, traced: bool, warmup: bool = False) -> None:
        """Run and check one operation; a warm-up operation is checked but
        neither counted nor timed."""
        shutil.rmtree(op.out, ignore_errors=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = perf_counter()
            rc = cli.main(op.argv)
            elapsed = perf_counter() - t0
        if rc != 0 and not (op.known_fault and rc == 1):
            self.problems.append(f"{op.label}: exit {rc}: {stderr.getvalue().strip()}")
        if not warmup:
            self.attempted += 1
            if traced:
                self.traced_ops += 1
                if op.out.is_dir():
                    self.output_bytes += dir_bytes(op.out)
            else:
                self.untraced_s += elapsed
            if rc != 0:
                self.failed += 1
            else:
                self.by_label[traced].setdefault(op.label, []).append(elapsed)
        if rc == 0:
            self.check(op)

    def check(self, op) -> None:
        try:
            fingerprint = op.check(op.out)
        except oracles.OracleError as exc:
            self.problems.append(f"{op.label}: {exc}")
            return
        if fingerprint is not None:
            report_fingerprint(fingerprint, self.problems)

    def latencies(self, traced: bool) -> list[float]:
        return [x for lat in self.by_label[traced].values() for x in lat]

    def tracing_ratio(self) -> float:
        """Median over operations of traced / untraced latency (each side the
        operation's median), so that slow and fast operations weigh alike."""
        off, on = self.by_label[False], self.by_label[True]
        return statistics.median(statistics.median(on[k]) / statistics.median(off[k])
                                 for k in on if k in off)


def report_fingerprint(fp: dict, problems: list[str]) -> None:
    for v, e, f in zip(fp["velocities"], fp["sup_error"], fp["floor"]):
        print(f"fingerprint v={v:g} sup_error={e:.12e} floor={f:.6e}")
    print(f"fingerprint slope={fp['slope']:.12f}")
    if not FINGERPRINT.is_file():
        problems.append(f"no reference fingerprint {FINGERPRINT.name}")
        return
    for msg in oracles.fingerprint_mismatches(fp, json.loads(FINGERPRINT.read_text())):
        problems.append(f"fingerprint: {msg}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = WORK / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = workloads.Workload(name, work, seed)
        setup_s = None if trace else measure_setup(wl.ops[0].argv)
        from solitonlab import cli

        tracer = Tracer() if trace else None
        run = Run()
        for op in wl.warmup():
            run.op(cli, op, traced=False, warmup=True)
        start = perf_counter()
        rounds = 0
        # with tracing, rounds alternate untraced / traced so that the
        # overhead is measured on the same operations in the same run
        while True:
            traced = trace and rounds % 2 == 1
            if traced:
                tracer.install()
            try:
                for op in wl.round():
                    run.op(cli, op, traced)
            finally:
                if traced:
                    tracer.remove()
            rounds += 1
            if perf_counter() - start >= seconds and (not trace or rounds >= 2):
                break
        if trace:
            tracer.write(WORK / f"trace-{name}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for msg in run.problems:
        print(f"FAIL {msg}")
    samples = len(run.latencies(False)) + len(run.latencies(True))
    print(f"{name}: seed {seed}, {rounds} rounds, {run.attempted} attempted, {run.failed} failed, "
          f"{samples} latency samples")
    if trace:
        figures = layer_metrics(tracer, run.traced_ops, run.output_bytes / run.traced_ops)
        figures["trace.overhead_pct"] = 100.0 * (run.tracing_ratio() - 1.0)
        wanted = spec["per_layer"]
    else:
        lat = run.by_label[False]
        if not lat:
            raise SystemExit(f"{name}: no operation completed")
        figures = {
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            # each operation's median, so one slow round moves no operation,
            # combined geometrically, so the mix of costs cannot make the
            # figure jump from one operation to the next as the median does
            "op_latency_s": statistics.geometric_mean(
                statistics.median(v) for v in lat.values()),
            "ops_per_s": len(run.latencies(False)) / run.untraced_s,
        }
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": figures[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<36} {figures[m['name']]:>16.6g} {m['unit']}")
    return {"correct": not run.problems, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def write_fingerprint() -> int:
    work = WORK / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        from solitonlab import cli

        op = workloads.Workload("study", work, 0).ops[0]
        if cli.main(op.argv) != 0:
            print("study failed; no fingerprint written", file=sys.stderr)
            return 1
        fp = op.check(op.out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    FINGERPRINT.write_text(json.dumps(fp, indent=1) + "\n")
    print(f"wrote {FINGERPRINT}")
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints one table and a JSON line."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':<36}" + "".join(f"{w:>16}" for w in WORKLOADS) + "  unit")
    for row in ("attempted", "failed", "correct"):
        print(f"{row:<36}" + "".join(f"{str(results[w][row]):>16}" for w in WORKLOADS))
    for m in names:
        unit = results[WORKLOADS[0]]["metrics"][m]["unit"]
        print(f"{m:<36}" + "".join(f"{results[w]['metrics'][m]['value']:>16.6g}"
                                   for w in WORKLOADS) + f"  {unit}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-fingerprint", action="store_true",
                   help="run one study and store its fingerprint as the reference")
    args = p.parse_args(argv)
    if not (SRC / "solitonlab" / "cli.py").is_file():
        print(f"error: no solitonlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_fingerprint:
        return write_fingerprint()
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
