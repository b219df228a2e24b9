"""Set-up probe for the benchmark's ``setup_s``.

    python3 perfbench/setup_probe.py <src dir> '<json list: solitonlab argv>'

Starts from a fresh interpreter, imports the program, parses the command line
and the config it names, then prints "ready" and exits. The benchmark times
process start to that line.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])

from solitonlab import cli  # noqa: E402
from solitonlab.experiments import ExperimentConfig  # noqa: E402
from solitonlab.potentials import PotentialSpec  # noqa: E402

args = cli.build_parser().parse_args(json.loads(sys.argv[2]))
if getattr(args, "config", None):
    ExperimentConfig.from_dict(json.loads(Path(args.config).read_text()))
else:
    params = ("q", "s", "sigma", "beta", "ell", "center")
    PotentialSpec.from_dict({"kind": args.kind, **{k: getattr(args, k) for k in params
                                                   if getattr(args, k) is not None}})
print("ready", flush=True)
