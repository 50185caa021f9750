#!/usr/bin/env python3
"""Print a sha256 digest of every file that ``crossdiff run`` writes, for a
fixed list of configurations.

Each configuration runs in its own directory under a temporary root; the
script prints one ``exit <code>  <name>`` line per configuration and one
``<sha256>  <name>/<file>`` line per output file.  Two checkouts whose
printouts are equal write byte-identical outputs for these configurations,
which is how an output-preserving change is checked:

    python benchmarks/output_digest.py [NAME ...]

With names, only those configurations run.  The package is imported from
the checkout that holds this script.
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from crossdiff import cli  # noqa: E402

#: name -> ``crossdiff run`` arguments (without ``--out``)
CONFIGS = {
    "readme": "--muskat-R 1 --muskat-mu 1 --cells 64 --tau 1e-3 --t-final 1 --tol 1e-12",
    "regularized": "--cells 24 --tau 1e-3 --t-final 3e-2 --tol 1e-12 --eps 1e-3 --rho 1e3",
    "arithmetic": "--cells 32 --tau 1e-3 --t-final 2e-2 --tol 1e-12 --mobility-face arithmetic",
    # 22 steps: the final snapshot is not one of the every-5 snapshots
    "step-snapshots": "--ic step --cells 32 --tau 1e-3 --t-final 2.2e-2 --tol 1e-10 "
                      "--snapshot-every 5",
    # the 2D regularized Jacobian and the rho cap check
    "regularized-2d": "--dimension 2 --cells 10 --tau 1e-3 --t-final 1e-2 --tol 1e-11 "
                      "--eps 1e-3 --rho 1e3",
    "square-12": "--dimension 2 --cells 12 --tau 1e-3 --t-final 1e-2 --tol 1e-11",
    # step 1 needs 5 updates, each on a fresh Jacobian, and is the hardest
    # step of the run: 4 iterations fail at step 1 (residual 5e-7), exit 3
    "nonconverging": "--cells 64 --tau 2e-2 --t-final 0.4 --tol 1e-13 --ic-amp 1.0 "
                     "--max-iters 4",
    # 3 iterations fail at step 1 with tau = 2e-2, 1e-2 and 5e-3; the third
    # retry, tau = 2.5e-3, runs all 160 steps
    "tau-retries": "--cells 64 --tau 2e-2 --t-final 0.4 --tol 1e-13 --ic-amp 0.9 "
                   "--max-iters 3 --tau-retries 4 --snapshot-every 20",
}


def digest(names) -> list[str]:
    lines = []
    with tempfile.TemporaryDirectory() as root:
        for name in names:
            out = Path(root) / name
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["run", *CONFIGS[name].split(), "--out", str(out)])
            lines.append(f"exit {code}  {name}")
            for path in sorted(out.iterdir()):
                sha = hashlib.sha256(path.read_bytes()).hexdigest()
                lines.append(f"{sha}  {name}/{path.name}")
    return lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"configurations to run (default: all of {', '.join(CONFIGS)})")
    args = parser.parse_args()
    unknown = sorted(set(args.names) - set(CONFIGS))
    if unknown:
        parser.error(f"unknown configuration {', '.join(unknown)}")
    print("\n".join(digest(args.names or list(CONFIGS))))
