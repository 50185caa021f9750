#!/usr/bin/env python3
"""Print a sha256 digest of every file that ``crossdiff run``, ``limits`` and
``sweep`` write, and of what ``verify``, ``limits`` and ``sweep`` print, for
a fixed list of configurations.

Each configuration that writes files runs in its own directory under a
temporary root; the script prints one ``exit <code>  <name>`` line per
configuration and one ``<sha256>  <name>/<file>`` line per output file
(``<name>/run_000/<file>`` for a sweep member, ``<name>/stdout`` for what
the command printed).  Two checkouts whose printouts are equal
write byte-identical outputs for these configurations, which is how an
output-preserving change is checked:

    python benchmarks/output_digest.py [NAME ...]

With names, only those configurations run.  The package is imported from
the checkout that holds this script, or with ``--src DIR`` from the ``src``
directory of another checkout, so that one copy of the script, with one list
of configurations, digests both sides of a change:

    python benchmarks/output_digest.py --src ../parent/src [NAME ...]

With ``--keep DIR`` the outputs stay in the new directory ``DIR`` instead of
a deleted temporary one, each configuration's in ``DIR/<name>`` and what a
command printed in ``DIR/<name>/stdout``; ``csv_delta.py`` compares two such
directories.
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

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
    # 2D arithmetic faces on a regularized run whose values enter the cap
    # ramp (1, 2): half of the 200 final values lie in it
    "arithmetic-capped-2d": "--dimension 2 --cells 10 --tau 1e-3 --t-final 1e-2 --tol 1e-11 "
                            "--mobility-face arithmetic --eps 1e-2 --rho 2",
    # upwind faces on regularized runs whose values enter the cap ramp (1, 2),
    # so that the upwind weight times the ramp's derivative -1 is digested
    "capped-1d": "--cells 24 --tau 1e-3 --t-final 1e-2 --tol 1e-11 --eps 1e-2 --rho 2",
    "capped-2d": "--dimension 2 --cells 10 --tau 1e-3 --t-final 1e-2 --tol 1e-11 "
                 "--eps 1e-2 --rho 2",
    "square-12": "--dimension 2 --cells 12 --tau 1e-3 --t-final 1e-2 --tol 1e-11",
    # step 1 needs 5 updates, each on a fresh Jacobian, and is the hardest
    # step of the run: 4 iterations fail at step 1 (residual 5e-7), exit 3
    "nonconverging": "--cells 64 --tau 2e-2 --t-final 0.4 --tol 1e-13 --ic-amp 1.0 "
                     "--max-iters 4",
    # 3 iterations fail at step 1 with tau = 2e-2, 1e-2 and 5e-3; the third
    # retry, tau = 2.5e-3, runs all 160 steps
    "tau-retries": "--cells 64 --tau 2e-2 --t-final 0.4 --tol 1e-13 --ic-amp 0.9 "
                   "--max-iters 3 --tau-retries 4 --snapshot-every 20",
    # a cosine cap whose f is exactly zero on a fifth of the cells, so Newton
    # iterates hold exact zeros and the derivative of the cut at 0 matters
    "zero-front-1d": "--ic cosine-bump --ic-f0 0.2 --ic-amp 1 --cells 256 --tau 1e-3 "
                     "--t-final 2e-2 --tol 1e-10",
    # the same cap on a 24x24 grid, f zero on a strip of it: SuperLU factors,
    # and steps that make 3 or more chord updates on one set of factors, so
    # that the updates are Anderson-mixed with two pairs
    "zero-front-2d": "--dimension 2 --ic cosine-bump --ic-f0 0.2 --ic-amp 1 --cells 24 "
                     "--tau 1e-3 --t-final 1e-2 --tol 1e-10",
}

#: name -> ``crossdiff limits`` or ``sweep`` arguments (without ``--out``);
#: the stdout of each is hashed too, with the output directory written as name
COMMAND_CONFIGS = {
    "limits": "limits --cells 16 --tau 1e-3 --tol 1e-12 --eps-list 1e-2,1e-3 "
              "--rho-list 1e2,1e3",
    # two members, run one after the other in one worker process
    "sweep": "sweep --cells 12 --tau 1e-3,2e-3 --t-final 1e-2 --tol 1e-11 --workers 1",
    # two 2D grid shapes in one worker process, so that a Jacobian structure
    # cached under the wrong shape shows in the outputs
    "sweep-2d": "sweep --dimension 2 --cells 8,10 --tau 1e-3 --t-final 5e-3 --tol 1e-11 "
                "--workers 1",
}

#: name -> ``crossdiff verify`` arguments; the stdout of each is hashed
VERIFY_CONFIGS = {
    "verify-default": "",
    "verify-6-300-3": "--n-max 6 --samples 300 --seed 3",
    # Hessians and S_n matrices of degrees 11-16
    "verify-16-200-7": "--n-max 16 --samples 200 --seed 7",
}


def digest(cli, names, keep=None) -> list[str]:
    """The printout for ``names``, made with the ``crossdiff.cli`` module
    ``cli``; the outputs are written under ``keep`` if given, else deleted."""
    lines = []
    with contextlib.nullcontext(keep) if keep else tempfile.TemporaryDirectory() as root:
        for name in names:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                if name in VERIFY_CONFIGS:
                    code = cli.main(["verify", *VERIFY_CONFIGS[name].split()])
                    outputs = [("stdout", stdout.getvalue().encode())]
                else:
                    out = Path(root) / name
                    command = COMMAND_CONFIGS.get(name)
                    argv = (command or "run " + CONFIGS[name]).split()
                    code = cli.main([*argv, "--out", str(out)])
                    outputs = [(path.relative_to(out).as_posix(), path.read_bytes())
                               for path in sorted(out.rglob("*")) if path.is_file()]
                    if command:
                        printed = stdout.getvalue().replace(str(out), name)
                        outputs.append(("stdout", printed.encode()))
            lines.append(f"exit {code}  {name}")
            for file, data in outputs:
                lines.append(f"{hashlib.sha256(data).hexdigest()}  {name}/{file}")
                if keep and file == "stdout":
                    Path(root, name).mkdir(exist_ok=True)
                    Path(root, name, "stdout").write_bytes(data)
    return lines


if __name__ == "__main__":
    every = [*CONFIGS, *COMMAND_CONFIGS, *VERIFY_CONFIGS]
    parser = argparse.ArgumentParser()
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"configurations to run (default: all of {', '.join(every)})")
    parser.add_argument("--src", metavar="DIR",
                        default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory that holds the crossdiff package to digest "
                             "(default: the src of this script's checkout)")
    parser.add_argument("--keep", metavar="DIR", type=Path,
                        help="new directory to keep the outputs in (default: deleted)")
    args = parser.parse_args()
    if args.keep and args.keep.exists():
        parser.error(f"--keep {args.keep} exists")
    unknown = sorted(set(args.names) - set(every))
    if unknown:
        parser.error(f"unknown configuration {', '.join(unknown)}")
    sys.path.insert(0, str(Path(args.src).resolve()))
    from crossdiff import cli
    if args.keep:
        args.keep.mkdir(parents=True)
    print("\n".join(digest(cli, args.names or every, args.keep)))
