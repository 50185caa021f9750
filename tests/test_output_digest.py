"""Outputs unchanged: every file and printout that the configurations of
``benchmarks/output_digest.py`` make hashes as recorded in
``tests/output_digest.txt``.

The bytes depend on the numpy and scipy builds, so the recorded lines hold
for the versions and platform named in the file's header.  Under other
versions a mismatch skips the test, naming both version sets, while equal
printouts still pass.
"""

import importlib.util
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

from crossdiff import cli

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "tests" / "output_digest.txt"


def _load_digest():
    spec = importlib.util.spec_from_file_location(
        "output_digest", ROOT / "benchmarks" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _versions():
    return (f"numpy {np.__version__}, scipy {scipy.__version__}, "
            f"python {platform.python_version()}, {platform.system()} {platform.machine()}")


def _outputs(lines):
    """Each line of a printout by what it digests: ``<name>/<file>``, or
    ``<name> exit code``."""
    return {line.split("  ")[1] + (" exit code" if line.startswith("exit") else ""): line
            for line in lines}


def test_every_output_matches_the_record():
    record = RECORD.read_text().splitlines()
    header = [line for line in record if line.startswith("#")]
    expected = [line for line in record if not line.startswith("#")]
    digest = _load_digest()
    names = [*digest.CONFIGS, *digest.COMMAND_CONFIGS, *digest.VERIFY_CONFIGS]
    printed = digest.digest(cli, names)
    if printed == expected:
        return
    old, new = _outputs(expected), _outputs(printed)
    changed = sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key))
    message = (f"{len(changed)} outputs differ from {RECORD.name}: {', '.join(changed)}.\n"
               "Keep both sides' outputs with `python benchmarks/output_digest.py "
               "[--src <parent>/src] --keep DIR NAME ...` and compare them with "
               "`python benchmarks/csv_delta.py OLD_DIR NEW_DIR`; a change made on purpose "
               f"replaces the lines of {RECORD.name} in the same commit.")
    recorded = header[-1].lstrip("# ")
    if recorded != _versions():
        pytest.skip(f"recorded with {recorded}, running {_versions()}: {message}")
    pytest.fail(message)
