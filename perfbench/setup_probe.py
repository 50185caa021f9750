"""Set-up probe: everything a ``crossdiff run`` process does before its
first step, then exit.

Run as ``python3 perfbench/setup_probe.py '<config values as JSON>'`` with
the package on ``PYTHONPATH``.  The harness times this process from spawn to
exit: interpreter start, ``import crossdiff.cli`` and building the params,
grid, initial state and solver options through the public config helpers.
"""

import json
import sys

from crossdiff import cli

config = cli.build_config({}, json.loads(sys.argv[1]))
grid = config.build_grid()
config.build_params()
config.build_initial(grid)
config.solver_options()
