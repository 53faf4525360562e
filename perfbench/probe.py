"""Set-up probe: fresh interpreter through to a built scenario.

Usage: python3 probe.py CONFIG.json.  Prints one JSON line holding the
CLOCK_MONOTONIC reading taken once the scenario is built; the caller
subtracts the reading it took before starting this process.
"""

import sys
import time

import arraytol
from arraytol import load_config, scenario_from_config

scenario = scenario_from_config(load_config(sys.argv[1]))
done = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402  (after the clock, so it is not part of set-up)

import numpy  # noqa: E402

print(
    json.dumps(
        {
            "done": done,
            "n_elements": scenario.n_elements,
            "arraytol_file": arraytol.__file__,
            "numpy": numpy.__version__,
        }
    )
)
