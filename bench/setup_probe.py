"""Set-up time of a fresh interpreter: import the CLI, load every config.

    python3 bench/setup_probe.py SRC_DIR CONFIG_LIST_JSON

Prints the seconds from before ``import qtreesearch.cli`` to after every
listed config has been loaded (``load_config``) and validated
(``ExperimentConfig.problem()``).
"""

import json
import sys
import time

started = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import qtreesearch.cli  # noqa: E402,F401
from qtreesearch.config import load_config  # noqa: E402

with open(sys.argv[2]) as handle:
    paths = json.load(handle)
for path in paths:
    load_config(path).problem()
print(time.perf_counter() - started)
