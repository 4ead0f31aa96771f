"""Print one fresh process's set-up time as JSON: the import of chen3 plus its
one-time lazy builds.  `run.py` starts several of these and reports the median."""

import json
from pathlib import Path

import harness

harness.pin_threads()
print(json.dumps({"setup_s": harness.timed_setup(Path(__file__).resolve().parent.parent / "src")}))
