"""End-to-end benchmark of the PH-tree store: ``python3 perfbench/run.py``
(see ``run.py``) and its workload records in ``workloads.json``."""

import json
from pathlib import Path

#: ``BENCHMARK.json``: the workloads and the metrics, with their units.
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
