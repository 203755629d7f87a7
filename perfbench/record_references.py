#!/usr/bin/env python3
"""Print the discrete reference values of every workload, at full and small size.

    python3 perfbench/record_references.py > perfbench/references.json

The committed references.json was made this way at the seed commit with the
BLAS threads pinned to the number of usable cores. Checks compare against it
to 1e-10 relative, so only a deliberate change of the discretization should
ever re-record it.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import run

if __name__ == "__main__":
    os.environ.update({v: str(run.usable_cores()) for v in run.THREAD_VARS})
    sys.path.insert(0, str(run.SRC))
    import workloads

    refs: dict = {"full": {}, "small": {}}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for size in refs:
            for name in workloads.WORKLOADS:
                runner = run.Runner(name, 1, Path(tmp), small=size == "small")
                runner.refs = {}
                res = runner.op()
                real = [f for f in res.failures if not f.endswith("no reference value")]
                if real:
                    sys.exit(f"{size} {name} failed: {real}")
                refs[size][name] = res.values
    print(json.dumps(refs, indent=1, sort_keys=True))
