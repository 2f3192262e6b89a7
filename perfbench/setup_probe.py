"""One fresh-process set-up sample for a workload.

Run as ``python3 perfbench/setup_probe.py <workload> <seed>`` from the
repository root.  Prints one JSON line with ``setup_s`` (wall time from
before ``import repro`` until the workload could run its first timed
operation), ``import_s`` and ``parser_build_s`` (the first parse, which
builds the LALR tables, minus a warm parse of the same text).  The
probe's own inputs are built before the clock starts.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from inputs import BENCH_GRID, field_set  # noqa: E402

# The first program an interactive session compiles (explore's readiness).
EXPLORE_FIRST = "g = grad3d(u, dims, x, y, z)\nresult = vmag(g) + v * w"


def probe(workload: str, seed: int) -> dict:
    fields = field_set(BENCH_GRID, seed, 0)
    start = time.perf_counter()
    from repro.expr import parse
    from repro.analysis.vortex import EXPRESSIONS, Q_CRITERION
    if workload == "insitu":
        from repro.par.driver import run_distributed  # noqa: F401
        first = Q_CRITERION
    elif workload == "serve":
        from repro.service import DerivedFieldService, ServiceClient
        first = EXPRESSIONS["q_criterion"]
    else:
        from repro.host import DerivedFieldEngine
        first = EXPLORE_FIRST
    imported = time.perf_counter()
    parse(first)
    parsed = time.perf_counter()
    service = loop = None
    if workload == "serve":
        # Ready once every served expression has a warm plan.
        service = DerivedFieldService(devices=("cpu",))
        client = ServiceClient(service)

        async def warm():
            await asyncio.gather(*client.submit_many(
                [(text, fields) for text in EXPRESSIONS.values()]))
        loop = asyncio.new_event_loop()
        loop.run_until_complete(warm())
    elif workload == "explore":
        DerivedFieldEngine().execute(EXPLORE_FIRST, fields)
    ready = time.perf_counter()
    if service is not None:
        service.close()
        loop.close()
    warm = time.perf_counter()
    parse(first)
    warm = time.perf_counter() - warm
    return {"setup_s": ready - start, "import_s": imported - start,
            "parser_build_s": parsed - imported - warm}


if __name__ == "__main__":
    print(json.dumps(probe(sys.argv[1], int(sys.argv[2]))))
