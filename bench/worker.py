"""Benchmark child process: one round of molmine CLI operations.

Usage: python3 worker.py SPEC.json OUT_DIR TRACED RESULT.json
(cwd: the run's work directory)

SPEC holds the round's operations as ``[tag, argv]`` pairs, with ``{out}``
standing for OUT_DIR. Each operation goes through ``molmine.cli.main`` in
this one process. A fresh process per round means every round starts the
way a user's command does, with a new interpreter and allocator. With
TRACED=1 the calls into each layer are recorded as spans (see spans.py).
A ``Pacer`` (see pace.py) samples the CPU's speed while the operations run.
RESULT gets the round's start and end, exit codes, spans, speed samples and
peak RSS.
"""

from __future__ import annotations

import json
import resource
import sys

from pace import Pacer
from spans import Tracer


def main() -> int:
    spec_path, out, traced, result_path = sys.argv[1:5]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import molmine.cli
    import molmine.pipeline

    ops = [[a.replace("{out}", out) for a in argv] for _tag, argv in spec["ops"]]
    tracer = Tracer()
    run = molmine.cli.main
    if traced == "1":
        tracer.install((molmine.cli, molmine.pipeline))
        run = tracer.wrap("cli", run)
    codes = []
    pacer = Pacer()
    t0 = pacer.start()
    for argv in ops:
        codes.append(run(argv))
    t1 = pacer.stop()

    result = {
        "start": t0,
        "end": t1,
        "samples": pacer.samples,
        "codes": codes,
        "spans": tracer.spans,
        "molmine": molmine.cli.__file__,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
