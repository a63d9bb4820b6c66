"""Run the CLI once, in this fresh process, under the benchmark's tracer.

    python3 bench/cli_traced.py betti --space "P(2) * P(3)"

Imports ``curvebetti.cli``, installs the wrappers, calls ``main(argv)``
with stdout captured and prints one JSON line: the exit code, the digest
of what the CLI wrote to stdout, the folded spans and the cache counts.
The untraced cli-cold workload runs the real ``python -m curvebetti``.
"""

from __future__ import annotations

import io
import json
import sys

import workloads as wl
from tracer import Tracer


def main() -> int:
    sys.path.insert(0, str(wl.SRC))
    from curvebetti import catalog, cli, pipelines

    tracer = Tracer()
    tracer.install()
    captured = io.StringIO()
    real_stdout, sys.stdout = sys.stdout, captured
    try:
        code = tracer.op(cli.main, sys.argv[1:])
    finally:
        sys.stdout = real_stdout
        tracer.restore()
    caches = {
        name: [obj.cache_info().hits, obj.cache_info().misses]
        for name, obj in wl.cache_objects((catalog, pipelines)).items()
    }
    print(json.dumps({
        "code": code,
        "digest": wl.cli_digest(captured.getvalue().encode(), code),
        "summary": tracer.summary(),
        "caches": caches,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
