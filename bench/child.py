"""One part of a workload run, in one fresh process.

    python3 bench/child.py --workload W --seed S --part P --trace 0|1
    python3 bench/child.py --workload W --seed S --setup-only

Started by ``run.py``, which runs parts one after another until its time
is up.  A part runs its rounds (``workloads.part_rounds``) and prints one
JSON line.  With ``--trace 1`` it then replays the same rounds under the
tracer, so the two halves give the tracing overhead on identical ops.

Times are CPU time (user plus system) of the process that does the work:
this process for set-up and big-key ops, the ``python -m curvebetti``
child for cli-cold ops.  Every op runs on one thread, so that is its
latency on an idle machine; unlike wall time it leaves out the time a
shared host gives the CPU to someone else.  The parent and ``run_rounds``
convert them to reference seconds (``refclock.py``).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import workloads as wl
from refclock import RefClock, cpu_s


def setup(workload: str, seed: int, part: int):
    """Import the package and generate the inputs.

    Returns the runner, the part's rounds and the set-up timings:
    ``import_s`` and ``setup_cpu_s``, the CPU time of this process from
    its start through input generation.
    """
    sys.path.insert(0, str(wl.SRC))
    start = time.process_time()
    import curvebetti
    import curvebetti.cli  # noqa: F401  (its import cost is part of set-up)

    import_s = time.process_time() - start
    if not curvebetti.__file__.startswith(str(wl.SRC)):
        raise SystemExit(f"imported curvebetti from {curvebetti.__file__}, not {wl.SRC}")
    rounds = wl.part_rounds(workload, seed, part)
    runner = CliRunner() if workload == "cli-cold" else InProcessRunner()
    return runner, rounds, {"import_s": import_s, "setup_cpu_s": cpu_s()}


class InProcessRunner:
    """big-key: ops are calls into the imported package."""

    def __init__(self):
        self.lib = wl.InProcess()
        self.tracer = None

    def run(self, op):
        self.lib.ledger.clear()
        start = time.process_time()
        if self.tracer is None:
            out = self.lib.run(op)
        else:
            out = self.tracer.op(self.lib.run, op)
        return time.process_time() - start, self.lib.digest(op, out)

    def start_trace(self):
        from tracer import Tracer

        # Empty the caches first, so that the traced ledger counts only
        # the traced ops.
        self.lib.ledger.clear()
        self.lib = wl.InProcess()
        self.tracer = Tracer()
        self.tracer.install()

    def stop_trace(self) -> dict:
        self.tracer.restore()
        self.lib.ledger.collect()
        return {
            "summary": self.tracer.summary(),
            "caches": {n: [self.lib.ledger.hits[n], self.lib.ledger.misses[n]]
                       for n in self.lib.ledger.caches},
        }


def traced_cli_command(argv):
    return [sys.executable, str(wl.ROOT / "bench" / "cli_traced.py"), *argv]


class CliRunner:
    """cli-cold: every op is a fresh interpreter process."""

    def __init__(self):
        self.traced = None

    def run(self, op):
        # Children are started and reaped one at a time, so the growth of
        # the reaped children's CPU time is this op's.
        argv = op.args[1:]
        start = cpu_s(resource.RUSAGE_CHILDREN)
        if self.traced is None:
            stdout, code, _ = wl.run_cli(argv)
            elapsed = cpu_s(resource.RUSAGE_CHILDREN) - start
            return elapsed, wl.cli_digest(stdout, code)
        stdout, code, stderr = wl.run_cli(argv, traced_cli_command)
        elapsed = cpu_s(resource.RUSAGE_CHILDREN) - start
        if code != 0:
            raise RuntimeError(f"cli_traced.py exited {code}: {stderr.decode()[-300:]}")
        report = json.loads(stdout)
        self.traced.append(report)
        return elapsed, report["digest"]

    def start_trace(self):
        self.traced = []

    def stop_trace(self) -> dict:
        from tracer import merge

        reports, self.traced = self.traced, None
        caches: dict[str, list[int]] = {}
        for r in reports:
            for name, (hits, misses) in r["caches"].items():
                total = caches.setdefault(name, [0, 0])
                total[0] += hits
                total[1] += misses
        return {"summary": merge([r["summary"] for r in reports]), "caches": caches}


def run_rounds(rounds, runner, expected) -> dict:
    """Run every op; a failed op is counted, not fatal.

    Before each op the reference clock is calibrated, and the op's CPU
    time is converted to reference seconds (``refclock.py``).
    ``wall_s`` is the summed wall time of the ops, the clock the
    tracer's spans use.
    """
    clock = RefClock()
    latencies: list[float] = []
    failures: list[str] = []
    wall_s = 0.0
    for ops in rounds:
        for op in ops:
            clock.calibrate()
            start = time.perf_counter()
            try:
                elapsed, digest = runner.run(op)
            except Exception as e:
                elapsed, digest = 0.0, f"{type(e).__name__}: {e}"
            wall_s += time.perf_counter() - start
            latencies.append(clock.convert(elapsed))
            if digest != expected.get(op.key):
                failures.append(f"{op.key}: got {digest}")
    return {"latencies": latencies, "failures": failures, "wall_s": wall_s,
            "host_speed": clock.speeds}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    runner, rounds, timings = setup(args.workload, args.seed, args.part)
    if args.setup_only:
        print(json.dumps(timings))
        return 0
    expected = wl.load_expected()[args.workload]
    phases = [run_rounds(rounds, runner, expected)]
    traced = None
    if args.trace:
        runner.start_trace()
        try:
            phases.append(run_rounds(rounds, runner, expected))
        finally:
            traced = runner.stop_trace()
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    print(json.dumps({
        "phases": phases,
        "traced": traced,
        "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
