"""The curvebetti benchmark: one command, every metric, checked outputs.

    python3 bench/run.py --workload big-key --seed 1 --seconds 50 --trace 0

Workloads are ``big-key`` and ``cli-cold`` (see README.md in this
directory).  Each run, one process at a time:

1. the sympy cross-check of the ring (``oracle.py``);
2. with ``--trace 1``, 21 bare ``python -c pass`` starts;
3. workload parts (``child.py``), each a fresh process running the next
   few rounds of the seed's op stream and checking every output against
   ``expected.json``, until the next part would end after ``--seconds``;
   before each part, three set-up probes (fresh children that import
   ``curvebetti`` and generate the workload's inputs, for ``setup_s``),
   and after the last part as many as make 21 in all.

Prints the environment, one line per metric with its unit, and last one
JSON object.  Exits 1 when any output or exit code is wrong, and 2 when
the checkout holds no program to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl
from refclock import RefClock, cpu_s

BENCH = Path(__file__).resolve().parent
ROOT = wl.ROOT
PACKAGE = wl.SRC / "curvebetti"
PROBES = 21
PROBES_PER_PART = 3
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _spawn(cmd: list[str], deadline: float) -> str:
    """Run a helper to completion and return the last line of its stdout."""
    env = dict(os.environ, PYTHONPATH=str(wl.SRC))
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{Path(cmd[1]).name} did not finish in time")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(
            f"{' '.join(cmd[1:3])} exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
        )
    return proc.stdout.strip().splitlines()[-1]


def _script(name: str) -> list[str]:
    return [sys.executable, str(BENCH / name)]


class SetupProbes:
    """Fresh children that import ``curvebetti`` and generate the inputs.

    A few run before each part, so that set-up is timed over the same
    stretch of the run as the ops, and the rest after the last part.
    """

    def __init__(self, workload: str, seed: int):
        self.cmd = _script("child.py") + ["--workload", workload, "--seed", str(seed),
                                          "--setup-only"]
        self.clock = RefClock()
        self.setup_s: list[float] = []
        self.import_s: list[float] = []

    def run(self, count: int, deadline: float) -> None:
        for _ in range(count):
            self.clock.calibrate()
            out = json.loads(_spawn(self.cmd, deadline))
            self.setup_s.append(self.clock.convert(out["setup_cpu_s"]))
            self.import_s.append(self.clock.convert(out["import_s"]))


def interpreter_probes(deadline: float) -> list[float]:
    """Bare ``python -c pass`` starts, timed as cli-cold ops are."""
    clock = RefClock()
    out = []
    for _ in range(PROBES):
        clock.calibrate()
        start = cpu_s(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, "-c", "pass"], check=True,
                       timeout=max(1.0, deadline - time.monotonic()))
        out.append(clock.convert(cpu_s(resource.RUSAGE_CHILDREN) - start))
    return out


def tail(latencies: list[float]) -> tuple[float, int, int]:
    """Latency at the highest whole percentile with >= 10 samples beyond it.

    Returns (value, percentile, samples beyond).  Runs too short to have
    ten samples beyond the median report the median.
    """
    n = len(latencies)
    pct = max(50, math.floor(100 * (n - 10) / n))
    rank = math.ceil(pct * n / 100)
    return sorted(latencies)[rank - 1], pct, n - rank


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": [round(x, 2) for x in os.getloadavg()],
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def run_parts(args, probes: SetupProbes, deadline: float) -> list[dict]:
    """Whole parts until the next one would end after ``--seconds``."""
    parts: list[dict] = []
    start = time.monotonic()
    while True:
        probes.run(PROBES_PER_PART, deadline)
        part_start = time.monotonic()
        parts.append(json.loads(_spawn(
            _script("child.py") + ["--workload", args.workload, "--seed", str(args.seed),
                                   "--part", str(len(parts)), "--trace", str(args.trace)],
            deadline,
        )))
        now = time.monotonic()
        if now - start + (now - part_start) > args.seconds:
            probes.run(max(0, PROBES - len(probes.setup_s)), deadline)
            return parts


def _phase(parts: list[dict], index: int) -> dict:
    return {
        "latencies": [x for p in parts for x in p["phases"][index]["latencies"]],
        "failures": [f for p in parts for f in p["phases"][index]["failures"]],
    }


def end_to_end(parts: list[dict], setup_s: list[float], workload: str) -> dict:
    lat = _phase(parts, 0)["latencies"]
    speed = statistics.median(x for p in parts for x in p["phases"][0]["host_speed"])
    tail_s, pct, beyond = tail(lat)
    return {
        "setup_s": (statistics.median(setup_s), "s", f"median of {len(setup_s)} set-ups"),
        "ops_per_s": (len(lat) / sum(lat), "1/s",
                      f"{len(lat)} ops in {sum(lat):.2f} reference s, {len(parts)} parts, "
                      f"median host speed {speed:.3g}"),
        "op_p50_s": (statistics.median(lat), "s", f"{len(lat)} samples"),
        "op_tail_s": (tail_s, "s", f"p{pct} of {len(lat)} samples, {beyond} beyond"),
        "peak_rss_mib": (max(p["peak_rss_mib"] for p in parts), "MiB",
                         "max over CLI children" if workload == "cli-cold" else "workload child"),
    }


def per_layer(parts: list[dict], import_s: list[float], interpreter_s: list[float]) -> dict:
    from tracer import HIT_RATIO_CACHES, layer_metrics, merge

    plain, traced = _phase(parts, 0)["latencies"], _phase(parts, 1)["latencies"]
    traced_wall_s = sum(p["phases"][1]["wall_s"] for p in parts)
    hit_ratios = {}
    for name in HIT_RATIO_CACHES:
        hits = sum(p["traced"]["caches"].get(name, (0, 0))[0] for p in parts)
        misses = sum(p["traced"]["caches"].get(name, (0, 0))[1] for p in parts)
        hit_ratios[name] = hits / (hits + misses) if hits + misses else 0.0
    summary = merge([p["traced"]["summary"] for p in parts])
    m = {
        name: (value, unit, "")
        for name, (value, unit) in layer_metrics(
            summary, len(traced), traced_wall_s, hit_ratios
        ).items()
    }
    m["cli.import_s"] = (statistics.median(import_s), "s", "median of set-up probes")
    m["cli.interpreter_s"] = (statistics.median(interpreter_s), "s", "bare python -c pass")
    m["trace.ops_per_s"] = (len(traced) / sum(traced), "1/s",
                            f"untraced {len(plain) / sum(plain):.4g}")
    m["trace.overhead_ratio"] = (
        sum(traced) / sum(plain), "ratio", f"traced over untraced time on the same {len(plain)} ops",
    )
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no program to benchmark at {PACKAGE}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = environment(args)
    try:
        oracle = json.loads(_spawn(_script("oracle.py") + ["--seed", str(args.seed)], deadline))
        interpreter_s = interpreter_probes(deadline) if args.trace else []
        probes = SetupProbes(args.workload, args.seed)
        parts = run_parts(args, probes, deadline)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    failures = oracle["failures"] + [f for p in parts for ph in p["phases"] for f in ph["failures"]]
    attempted = oracle["attempted"] + sum(
        len(ph["latencies"]) for p in parts for ph in p["phases"]
    )
    metrics = (
        per_layer(parts, probes.import_s, interpreter_s) if args.trace
        else end_to_end(parts, probes.setup_s, args.workload)
    )
    env["loadavg_end"] = [round(x, 2) for x in os.getloadavg()]
    print("env " + json.dumps(env))
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    print(f"failed_ratio {len(failures) / attempted:.6g} ({len(failures)} of {attempted} "
          f"attempted, {oracle['attempted']} of them sympy cross-checks)")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit:<9} {note}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
