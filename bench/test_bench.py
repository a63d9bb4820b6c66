"""Self-tests of the benchmark.

    python3 -m pytest bench -q

The end-to-end cases run ``run.py`` with ``--seconds 0``, which runs one
part of each workload: a few seconds of ops.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys

import pytest

import workloads as wl

sys.path.insert(0, str(wl.SRC))

BENCHMARK = json.loads((wl.ROOT / "BENCHMARK.json").read_text())


def _first_rounds(workload: str, seed: int, count: int) -> list:
    return list(itertools.islice(wl.rounds(workload, seed), count))


def _run(root, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_gives_same_ops(workload):
    first = _first_rounds(workload, 7, 3)
    assert first == _first_rounds(workload, 7, 3)
    assert first != _first_rounds(workload, 8, 3)
    per = wl.ROUNDS_PER_PART[workload]
    assert wl.part_rounds(workload, 7, 1) == _first_rounds(workload, 7, 2 * per)[per:]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_op_has_an_expected_digest(workload):
    expected = wl.load_expected()[workload]
    keys = {op.key for op in wl.universe(workload)}
    assert keys == set(expected)
    for ops in _first_rounds(workload, 11, 5):
        assert {op.key for op in ops} <= keys


def test_cli_pool_expected_exits_cover_both_error_codes():
    codes = {wl.cli_expected_exit(cat) for cat in wl.cli_pool()}
    assert codes == {0, 2, 3}


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_workload_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(wl.ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()
                   for line in lines[:-1]), m["name"]
    assert any(line.startswith("env ") and '"loadavg_end"' in line for line in lines)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _checkout_copy(tmp_path, with_src=True):
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(wl.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(wl.ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_wrong_expected_digest_is_counted_and_fails_the_run(tmp_path):
    root = _checkout_copy(tmp_path)
    path = root / "bench" / "expected.json"
    expected = json.loads(path.read_text())
    ops = [op for ops in wl.part_rounds("cli-cold", 3, 0) for op in ops]
    victim = ops[0].key
    expected["cli-cold"][victim] = "0" * 32
    path.write_text(json.dumps(expected))

    proc = _run(root, "cli-cold", 0)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["failed"] == sum(op.key == victim for op in ops) >= 1
    assert f"FAILED {victim}" in proc.stdout
    assert "failed_ratio 0 " not in proc.stdout


def test_digest_mismatch_is_counted_per_op():
    import child

    ops = _first_rounds("cli-cold", 3, 1)[0]
    expected = wl.load_expected()["cli-cold"]
    tampered = dict(expected, **{ops[0].key: "not a digest"})
    phase = child.run_rounds([ops], child.CliRunner(), tampered)
    assert len(phase["latencies"]) == len(ops)
    assert len(phase["failures"]) == sum(op.key == ops[0].key for op in ops)


def test_bare_checkout_exits_nonzero_without_a_result(tmp_path):
    root = _checkout_copy(tmp_path, with_src=False)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "big-key", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _bound_names(modules):
    return {
        (module.__name__, attr): value
        for module in modules
        for attr, value in vars(module).items()
        if callable(value)
    }


def test_tracer_wraps_every_binding_and_restores_them():
    from curvebetti import catalog, cli, dsl, pipelines, polyring, surgery

    from tracer import Tracer

    modules = (catalog, cli, dsl, pipelines, polyring, surgery)
    before = _bound_names(modules)
    ops_before = dict(vars(polyring.IntPoly))
    tracer = Tracer()
    tracer.install()
    try:
        for module, attr in ((polyring, "exact_div"), (catalog, "exact_div"),
                             (pipelines, "exact_div"), (catalog, "grassmannian"),
                             (pipelines, "grassmannian"), (dsl, "grassmannian"),
                             (cli, "parse"), (cli, "space_poly"), (dsl.pipelines, "space_poly"),
                             (cli, "run_pipeline_traced")):
            assert hasattr(getattr(module, attr), "bench_original"), (module, attr)
        for attr in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__"):
            assert hasattr(vars(polyring.IntPoly)[attr], "bench_original"), attr
    finally:
        tracer.restore()
    assert _bound_names(modules) == before
    assert dict(vars(polyring.IntPoly)) == ops_before

    polyring.IntPoly([1, 1]) * polyring.IntPoly([1, -1])
    tracer.fold()
    assert not tracer.calls


def test_untraced_run_after_a_traced_one_sees_no_wrappers():
    import child

    runner = child.InProcessRunner()
    runner.start_trace()
    runner.stop_trace()
    from curvebetti import polyring

    assert not hasattr(polyring.IntPoly.__mul__, "bench_original")
    assert not hasattr(polyring.exact_div, "bench_original")
    op = _first_rounds("big-key", 1, 1)[0][0]
    runner.run(op)
    assert not runner.tracer.spans and runner.tracer.calls.get("polyring.mul", 0) == 0


def test_traced_cache_counts_leave_out_the_untraced_ops():
    import child

    runner = child.InProcessRunner()
    runner.run(wl.universe("big-key")[4])
    runner.start_trace()
    counts = runner.stop_trace()["caches"]
    assert counts and all(c == [0, 0] for c in counts.values())


def test_spans_give_self_time_and_fold_nested_subtraction():
    from curvebetti import catalog
    from curvebetti.polyring import IntPoly

    from tracer import POLYRING_SPANS, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        tracer.op(lambda: IntPoly([1, 2]) - IntPoly([3]))
        assert dict(tracer.calls) == {"op": 1, "polyring.add": 1}
        add_before = tracer.total_s["polyring.add"]
        wl.CacheLedger([catalog]).clear()
        tracer.op(catalog.grassmannian, 3, 7)
    finally:
        tracer.restore()
    assert tracer.calls["catalog.grassmannian"] == 1
    assert tracer.calls["polyring.mul"] >= 6 and tracer.calls["polyring.exact_div"] == 1
    for name in tracer.calls:
        assert 0 <= tracer.self_s[name] <= tracer.total_s[name] + 1e-9
    inner = sum(tracer.total_s[n] for n in POLYRING_SPANS) - add_before
    assert tracer.self_s["catalog.grassmannian"] <= tracer.total_s["catalog.grassmannian"] - inner + 1e-6


def test_cache_ledger_empties_every_cache():
    from curvebetti import catalog, pipelines

    lib = wl.InProcess()
    lib.run(wl.universe("big-key")[4])
    assert any(obj.cache_info().currsize for obj in lib.ledger.caches.values())
    lib.ledger.clear()
    assert set(lib.ledger.caches) >= {"catalog.grassmannian", "pipelines._simpson3_closed"}
    for module in (catalog, pipelines):
        for obj in vars(module).values():
            if hasattr(obj, "cache_info"):
                assert obj.cache_info().currsize == 0
    assert lib.ledger.misses["catalog.grassmannian"] > 0


def test_reference_seconds_scale_cpu_time_by_the_host_speed():
    from refclock import REF_KERNEL_S, WINDOW, RefClock

    clock = RefClock()
    clock.recent.extend([REF_KERNEL_S] * WINDOW)
    assert clock.convert(0.5) == 0.5
    # A host at half speed takes twice the CPU time for the kernel and
    # for the op alike.
    clock.recent.extend([2 * REF_KERNEL_S] * (WINDOW // 2 + 1))
    assert clock.convert(1.0) == 0.5
    assert clock.speeds == [1.0, 0.5]
