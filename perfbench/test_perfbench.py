"""Self-test of the benchmark: tracing is transparent, and the metrics it emits are the declared ones.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import json
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402
from yardstick import Yardstick  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))


def bindings() -> dict[tuple, object]:
    """Every function, dict value and __post_init__ reachable from an rlsheaf module namespace."""
    out = {}
    for modname, mod in spans.rlsheaf_modules().items():
        for key, val in vars(mod).items():
            if isinstance(val, types.FunctionType):
                out[modname, key] = val
            elif isinstance(val, type) and "__post_init__" in val.__dict__:
                out[modname, key, "__post_init__"] = val.__dict__["__post_init__"]
            elif isinstance(val, dict) and key != "__builtins__":
                for k, v in val.items():
                    if isinstance(v, types.FunctionType):
                        out[modname, key, k] = v
    return out


def outcomes(wl: workloads.Workload, tracer: spans.Tracer | None) -> list:
    rows = []
    for i, op in enumerate(wl.ops):
        workloads.clear_program_caches(wl.modules)
        with tracer.operation(i) if tracer else contextlib.nullcontext():
            try:
                outcome = op.call(wl.env)
            except Exception as exc:
                rows.append((op.label, f"raised {type(exc).__name__}: {exc}", None))
                continue
        if op.store:
            wl.env[op.store] = outcome
        cli_bytes = (outcome.rc, outcome.out, outcome.err, outcome.raised) if isinstance(outcome, workloads.CliResult) else None
        rows.append((op.label, op.check(outcome), cli_bytes))
    wl.env = {}
    return rows


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_gives_identical_output_and_verdicts(name, monkeypatch):
    monkeypatch.setenv("RLSHEAF_SEED", "271828")
    wl = workloads.build(name, seed=7)
    plain = outcomes(wl, None)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = outcomes(wl, tracer)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert len(tracer.spans) > len(wl.ops)


def test_untraced_code_is_the_original_program():
    wl = workloads.build("corpus", seed=7)
    before = bindings()
    run.run_pass(wl, None, Yardstick())
    assert bindings() == before  # functions compare by identity
    tracer = spans.Tracer()
    tracer.install()
    installed = bindings()
    assert any(installed[k] is not v for k, v in before.items())
    tracer.uninstall()
    after = bindings()
    assert after == before
    assert not any(hasattr(v, "__perfbench_original__") for v in after.values())


def test_a_known_defect_is_excused_only_for_its_recorded_miss():
    ops = [op for name in ("corpus", "scaling") for op in workloads.build(name, seed=7).ops if op.known_defect]
    assert len(ops) == 5
    for op in ops:
        assert op.excuse(op.defect_outcome + "as recorded") == op.known_defect
        assert op.excuse("exit 1, expected 2") is None
        assert op.excuse("raised RuntimeError: something else") is None
        assert op.excuse("3 points, expected 32") is None


def test_yardstick_scales_by_the_samples_around_the_work_and_leaves_them_out():
    with Yardstick() as yard:
        t0, wall0, stolen0 = yard.clock(), perf_counter(), yard.stolen
        while perf_counter() - wall0 < 1.0:
            pass
        t1, stolen, wall = yard.clock(), yard.stolen - stolen0, perf_counter() - wall0
        yard.settle()
    around = [k for at, k in zip(yard.at, yard.kernel_s) if t0 - yardstick.WINDOW <= at <= t1 + yardstick.WINDOW]
    assert len(around) >= 10
    assert t1 - t0 == pytest.approx(wall - stolen, abs=0.005)
    assert yard.scale(t0, t1) == pytest.approx((t1 - t0) * yardstick.KERNEL_S / (sum(around) / len(around)))


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_are_the_declared_ones(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "corpus", "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
