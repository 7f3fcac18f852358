"""rlsheaf benchmark: time to verdict on the corpus, adjunction and scaling workloads.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 36 --trace 0

Runs one workload in this process for about `--seconds` seconds, checks every
verdict against `known_answers.json`, prints a summary and, as the last line,
one JSON object `{"correct", "attempted", "failed", "metrics"}`.  With
`--trace 0` the metrics are the end-to-end ones; with `--trace 1` the run is
split into an untraced half and a traced half and the metrics are the
per-layer ones, and the spans are written to `.perfbench/` in the checkout.
Every time is in reference seconds: measured, then scaled by the speed of
the machine at that moment, as `yardstick.py` samples it all through the run.
Exits 1 when a verdict is wrong, unless it is a listed known defect that
misses in its recorded way, and 2 when rlsheaf cannot be imported from the
checkout's `src/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import resource
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter

import spans
import workloads
from yardstick import KERNEL_S, Yardstick

# Set-ups before the first pass, and about how many more an untraced run
# spreads between its passes, so that setup_s is not the speed of one moment.
SETUP_REPEATS = 8
SETUP_SAMPLES = 24

END_TO_END = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_p90_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
]

# Layers whose self time is reported; every other metric below is a count or a ratio.
SELF_TIME = [
    "fintop.verify_topology", "fintop.is_continuous", "fintop.continuous_maps", "fintop.is_local_homeomorphism",
    "rlcore.make_lattice", "rlcore.verify_rl", "rlcore.all_filters",
    "spectra.SpectrumConfig", "spectra.spectral_space",
    "bundle.sections", "bundle.verify_rl_bundle", "bundle.pointwise_rl_on_sections",
    "sheafify.etale_of", "sheafify.counit_report",
    "basechange.pullback_etale", "basechange.pullback_rl_etale",
    "adjunction.gamma_space", "adjunction.compact_open_space", "adjunction.verify_topological_rl",
    "workspace.parse_workspace", "cli.run", "suites.law_suite", "suites.adjunction_suite",
]
COUNTS = [
    "fintop.verify_topology.calls", "fintop.verify_topology.pairs_compared",
    "fintop.FiniteSpace.built", "fintop.FiniteSpace.opens_materialized", "fintop.refusals",
    "fintop.continuous_maps.maps_returned", "rlcore.verify_rl.elements_cubed",
    "rlcore.all_filters.calls", "rlcore.all_filters.filters_returned",
    "spectra.spectral_space.opens_materialized", "bundle.sections.sections_returned",
    "sheafify.etale_of.calls", "sheafify.etale_of.germs_built",
    "adjunction.gamma_space.sections_in", "adjunction.compact_open_space.maps_returned",
    "workspace.parse_workspace.calls",
]
RATIOS = [
    "fintop.verify_topology.recheck_share", "rlcore.all_filters.repeat_ratio",
    "sheafify.etale_of.repeat_ratio", "trace.overhead_ratio",
]
PER_LAYER = [(f"{n}.self_s", "s") for n in SELF_TIME] + [(n, "count") for n in COUNTS] + [(n, "ratio") for n in RATIOS]


@dataclass
class Pass:
    op_clock: list[tuple[float, float]] = field(default_factory=list)  # yardstick clock at each operation's start and end
    # Set by scale(): reference seconds, as are op_ms and the layer times.
    seconds: float = 0.0
    raw_seconds: float = 0.0
    op_ms: list[float] = field(default_factory=list)
    misses: list[tuple[str, str, str | None]] = field(default_factory=list)  # label, why, known defect
    layers: dict[str, float] = field(default_factory=dict)
    inclusive: dict[str, float] = field(default_factory=dict)
    peak_rss_mb: float = 0.0


def run_pass(wl: workloads.Workload, tracer: spans.Tracer | None, yard: Yardstick) -> Pass:
    wl.env = {}
    if wl.per_pass:
        wl.per_pass(wl)
    result = Pass()
    for i, op in enumerate(wl.ops):
        workloads.clear_program_caches(wl.modules)
        gc.collect()  # garbage that earlier operations left is not this one's to collect
        t0 = yard.clock()
        try:
            with tracer.operation(i) if tracer else contextlib.nullcontext():
                outcome = op.call(wl.env)
        except Exception as exc:  # a raising operation is a verdict, recorded as a miss
            result.op_clock.append((t0, yard.clock()))
            why = f"raised {type(exc).__name__}: {exc}"
        else:
            result.op_clock.append((t0, yard.clock()))
            if op.store:
                wl.env[op.store] = outcome
            why = op.check(outcome)
        if why is not None:
            result.misses.append((op.label, why, op.excuse(why)))
    wl.env = {}
    return result


def layer_metrics(tracer: spans.Tracer, lo: int, hi: int, p: Pass):
    self_s, p.inclusive, recheck = tracer.layer_totals(lo, hi)
    c = tracer.counts
    out = {f"{n}.self_s": self_s.get(n, 0.0) for n in SELF_TIME}
    out.update({n: float(c.get(n, 0)) for n in COUNTS})
    vt = self_s.get("fintop.verify_topology", 0.0)
    out["fintop.verify_topology.recheck_share"] = recheck / vt if vt else 0.0
    for layer in ("rlcore.all_filters", "sheafify.etale_of"):
        calls = c.get(f"{layer}.calls", 0)
        out[f"{layer}.repeat_ratio"] = c.get(f"{layer}.repeats", 0) / calls if calls else 0.0
    p.layers = out


def scale(passes: list[Pass], yard: Yardstick):
    """Put every pass's operation and layer times in reference seconds."""
    for p in passes:
        p.op_ms = [yard.scale(t0, t1) * 1000.0 for t0, t1 in p.op_clock]
        p.raw_seconds = sum(t1 - t0 for t0, t1 in p.op_clock)
        p.seconds = sum(p.op_ms) / 1000.0
        factor = p.seconds / p.raw_seconds  # spans are timed unscaled; scale them like their pass
        p.layers = {n: v * factor if n.endswith(".self_s") else v for n, v in p.layers.items()}
        p.inclusive = {n: t * factor for n, t in p.inclusive.items()}


def set_up(name: str, seed: int, clocks: list[tuple[float, float]], yard: Yardstick) -> workloads.Workload:
    """One timed set-up, after a full collection of the garbage that earlier set-ups left, so each starts from a like heap."""
    gc.collect()
    t0 = yard.clock()
    wl = workloads.build(name, seed)
    clocks.append((t0, yard.clock()))
    return wl


def measure(wl: workloads.Workload, seconds: float, yard: Yardstick, tracer: spans.Tracer | None = None,
            setup: tuple[int, list[tuple[float, float]]] | None = None) -> list[Pass]:
    """Whole passes until the next one would end nearer past `seconds` than short of it.

    With `setup` (the seed and the list of set-up clocks), every pass after the
    first runs on a fresh set-up, made after a share of SETUP_SAMPLES timed
    set-ups in proportion to the pass time.
    """
    passes: list[Pass] = []
    walls: list[float] = []
    start = perf_counter()
    while True:
        if setup is not None and passes:
            rng = wl.rng  # law-suite seeds keep coming from one stream
            for _ in range(max(1, round(SETUP_SAMPLES * statistics.median(walls) / seconds))):
                wl = set_up(wl.name, *setup, yard)
            wl.rng = rng
        t0 = perf_counter()
        if tracer:
            tracer.new_pass()
            lo = len(tracer.spans)
        p = run_pass(wl, tracer, yard)
        if tracer:
            layer_metrics(tracer, lo, len(tracer.spans), p)
        if not passes:
            # Later passes repeat the same work; their extra high-water mark is
            # allocator fragmentation, which grows with the number of passes
            # that fit in the run, so the peak is read after the first pass.
            p.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes.append(p)
        walls.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(walls) / 2 >= seconds:
            return passes


def nearest_rank(xs: list[float], q: float) -> tuple[float, int]:
    """The q-quantile by nearest rank, and how many samples lie beyond it."""
    s = sorted(xs)
    k = max(1, math.ceil(q * len(s)))
    return s[k - 1], len(s) - k


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def end_to_end(setup: list[float], passes: list[Pass], yard: Yardstick) -> tuple[dict[str, float], list[str]]:
    pass_s = [p.seconds for p in passes]
    # An operation's verdict time is its median over the passes; a quantile
    # over every sample would sit in the gaps between operations' clusters.
    op_ms = [statistics.median(p.op_ms[i] for p in passes) for i in range(len(passes[0].op_ms))]
    p90, beyond = nearest_rank(op_ms, 0.9)
    attempted = sum(len(p.op_ms) for p in passes)
    missed = sum(len(p.misses) for p in passes)
    q1, q3 = quartiles(pass_s)
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(pass_s),
        "verdict_p50_ms": statistics.median(op_ms),
        "verdict_p90_ms": p90,
        "ok_ratio": (attempted - missed) / attempted,
        "peak_rss_mb": passes[0].peak_rss_mb,
    }
    tail = f"{beyond} of {len(op_ms)} operations beyond it" if beyond else \
        "no operation beyond it: with one operation it is the median"
    notes = [
        f"setup_s        {metrics['setup_s']:.4f} s   median of {len(setup)} set-ups spread over the run",
        f"pass_s         {metrics['pass_s']:.4f} s   q1 {q1:.4f}, q3 {q3:.4f}, n={len(pass_s)} passes",
        f"verdict_p50_ms {metrics['verdict_p50_ms']:.3f} ms  over {len(op_ms)} operations, each the median of {len(passes)} verdicts",
        f"verdict_p90_ms {p90:.3f} ms  {tail}",
        f"ok_ratio       {metrics['ok_ratio']:.4f}  {attempted - missed} of {attempted} verdicts match the known answers",
        f"peak_rss_mb    {metrics['peak_rss_mb']:.1f} MB  through set-up and the first pass",
        f"times are reference times; unscaled, the median pass took {statistics.median(p.raw_seconds for p in passes):.4f} s,"
        f" and the yardstick kernel took {yard.median_ms():.3f} ms (nominal {KERNEL_S * 1000:.1f} ms)",
    ]
    return metrics, notes


def per_layer(untraced: list[Pass], traced: list[Pass]) -> tuple[dict[str, float], list[str]]:
    metrics = {name: statistics.median(p.layers[name] for p in traced) for name, _ in PER_LAYER if name in traced[0].layers}
    plain = statistics.median(p.seconds for p in untraced)
    traced_s = statistics.median(p.seconds for p in traced)
    metrics["trace.overhead_ratio"] = traced_s / plain - 1.0
    notes = [f"traced pass {traced_s:.4f} s, untraced pass {plain:.4f} s; per traced pass, layers by self time:",
             f"  {'layer':<34} {'self s':>9} {'inclusive s':>12}"]
    for n in sorted(SELF_TIME, key=lambda n: -metrics[f"{n}.self_s"]):
        if metrics[f"{n}.self_s"] > 0:
            inclusive = statistics.median(p.inclusive.get(n, 0.0) for p in traced)
            notes.append(f"  {n:<34} {metrics[f'{n}.self_s']:>9.4f} {inclusive:>12.4f}")
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    with Yardstick() as yard:
        setup: list[tuple[float, float]] = []
        try:
            for _ in range(SETUP_REPEATS):
                wl = set_up(args.workload, args.seed, setup, yard)
        except ImportError as exc:
            print(f"error: cannot import rlsheaf from {workloads.SRC}: {exc}", file=sys.stderr)
            return 2

        if args.trace:
            untraced = measure(wl, args.seconds / 2, yard)
            tracer = spans.Tracer(yard.clock)
            tracer.install()
            try:
                traced = measure(wl, args.seconds / 2, yard, tracer)
            finally:
                tracer.uninstall()
            out_dir = workloads.HERE.parent / ".perfbench"
            out_dir.mkdir(exist_ok=True)
            tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.json.gz")
            passes = untraced + traced
        else:
            passes = measure(wl, args.seconds, yard, setup=(args.seed, setup))
        yard.settle()

    scale(passes, yard)
    if args.trace:
        metrics, notes = per_layer(untraced, traced)
        units = dict(PER_LAYER)
    else:
        metrics, notes = end_to_end([yard.scale(t0, t1) for t0, t1 in setup], passes, yard)
        units = dict(END_TO_END)

    attempted = sum(len(p.op_clock) for p in passes)
    failures = sorted({(label, why) for p in passes for label, why, known in p.misses if not known})
    defects = sorted({(label, why, known) for p in passes for label, why, known in p.misses if known})
    failed = sum(1 for p in passes for _, _, known in p.misses if not known)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, {len(passes)} passes")
    for line in notes:
        print(line)
    for label, why, known in defects:
        print(f"known defect: {label}: {why} ({known})")
    for label, why in failures:
        print(f"WRONG VERDICT: {label}: {why}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
