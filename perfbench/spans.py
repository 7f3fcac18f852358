"""Span tracing of rlsheaf's layers, installed from outside the program.

`Tracer.install()` wraps the public functions listed in `LAYERS` and rebinds
each wrapper in every `rlsheaf.*` module namespace, and in every module-level
dict, that holds the original (so `from x import f` aliases and dispatch
tables such as `cli.HANDLERS` are caught).  For a class it wraps
`__post_init__`.  `Tracer.uninstall()` puts every original back.

A span is a row `[name, start, end, parent, op]` kept in memory; `parent` is
the index of the enclosing span and `op` the operation id.  Counters are
computed from argument and result sizes after the wrapped call returns, in a
span of their own (`HOOK`).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter

ROOT = "op"

# verify_topology in the traced program compares member pairs only for
# families of at most this many members; larger ones take its
# minimal-neighbourhood route, which compares no pairs.
PAIRWISE_LIMIT = 4096

# Spans below these count as checks of user input, not as re-checks.
USER_INPUT = ("workspace.parse_workspace", "cli.cmd_validate")

# cli.cmd_validate is wrapped only to mark checks of user input.  Its own body
# is handler glue like every other handler's, so its self time counts in cli.run.
SELF_TIME_OF = {"cli.cmd_validate": "cli.run"}

# Counter hooks run in a span of this name, so their cost is taken out of the
# self time of the span that called the wrapped function.
HOOK = "trace.hook"


def _verify_topology(tr, args, kwargs, result):
    family = args[1]
    if not isinstance(family, (set, frozenset)):
        family = {frozenset(s) for s in family}
    tr.count("fintop.verify_topology.calls")
    if len(family) <= PAIRWISE_LIMIT:
        tr.count("fintop.verify_topology.pairs_compared", len(family) * (len(family) - 1) // 2)


def _finite_space(tr, args, kwargs, result):
    tr.count("fintop.FiniteSpace.built")
    tr.count("fintop.FiniteSpace.opens_materialized", len(args[0].opens))


def _continuous_maps(tr, args, kwargs, result):
    tr.count("fintop.continuous_maps.maps_returned", len(result))


def _verify_rl(tr, args, kwargs, result):
    tr.count("rlcore.verify_rl.elements_cubed", len(args[0].carrier) ** 3)


def _all_filters(tr, args, kwargs, result):
    tr.count("rlcore.all_filters.calls")
    tr.count("rlcore.all_filters.filters_returned", len(result.filters))
    tr.count("rlcore.all_filters.repeats", tr.seen("rlcore.all_filters", args[0]))


def _spectral_space(tr, args, kwargs, result):
    tr.count("spectra.spectral_space.opens_materialized", len(result.opens))


def _sections(tr, args, kwargs, result):
    tr.count("bundle.sections.sections_returned", len(result))


def _etale_of(tr, args, kwargs, result):
    tr.count("sheafify.etale_of.calls")
    tr.count("sheafify.etale_of.germs_built", len(result.germs))
    tr.count("sheafify.etale_of.repeats", tr.seen("sheafify.etale_of", args[0]))


def _gamma_space(tr, args, kwargs, result):
    tr.count("adjunction.gamma_space.sections_in", len(result[1]))


def _compact_open_space(tr, args, kwargs, result):
    tr.count("adjunction.compact_open_space.maps_returned", len(result.maps))


def _parse_workspace(tr, args, kwargs, result):
    tr.count("workspace.parse_workspace.calls")


# (module, attribute, counter hook); a class attribute means its __post_init__.
LAYERS = [
    ("fintop", "verify_topology", _verify_topology),
    ("fintop", "FiniteSpace", _finite_space),
    ("fintop", "is_continuous", None),
    ("fintop", "continuous_maps", _continuous_maps),
    ("fintop", "is_local_homeomorphism", None),
    ("rlcore", "make_lattice", None),
    ("rlcore", "verify_rl", _verify_rl),
    ("rlcore", "all_filters", _all_filters),
    ("spectra", "SpectrumConfig", None),
    ("spectra", "spectral_space", _spectral_space),
    ("bundle", "sections", _sections),
    ("bundle", "verify_rl_bundle", None),
    ("bundle", "pointwise_rl_on_sections", None),
    ("sheafify", "etale_of", _etale_of),
    ("sheafify", "counit_report", None),
    ("basechange", "pullback_etale", None),
    ("basechange", "pullback_rl_etale", None),
    ("adjunction", "gamma_space", _gamma_space),
    ("adjunction", "compact_open_space", _compact_open_space),
    ("adjunction", "verify_topological_rl", None),
    ("workspace", "parse_workspace", _parse_workspace),
    ("cli", "run", None),
    ("cli", "cmd_validate", None),
    ("suites", "law_suite", None),
    ("suites", "adjunction_suite", None),
]


def rlsheaf_modules() -> dict[str, object]:
    return {n: m for n, m in sys.modules.items() if n == "rlsheaf" or n.startswith("rlsheaf.")}


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self, clock=perf_counter):
        self.clock = clock  # the time source of the spans
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.op = -1
        self.counts: dict[str, int] = defaultdict(int)
        self._seen: dict[str, dict[int, object]] = defaultdict(dict)
        self._undo: list[tuple] = []

    # -- counters -----------------------------------------------------------

    def count(self, key: str, n: int = 1):
        self.counts[key] += n

    def seen(self, layer: str, obj) -> int:
        """1 when `obj` already went through `layer` in this pass; the object is kept alive so ids stay unique."""
        table = self._seen[layer]
        if id(obj) in table:
            return 1
        table[id(obj)] = obj
        return 0

    def new_pass(self):
        """Start counting afresh: counters and repeats are per pass."""
        self.counts.clear()
        self._seen.clear()

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str) -> list:
        row = [name, self.clock(), 0.0, self.stack[-1], self.op]
        self.stack.append(len(self.spans))
        self.spans.append(row)
        return row

    def _exit(self, row: list):
        row[2] = self.clock()
        self.stack.pop()

    def _note_exception(self, exc: BaseException):
        # The program refuses oversized topologies with a ValueError naming
        # the refusal; each one passes through several spans but counts once.
        if isinstance(exc, ValueError) and "refusing" in str(exc) and not getattr(exc, "_perfbench_seen", False):
            exc._perfbench_seen = True
            self.count("fintop.refusals")

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """A root span for one operation."""
        self.op = op_id
        row = self._enter(ROOT)
        try:
            yield
        finally:
            self._exit(row)
            self.op = -1

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(row)
                tracer._note_exception(exc)
                raise
            tracer._exit(row)
            if hook is not None:
                hook_row = tracer._enter(HOOK)
                try:
                    hook(tracer, args, kwargs, result)
                finally:
                    tracer._exit(hook_row)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = rlsheaf_modules()
        for modname, attr, hook in LAYERS:
            name = f"{modname}.{attr}"
            target = getattr(mods[f"rlsheaf.{modname}"], attr)
            if isinstance(target, type):
                orig = target.__dict__["__post_init__"]
                self._undo.append((target, "__post_init__", orig, True))
                setattr(target, "__post_init__", self._wrap(name, orig, hook))
                continue
            wrapper = self._wrap(name, target, hook)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is target:
                        self._undo.append((mod, key, val, True))
                        setattr(mod, key, wrapper)
                    elif isinstance(val, dict):
                        for k, v in list(val.items()):
                            if v is target:
                                self._undo.append((val, k, v, False))
                                val[k] = wrapper

    def uninstall(self):
        for holder, key, orig, is_attr in reversed(self._undo):
            if is_attr:
                setattr(holder, key, orig)
            else:
                holder[key] = orig
        self._undo.clear()

    # -- aggregation --------------------------------------------------------

    def layer_totals(self, lo: int, hi: int) -> tuple[dict[str, float], dict[str, float], float]:
        """Per layer over spans[lo:hi]: self seconds, inclusive seconds, and the
        verify_topology self seconds not under a check of user input."""
        rows = self.spans[lo:hi]
        child = [0.0] * len(rows)
        for row in rows:
            if row[3] >= lo:
                child[row[3] - lo] += row[2] - row[1]
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        under = [False] * len(rows)
        recheck = 0.0
        for i, row in enumerate(rows):
            dur = row[2] - row[1]
            p = row[3] - lo
            if p >= 0:
                under[i] = under[p] or rows[p][0] in USER_INPUT
            self_s[SELF_TIME_OF.get(row[0], row[0])] += dur - child[i]
            if row[0] == "fintop.verify_topology" and not under[i]:
                recheck += dur - child[i]
            while p >= 0 and rows[p][0] != row[0]:
                p = rows[p][3] - lo
            if p < 0:  # outermost span of its name: recursion is not counted twice
                total_s[row[0]] += dur
        return self_s, total_s, recheck

    def dump(self, path):
        """Write the spans as gzipped JSON columns."""
        names = sorted({r[0] for r in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "columns": ["name", "start", "end", "parent", "op"],
            "rows": [[index[r[0]], round(r[1], 7), round(r[2], 7), r[3], r[4]] for r in self.spans],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
