"""Spans and exact counters recorded around calls into the gapdims layers.

The tracer never edits the package.  ``Tracer.install`` rebinds public
functions of the gapdims modules to timing wrappers, in every gapdims
module namespace that holds a reference to them (``from .x import f``
copies the binding, so rebinding only the defining module would miss
callers), and ``Tracer.uninstall`` puts the originals back.

A span covers one call.  Its parent is the innermost open span of the
same thread; a span opened in a worker thread with nothing open in that
thread takes the innermost open span of the installing thread, which is
the call that owns the pool.  Self time is the span's duration minus the
union of its children's intervals, so children that ran concurrently in
two threads are not subtracted twice.
"""

from __future__ import annotations

import sys
import threading
import time
import weakref

import numpy as np

PACKAGE = "gapdims"

# span name -> (module, attribute) of each function it times
TRACED = {
    "rng.uniforms": [("rng", "uniforms")],
    "rng.bin_indices": [("rng", "bin_indices")],
    "randmodel.build_set": [("randmodel", "build_set")],
    "randmodel.slot_counts": [("randmodel", "slot_counts")],
    "randmodel.level_intervals": [("randmodel.ApproxSet", "level_intervals")],
    "covering.estimate": [("covering", "estimate_dimension")],
    "covering.enumerate": [("covering", "enumerate_windows")],
    "experiments.dichotomy": [("experiments", "run_dichotomy_experiment")],
    "experiments.max_load": [("experiments", "max_load_statistic")],
    "experiments.interval_length": [("experiments", "interval_length_lemma_check")],
    "experiments.empty_bin": [("experiments", "empty_bin_probability")],
    "cli.main": [("cli", "main")],
    "sequences.level_sums": [("sequences", "level_sums")],
    "dimfuncs.depth_function": [("dimfuncs", "depth_function")],
    "cantor.formula": [("cantor", "upper_phi_dim_formula"),
                       ("cantor", "lower_phi_dim_formula")],
}

# Counters that must repeat exactly when the same pass runs twice.
EXACT_COUNTERS = (
    "rng.labels", "rng.balls", "covering.windows", "covering.windows_empty",
    "covering.segments_scanned", "covering.balls", "covering.windows_resolved_twice",
    "experiments.trials",
)


class _Span:
    __slots__ = ("name", "t0", "parent", "children")

    def __init__(self, name, t0, parent):
        self.name = name
        self.t0 = t0
        self.parent = parent
        self.children = []


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _resolve(dotted: str):
    """The gapdims module or class named 'module' or 'module.Class'."""
    mod_name, _, cls_name = dotted.partition(".")
    module = sys.modules[f"{PACKAGE}.{mod_name}"]
    return getattr(module, cls_name) if cls_name else module


class Tracer:
    """Per-name call counts, total and self times, plus exact work counters.

    ``probe_accuracy`` adds the level-W width check to every built set.
    It reads the geometry right after ``build_set`` returns, which fills
    the set's interval cache early, so a pass run with it is used for
    counters and accuracy only, never for timings.
    """

    def __init__(self, probe_accuracy: bool = False):
        self.probe_accuracy = probe_accuracy
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {name: 0 for name in EXACT_COUNTERS}
        self.width_relerr_max = 0.0
        self._nonempty = 0            # resolved windows with a count >= 1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack: list[_Span] = []
        self._root_thread = None
        self._restore: list[tuple[object, str, object]] = []
        self._seen_windows: dict[int, tuple[weakref.ref, set]] = {}
        self._level_intervals = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        self._root_thread = threading.get_ident()
        self._local.stack = self._root_stack
        hooks = {
            "rng.uniforms": self._count_labels,
            "rng.bin_indices": self._count_balls,
            "randmodel.build_set": self._probe_set,
            "covering.enumerate": self._count_windows,
            "covering.estimate": self._count_cover,
            "experiments.dichotomy": self._count_dichotomy_trials,
            "experiments.max_load": self._count_detail_trials,
            "experiments.interval_length": self._count_detail_trials,
            "experiments.empty_bin": self._count_config_trials,
        }
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        self._level_intervals = _resolve("randmodel.ApproxSet").level_intervals
        for name, targets in TRACED.items():
            for dotted, attr in targets:
                owner = _resolve(dotted)
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, hooks.get(name))
                holders = [owner] if isinstance(owner, type) else modules
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._restore.append((holder, key, original))
                            setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._root_stack and threading.get_ident() != tracer._root_thread:
                parent = tracer._root_stack[-1]
            else:
                parent = None
            span = _Span(name, time.perf_counter(), parent)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer._close(span, t1)
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _close(self, span: _Span, t1: float) -> None:
        with self._lock:
            covered = _union_length(span.children, span.t0, t1)
            if span.parent is not None:
                span.parent.children.append((span.t0, t1))
            dur = t1 - span.t0
            self.calls[span.name] = self.calls.get(span.name, 0) + 1
            self.total_s[span.name] = self.total_s.get(span.name, 0.0) + dur
            self.self_s[span.name] = self.self_s.get(span.name, 0.0) + dur - covered

    # -- counters ---------------------------------------------------------

    def _add(self, key: str, value: int) -> None:
        with self._lock:
            self.counts[key] += int(value)

    def _count_labels(self, args, result):
        self._add("rng.labels", result.size)

    def _count_balls(self, args, result):
        self._add("rng.balls", result.size)

    def _count_windows(self, args, result):
        # enumerate_windows is called only by estimate_dimension, which
        # resolves every window it returns
        s = args[0]
        with self._lock:
            ref, seen = self._seen_windows.get(id(s), (None, None))
            if ref is None or ref() is not s:
                seen = set()
                self._seen_windows[id(s)] = (weakref.ref(s), seen)
            again = sum(1 for win in result if win in seen)
            seen.update(result)
            self.counts["covering.windows"] += len(result)
            self.counts["covering.windows_resolved_twice"] += again

    def _count_cover(self, args, result):
        # windows with a zero count are dropped from the records; they are
        # exactly the windows whose clipped segment range is empty
        s = args[0]
        lefts, rights = self._level_intervals(s, s.w)
        xs = np.array([q.center_x for q in result.records])
        rs = np.array([q.radius_R for q in result.records])
        i0 = np.searchsorted(rights, xs - rs, side="left")
        i1 = np.searchsorted(lefts, xs + rs, side="right")
        with self._lock:
            self._nonempty += len(result.records)
            self.counts["covering.segments_scanned"] += int(np.maximum(i1 - i0, 0).sum())
            self.counts["covering.balls"] += sum(q.count_N for q in result.records)

    def _count_dichotomy_trials(self, args, result):
        self._add("experiments.trials", sum(len(s.trials) for s in result.summaries))

    def _count_detail_trials(self, args, result):
        self._add("experiments.trials", len(result["trials_detail"]))

    def _count_config_trials(self, args, result):
        self._add("experiments.trials", result["config"]["trials"])

    def _probe_set(self, args, result):
        if not self.probe_accuracy:
            return
        lefts, rights = self._level_intervals(result, result.w)
        mass = result.slot_mass
        live = mass > 0
        rel = np.abs((rights - lefts)[live] - mass[live]) / mass[live]
        if rel.size:
            with self._lock:
                self.width_relerr_max = max(self.width_relerr_max, float(rel.max()))

    # -- results ----------------------------------------------------------

    def counters(self) -> dict[str, int]:
        out = dict(self.counts)
        out["covering.windows_empty"] = out["covering.windows"] - self._nonempty
        return out

    def metrics(self) -> dict[str, float | int]:
        """Flat per-layer metrics; layers a pass never called read 0."""
        c = self.counters()
        calls, tot, own = self.calls, self.total_s, self.self_s
        balls = c["covering.balls"]
        return {
            "rng.uniforms.calls": calls.get("rng.uniforms", 0),
            "rng.uniforms.s": tot.get("rng.uniforms", 0.0),
            "rng.labels": c["rng.labels"],
            "rng.bin_indices.s": tot.get("rng.bin_indices", 0.0),
            "rng.balls": c["rng.balls"],
            "randmodel.build_set.calls": calls.get("randmodel.build_set", 0),
            "randmodel.build_set.s": tot.get("randmodel.build_set", 0.0),
            "randmodel.build_set.self_s": own.get("randmodel.build_set", 0.0),
            "randmodel.slot_counts.calls": calls.get("randmodel.slot_counts", 0),
            "randmodel.slot_counts.self_s": own.get("randmodel.slot_counts", 0.0),
            "randmodel.level_intervals.s": tot.get("randmodel.level_intervals", 0.0),
            "covering.estimate.calls": calls.get("covering.estimate", 0),
            "covering.estimate.self_s": own.get("covering.estimate", 0.0),
            "covering.enumerate.s": tot.get("covering.enumerate", 0.0),
            "covering.windows": c["covering.windows"],
            "covering.windows_empty": c["covering.windows_empty"],
            "covering.windows_resolved_twice": c["covering.windows_resolved_twice"],
            "covering.segments_scanned": c["covering.segments_scanned"],
            "covering.balls": balls,
            "covering.segments_per_ball": c["covering.segments_scanned"] / balls if balls else 0.0,
            "experiments.trials": c["experiments.trials"],
            "experiments.dichotomy.self_s": own.get("experiments.dichotomy", 0.0),
            "experiments.max_load.self_s": own.get("experiments.max_load", 0.0),
            "experiments.interval_length.self_s": own.get("experiments.interval_length", 0.0),
            "experiments.empty_bin.self_s": own.get("experiments.empty_bin", 0.0),
            "cli.main.s": tot.get("cli.main", 0.0),
            "cli.main.self_s": own.get("cli.main", 0.0),
            "sequences.level_sums.s": tot.get("sequences.level_sums", 0.0),
            "dimfuncs.depth_function.s": tot.get("dimfuncs.depth_function", 0.0),
            "cantor.formula.s": tot.get("cantor.formula", 0.0),
        }
