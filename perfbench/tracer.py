"""Spans and counts recorded around the calls into each crn_sense module.

Nothing inside the package is instrumented. Instead, `Tracer.install`
replaces each boundary function below with a timing wrapper in every
crn_sense module that holds it: the defining module (so calls inside
a module, such as marcum_q's gamma tails, are seen) and each module
that bound it with `from .x import y`. Functions looked up at call
time, which is all of them in this package, then go through the
wrapper. A boundary whose function no longer exists is reported as
absent and its metrics read 0.

Every span keeps its name, start, end, parent and thread in compact
per-thread arrays, so a run of millions of calls stays small in
memory; `write_spans` saves them when the run ends. The worker
threads of the Monte Carlo pool get the submitting span as parent.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from array import array

import numpy as np

# (module, function) pairs whose calls become spans. Layer = module.
BOUNDARIES = (
    ("specfun", "gaussian_q"),
    ("specfun", "gaussian_q_inv"),
    ("specfun", "reg_upper_gamma"),
    ("specfun", "marcum_q"),
    ("analytic", "pf_gaussian"),
    ("analytic", "pd_gaussian"),
    ("analytic", "pf_gamma"),
    ("analytic", "pd_marcum"),
    ("analytic", "pm_single"),
    ("analytic", "collision_single"),
    ("analytic", "double_threshold_report"),
    ("analytic", "threshold_for_target_pf"),
    ("analytic", "roc_analytic"),
    ("analytic", "resolved_occupied_probability"),
    ("analytic", "bisection_resolved_rates"),
    ("detector", "energy_statistic"),
    ("detector", "single_threshold_decide"),
    ("detector", "double_threshold_decide"),
    ("detector", "bisection_optimum_threshold"),
    ("detector", "resolve_fuzzy"),
    ("signal_model", "block_generator"),
    ("signal_model", "standard_normal"),
    ("signal_model", "noise_matrix"),
    ("signal_model", "bpsk_matrix"),
    ("montecarlo", "_statistics"),
    ("montecarlo", "_fill_sample_blocks"),
    ("montecarlo", "_fill_chisq_blocks"),
    ("montecarlo", "_band_masks"),
    ("montecarlo", "_bisect_array"),
    ("montecarlo", "_resolve_occupied"),
    ("montecarlo", "estimate_single"),
    ("montecarlo", "estimate_double"),
    ("montecarlo", "roc_empirical"),
    ("montecarlo", "collision_sweep"),
    ("cli", "main"),
    ("cli", "cmd_tables"),
    ("cli", "cmd_roc"),
    ("cli", "cmd_collision"),
    ("cli", "cmd_bisect"),
    ("cli", "_write_csv"),
    ("cli", "_write_manifest"),
)

LAYERS = ("specfun", "analytic", "detector", "signal_model", "montecarlo", "cli")

SURVIVALS = ("analytic.pf_gamma", "analytic.pd_marcum", "analytic.pf_gaussian", "analytic.pd_gaussian")
FILLS = ("montecarlo._fill_sample_blocks", "montecarlo._fill_chisq_blocks")
COMMANDS = ("cli.cmd_tables", "cli.cmd_roc", "cli.cmd_collision", "cli.cmd_bisect")
# montecarlo spans that make up the decision step, besides the public
# entry points' own time (counting against thresholds)
DECIDE = (
    "montecarlo._band_masks",
    "montecarlo._bisect_array",
    "montecarlo._resolve_occupied",
    "montecarlo.estimate_single",
    "montecarlo.estimate_double",
    "montecarlo.roc_empirical",
    "montecarlo.collision_sweep",
)

# name, unit, better: the per-layer metrics a traced run reports
PER_LAYER = (
    ("specfun.marcum_q.calls", "count", "lower"),
    ("specfun.marcum_q.self_s", "s", "lower"),
    ("specfun.marcum_q.us_per_call", "us", "lower"),
    ("specfun.reg_upper_gamma.calls", "count", "lower"),
    ("specfun.reg_upper_gamma.self_s", "s", "lower"),
    ("specfun.gamma_calls_per_marcum", "count", "lower"),
    ("specfun.gaussian_q.calls", "count", "lower"),
    ("specfun.gaussian_q.self_s", "s", "lower"),
    ("specfun.self_s", "s", "lower"),
    ("analytic.resolved_occupied_probability.calls", "count", "lower"),
    ("analytic.resolved_occupied_probability.self_s", "s", "lower"),
    ("analytic.survival_evals", "count", "lower"),
    ("analytic.survival_evals_per_resolved", "count", "lower"),
    ("analytic.bisection_probes", "count", "lower"),
    ("analytic.pd_marcum.self_s", "s", "lower"),
    ("analytic.self_s", "s", "lower"),
    ("detector.bisection_optimum_threshold.calls", "count", "lower"),
    ("detector.bisection_optimum_threshold.self_s", "s", "lower"),
    ("detector.single_threshold_decide.calls", "count", "lower"),
    ("detector.self_s", "s", "lower"),
    ("signal_model.standard_normal.calls", "count", "lower"),
    ("signal_model.standard_normal.self_s", "s", "lower"),
    ("signal_model.normals_per_s", "1/s", "higher"),
    ("signal_model.bpsk_matrix.self_s", "s", "lower"),
    ("signal_model.block_generator.calls", "count", "lower"),
    ("signal_model.block_generator.self_s", "s", "lower"),
    ("signal_model.self_s", "s", "lower"),
    ("montecarlo.statistics.calls", "count", "lower"),
    ("montecarlo.statistics.self_s", "s", "lower"),
    ("montecarlo.blocks_drawn", "count", "lower"),
    ("montecarlo.unique_blocks", "count", "lower"),
    ("montecarlo.unique_block_ratio", "ratio", "higher"),
    ("montecarlo.parallel_efficiency", "ratio", "higher"),
    ("montecarlo.decide.self_s", "s", "lower"),
    ("montecarlo.fuzzy_fraction", "ratio", "lower"),
    ("montecarlo.self_s", "s", "lower"),
    ("cli.write_csv.calls", "count", "lower"),
    ("cli.write_csv.self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("cli.cmd.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
)

# Metrics that must repeat exactly between two traced runs of one input.
COUNT_METRICS = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "bytes")) + (
    "montecarlo.unique_block_ratio",
    "montecarlo.fuzzy_fraction",
)

_SLOT_SHIFT = 40
_LOCAL_MASK = (1 << _SLOT_SHIFT) - 1


class _Buffer:
    """Spans opened on one thread, in call order."""

    def __init__(self, slot: int) -> None:
        self.base = slot << _SLOT_SHIFT
        self.name = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []


class Tracer:
    """Records spans and boundary counts for one traced workload run."""

    def __init__(self) -> None:
        self.names = [f"{module}.{function}" for module, function in BOUNDARIES]
        self.absent: list[str] = []
        self.hook_errors = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self._block_keys: set[tuple[int, int]] = set()
        self._normals = 0
        self._scanned = 0
        self._resolved = 0
        self._csv_bytes = 0
        self._pool_workers: dict[int, int] = {}

    # -- recording ---------------------------------------------------

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
            return buf

    def _current(self) -> int:
        stack = self._buffer().stack
        return stack[-1] if stack else -1

    def _wrap(self, fn, name_id: int, before, after):
        local = self._local
        new_buffer = self._buffer
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                buf = local.buf
            except AttributeError:
                buf = new_buffer()
            if before is not None:
                tracer._run_hook(before, args, kwargs)
            stack = buf.stack
            index = len(buf.start)
            buf.name.append(name_id)
            buf.parent.append(stack[-1] if stack else -1)
            buf.end.append(0)
            stack.append(buf.base + index)
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[index] = clock()
                stack.pop()
            if after is not None:
                tracer._run_hook(after, args, result)
            return result

        return traced

    def _run_hook(self, hook, args, extra) -> None:
        # a hook that no longer fits a changed signature must not stop the run
        try:
            with self._lock:
                hook(args, extra)
        except Exception:
            self.hook_errors += 1

    def _count_block(self, args, kwargs) -> None:
        seed = args[0] if args else kwargs["seed"]
        stream = args[1] if len(args) > 1 else kwargs.get("stream", 0)
        self._block_keys.add((int(seed), int(stream)))

    def _count_normals(self, args, kwargs) -> None:
        self._normals += int(args[1] if len(args) > 1 else kwargs["count"])

    def _count_scanned(self, args, kwargs) -> None:
        self._scanned += int(np.size(args[0] if args else kwargs["stats"]))

    def _count_resolved(self, args, kwargs) -> None:
        self._resolved += int(np.size(args[0] if args else kwargs["energies"]))

    def _count_csv(self, args, result) -> None:
        self._csv_bytes += os.path.getsize(args[0])

    def install(self, package: str = "crn_sense") -> None:
        """Wrap every boundary function in every loaded module of `package`."""
        for layer in LAYERS:
            try:
                importlib.import_module(f"{package}.{layer}")
            except ImportError:
                pass  # a removed module: its boundaries are reported absent
        modules = [m for n, m in sorted(sys.modules.items()) if n == package or n.startswith(package + ".")]
        hooks = {
            "signal_model.block_generator": (self._count_block, None),
            "signal_model.standard_normal": (self._count_normals, None),
            "montecarlo._band_masks": (self._count_scanned, None),
            "montecarlo._bisect_array": (self._count_resolved, None),
            "cli._write_csv": (None, self._count_csv),
        }
        self._buffer()  # the installing thread is slot 0, the run's main thread
        for name_id, (module_name, function) in enumerate(BOUNDARIES):
            home = sys.modules.get(f"{package}.{module_name}")
            original = getattr(home, function, None) if home is not None else None
            if not callable(original):
                self.absent.append(self.names[name_id])
                continue
            before, after = hooks.get(self.names[name_id], (None, None))
            wrapper = self._wrap(original, name_id, before, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
        montecarlo = sys.modules.get(f"{package}.montecarlo")
        pool = getattr(montecarlo, "ThreadPoolExecutor", None)
        if isinstance(pool, type):
            montecarlo.ThreadPoolExecutor = self._propagating(pool)

    def _propagating(self, pool: type) -> type:
        tracer = self

        def in_context(parent, fn, *args, **kwargs):
            buf = tracer._buffer()
            saved = buf.stack
            buf.stack = [parent] if parent >= 0 else []
            try:
                return fn(*args, **kwargs)
            finally:
                buf.stack = saved

        class PropagatingPool(pool):
            """The pool, with each task's spans parented to the submitter."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                with tracer._lock:
                    tracer._pool_workers[tracer._current()] = self._max_workers

            def submit(self, fn, /, *args, **kwargs):
                return super().submit(in_context, tracer._current(), fn, *args, **kwargs)

        return PropagatingPool

    # -- analysis ----------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """All spans as flat arrays; parent is a flat index or -1."""
        bufs = self._buffers
        sizes = np.array([len(b.start) for b in bufs], dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        name = np.concatenate([np.frombuffer(b.name, dtype=np.uint16) for b in bufs]).astype(np.int64)
        start = np.concatenate([np.frombuffer(b.start, dtype=np.int64) for b in bufs])
        end = np.concatenate([np.frombuffer(b.end, dtype=np.int64) for b in bufs])
        raw_parent = np.concatenate([np.frombuffer(b.parent, dtype=np.int64) for b in bufs])
        thread = np.repeat(np.arange(len(bufs)), sizes)
        has_parent = raw_parent >= 0
        parent = np.full(raw_parent.shape, -1, dtype=np.int64)
        parent[has_parent] = offsets[raw_parent[has_parent] >> _SLOT_SHIFT] + (raw_parent[has_parent] & _LOCAL_MASK)
        return {"name": name, "thread": thread, "start": start, "end": end, "parent": parent}

    def write_spans(self, path: str, spans: dict[str, np.ndarray]) -> None:
        np.savez(path, names=np.array(self.names), **spans)

    def _self_ns(self, spans: dict[str, np.ndarray]) -> np.ndarray:
        """Each span's duration minus the part of it its children cover."""
        start, end, parent, thread = spans["start"], spans["end"], spans["parent"], spans["thread"]
        dur = (end - start).astype(np.float64)
        has_parent = parent >= 0
        same = np.zeros(parent.shape, dtype=bool)
        same[has_parent] = thread[parent[has_parent]] == thread[has_parent]
        covered = np.bincount(parent[same], weights=dur[same], minlength=dur.size)
        # children on other threads may overlap each other: take their union
        cross = np.flatnonzero(has_parent & ~same)
        groups: dict[int, list[tuple[int, int]]] = {}
        for child in cross:
            p = int(parent[child])
            groups.setdefault(p, []).append((max(start[child], start[p]), min(end[child], end[p])))
        for p, intervals in groups.items():
            union, reach = 0, None
            for lo, hi in sorted(intervals):
                if reach is None or lo > reach:
                    union += max(0, hi - lo)
                    reach = hi
                elif hi > reach:
                    union += hi - reach
                    reach = hi
            covered[p] += union
        return dur - covered

    def metrics(self, spans: dict[str, np.ndarray], traced_wall_s: float) -> dict[str, float]:
        """Per-layer metrics of this run, except trace.overhead (needs the untraced run)."""
        n_names = len(self.names)
        name, parent, thread = spans["name"], spans["parent"], spans["thread"]
        dur_ns = (spans["end"] - spans["start"]).astype(np.float64)
        self_ns = self._self_ns(spans)
        calls = np.bincount(name, minlength=n_names)
        total_s = np.bincount(name, weights=dur_ns, minlength=n_names) / 1e9
        self_s = np.bincount(name, weights=self_ns, minlength=n_names) / 1e9
        ids = {n: i for i, n in enumerate(self.names)}
        parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)

        def c(n: str) -> int:
            return int(calls[ids[n]])

        def s(*ns: str) -> float:
            return float(sum(self_s[ids[n]] for n in ns))

        def under(child_names, parent_n: str) -> int:
            mask = np.isin(name, [ids[n] for n in child_names]) & (parent_name == ids[parent_n])
            return int(np.count_nonzero(mask))

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        def layer(prefix: str) -> float:
            return s(*(n for n in self.names if n.startswith(prefix + ".")))

        resolved_calls = c("analytic.resolved_occupied_probability")
        statistics = ids["montecarlo._statistics"]
        stat_spans = np.flatnonzero(name == statistics)
        workers = np.array([self._pool_workers.get(int(i), 1) for i in stat_spans], dtype=np.float64)
        fill_busy = float(dur_ns[np.isin(name, [ids[n] for n in FILLS])].sum())
        roots = (parent < 0) & (thread == 0)
        blocks = c("signal_model.block_generator")
        out = {
            "specfun.marcum_q.calls": c("specfun.marcum_q"),
            "specfun.marcum_q.self_s": s("specfun.marcum_q"),
            "specfun.marcum_q.us_per_call": ratio(total_s[ids["specfun.marcum_q"]] * 1e6, c("specfun.marcum_q")),
            "specfun.reg_upper_gamma.calls": c("specfun.reg_upper_gamma"),
            "specfun.reg_upper_gamma.self_s": s("specfun.reg_upper_gamma"),
            "specfun.gamma_calls_per_marcum": ratio(
                under(["specfun.reg_upper_gamma"], "specfun.marcum_q"), c("specfun.marcum_q")
            ),
            "specfun.gaussian_q.calls": c("specfun.gaussian_q"),
            "specfun.gaussian_q.self_s": s("specfun.gaussian_q"),
            "analytic.resolved_occupied_probability.calls": resolved_calls,
            "analytic.resolved_occupied_probability.self_s": s("analytic.resolved_occupied_probability"),
            "analytic.survival_evals": sum(c(n) for n in SURVIVALS),
            "analytic.survival_evals_per_resolved": ratio(
                under(SURVIVALS, "analytic.resolved_occupied_probability"), resolved_calls
            ),
            "analytic.bisection_probes": under(
                ["detector.bisection_optimum_threshold"], "analytic.resolved_occupied_probability"
            ),
            "analytic.pd_marcum.self_s": s("analytic.pd_marcum"),
            "detector.bisection_optimum_threshold.calls": c("detector.bisection_optimum_threshold"),
            "detector.bisection_optimum_threshold.self_s": s("detector.bisection_optimum_threshold"),
            "detector.single_threshold_decide.calls": c("detector.single_threshold_decide"),
            "signal_model.standard_normal.calls": c("signal_model.standard_normal"),
            "signal_model.standard_normal.self_s": s("signal_model.standard_normal"),
            "signal_model.normals_per_s": ratio(self._normals, s("signal_model.standard_normal")),
            "signal_model.bpsk_matrix.self_s": s("signal_model.bpsk_matrix"),
            "signal_model.block_generator.calls": blocks,
            "signal_model.block_generator.self_s": s("signal_model.block_generator"),
            "montecarlo.statistics.calls": c("montecarlo._statistics"),
            "montecarlo.statistics.self_s": s("montecarlo._statistics", *FILLS),
            "montecarlo.blocks_drawn": blocks,
            "montecarlo.unique_blocks": len(self._block_keys),
            "montecarlo.unique_block_ratio": ratio(len(self._block_keys), blocks),
            "montecarlo.parallel_efficiency": ratio(fill_busy, float((dur_ns[stat_spans] * workers).sum())),
            "montecarlo.decide.self_s": s(*DECIDE),
            "montecarlo.fuzzy_fraction": ratio(self._resolved, self._scanned),
            "cli.write_csv.calls": c("cli._write_csv"),
            "cli.write_csv.self_s": s("cli._write_csv"),
            "cli.bytes_written": self._csv_bytes,
            "cli.cmd.self_s": s(*COMMANDS),
            "trace.spans": int(name.size),
            "trace.coverage": ratio(float(dur_ns[roots].sum()) / 1e9, traced_wall_s),
        }
        for prefix in LAYERS:
            out[f"{prefix}.self_s"] = layer(prefix)
        return out
