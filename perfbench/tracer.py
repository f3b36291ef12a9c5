"""Outside-in tracer: times kslab's layers without changing kslab.

``install`` replaces the public functions of the layer modules with timing
wrappers, and rebinds every name under which another kslab module imported
them (``from .energy import ks_energy_many`` in ``smoothing``, ``run_suite``
in ``cli``, ...).  ``MeasuredPointCloud.ball_chunks`` is timed per ``next()``,
so work a consumer does between two yields is not charged to the ball layer.

Spans (name, start, end, parent, tag) stay in memory and are written once,
at the end of the run.  ``summarize`` turns them into the per-layer metrics
the benchmark reports.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time

LAYERS = ("space", "energy", "smoothing", "poincare", "graphform", "convergence", "suites", "cli")

SUITE_NAMES = ("doubling", "energy", "smoothing", "poincare", "graphform", "convergence")

ENERGY_FUNCTIONS = (
    "ks_energy",
    "ks_energy_many",
    "ks_energy_density",
    "raw_increment_sum",
    "energy_sweep",
    "fit_walk_dimension",
)

# Per-layer metrics of a traced run, in report order, with their units.
PER_LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("space.ball_chunks.self_s", "s"),
    ("space.ball_chunks.passes", "count"),
    ("space.ball_chunks.repeat_passes", "count"),
    ("space.ball_members", "count"),
    ("space.ball_ids.calls", "count"),
    ("space.ball_ids.self_s", "s"),
    ("space.build_cloud.total_s", "s"),
    ("energy.self_s", "s"),
    *((f"energy.{fn}.calls", "count") for fn in ENERGY_FUNCTIONS),
    ("smoothing.check_controlled_cutoff.total_s", "s"),
    ("smoothing.mollifier_estimates.total_s", "s"),
    ("smoothing.self_s", "s"),
    ("poincare.total_s", "s"),
    ("poincare.self_s", "s"),
    ("convergence.total_s", "s"),
    ("convergence.self_s", "s"),
    ("graphform.spectrum.self_s", "s"),
    ("graphform.spectrum.calls", "count"),
    ("graphform.spectrum.repeat_solves", "count"),
    ("graphform.dense_n3_e9", "1e9"),
    ("graphform.intrinsic_metric.self_s", "s"),
    ("graphform.fit_subgaussian.total_s", "s"),
    ("graphform.heat_kernel.calls", "count"),
    ("graphform.build_form.calls", "count"),
    *((f"suites.{name}_s", "s") for name in SUITE_NAMES),
    ("suites.resolve_walk_dimension_s", "s"),
    ("cli.rest_s", "s"),
    ("trace.overhead_s", "s"),
)

# Counters that repeat exactly between two traced runs of the same code.
EXACT_COUNTERS = (
    "space.ball_chunks.passes",
    "space.ball_chunks.repeat_passes",
    "space.ball_members",
    "space.ball_ids.calls",
    "graphform.spectrum.calls",
    "graphform.spectrum.repeat_solves",
    "graphform.dense_n3_e9",
    "graphform.heat_kernel.calls",
)


class Tracer:
    """Span recorder and work counters for one kslab process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, tag]
        self._stack: list[int] = []
        self.counts = {
            "space.ball_chunks.passes": 0,
            "space.ball_chunks.repeat_passes": 0,
            "space.ball_members": 0,
            "graphform.spectrum.repeat_solves": 0,
            "graphform.dense_n3": 0,
        }
        self._passes_seen: set = set()
        self._forms_seen: set = set()
        # Clouds stay referenced so that their id() cannot be reused by a
        # later cloud within the run.
        self._clouds: list = []

    def begin(self, name: str, tag=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.monotonic(), None, parent, tag])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.monotonic()
        self._stack.pop()

    def wrap(self, name: str, fn, on_call=None):
        """Return ``fn`` timed as a span named ``name``.

        ``on_call(args, kwargs)`` may count work and returns the span's tag.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = on_call(args, kwargs) if on_call is not None else None
            idx = self.begin(name, tag)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced

    def _suite_tag(self, args, kwargs):
        return args[0] if args else kwargs.get("name")

    def _count_spectrum(self, args, kwargs):
        form = args[0] if args else kwargs["form"]
        key = (form.kind, form.n)
        if key in self._forms_seen:
            self.counts["graphform.spectrum.repeat_solves"] += 1
        self._forms_seen.add(key)
        if form.n <= self._dense_limit:
            self.counts["graphform.dense_n3"] += form.n**3
        return f"{form.kind}:{form.n}"

    def _wrap_ball_chunks(self, fn):
        tracer = self

        @functools.wraps(fn)
        def ball_chunks(cloud, r, centers=None, *args, **kwargs):
            if centers is None:
                digest = "all"
            else:
                digest = hashlib.blake2b(_intp_bytes(centers), digest_size=16).hexdigest()
            key = (id(cloud), float(r), digest)
            tracer.counts["space.ball_chunks.passes"] += 1
            if key in tracer._passes_seen:
                tracer.counts["space.ball_chunks.repeat_passes"] += 1
            else:
                tracer._passes_seen.add(key)
                tracer._clouds.append(cloud)
            gen = fn(cloud, r, centers, *args, **kwargs)
            try:
                while True:
                    idx = tracer.begin("space.ball_chunks")
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.end(idx)
                    tracer.counts["space.ball_members"] += int(item[1].size)
                    yield item
            finally:
                gen.close()

        return ball_chunks

    def install(self) -> None:
        """Wrap the public functions of every layer module, in place."""
        import kslab.cli  # noqa: F401  (loads every layer module)

        modules = {layer: sys.modules[f"kslab.{layer}"] for layer in LAYERS}
        self._dense_limit = modules["graphform"].DENSE_EIGEN_LIMIT
        hooks = {
            "suites.run_suite": self._suite_tag,
            "graphform.spectrum": self._count_spectrum,
        }
        wrapped: dict = {}
        for layer, mod in modules.items():
            names = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for attr in names:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    span = f"{layer}.{attr}"
                    wrapped[fn] = self.wrap(span, fn, hooks.get(span))

        cloud_cls = modules["space"].MeasuredPointCloud
        cloud_cls.ball_chunks = self._wrap_ball_chunks(cloud_cls.ball_chunks)
        cloud_cls.ball_ids = self.wrap("space.ball_ids", cloud_cls.ball_ids)

        # Rebind the module attribute and every by-name import of it.
        for modname, mod in list(sys.modules.items()):
            if modname != "kslab" and not modname.startswith("kslab."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(mod, attr, wrapped[value])

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}


def _intp_bytes(centers) -> bytes:
    import numpy as np

    return np.ascontiguousarray(np.asarray(centers, dtype=np.intp)).tobytes()


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(trace: dict, run_s: float, setup_s: float, untraced_run_s: float) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans and counters.

    A span's self time is its duration minus that of its direct children.
    ``<layer>.total_s`` sums the spans of a layer that have no ancestor in
    the same layer; ``<fn>.total_s`` does the same per function.
    """
    spans = trace["spans"]
    counts = trace["counts"]
    n = len(spans)
    duration = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += duration[i]

    calls: dict[str, int] = {}
    self_by_name: dict[str, float] = {}
    self_by_layer: dict[str, float] = {}
    total_by_name: dict[str, float] = {}
    total_by_layer: dict[str, float] = {}
    suite_s: dict[str, float] = {}
    for i, (name, _start, _end, parent, tag) in enumerate(spans):
        layer = _layer(name)
        own = duration[i] - child[i]
        calls[name] = calls.get(name, 0) + 1
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + own
        outer_name = outer_layer = True
        p = parent
        while p >= 0 and (outer_name or outer_layer):
            outer_name = outer_name and spans[p][0] != name
            outer_layer = outer_layer and _layer(spans[p][0]) != layer
            p = spans[p][3]
        if outer_name:
            total_by_name[name] = total_by_name.get(name, 0.0) + duration[i]
        if outer_layer:
            total_by_layer[layer] = total_by_layer.get(layer, 0.0) + duration[i]
        if name == "suites.run_suite":
            suite_s[tag] = suite_s.get(tag, 0.0) + duration[i]

    values: dict[str, float] = {}
    for metric, _unit in PER_LAYER_METRICS:
        head, _, stat = metric.rpartition(".")
        if stat == "calls":
            values[metric] = calls.get(head, 0)
        elif stat == "self_s":
            values[metric] = (self_by_layer if "." not in head else self_by_name).get(head, 0.0)
        elif stat == "total_s":
            values[metric] = (total_by_layer if "." not in head else total_by_name).get(head, 0.0)
    for key in (
        "space.ball_chunks.passes",
        "space.ball_chunks.repeat_passes",
        "space.ball_members",
        "graphform.spectrum.repeat_solves",
    ):
        values[key] = counts[key]
    values["graphform.dense_n3_e9"] = counts["graphform.dense_n3"] / 1e9
    for name in SUITE_NAMES:
        values[f"suites.{name}_s"] = suite_s.get(name, 0.0)
    values["suites.resolve_walk_dimension_s"] = total_by_name.get("suites.resolve_walk_dimension", 0.0)
    values["cli.rest_s"] = run_s - setup_s - sum(suite_s.values())
    values["trace.overhead_s"] = run_s - untraced_run_s
    return {metric: values[metric] for metric, _unit in PER_LAYER_METRICS}
