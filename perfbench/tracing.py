"""Per-layer tracing for the benchmark, installed from outside the package.

``install(tracer)`` wraps the public functions of each ``semireg`` layer and
rebinds every module-level reference to them, so a call through
``semireg.engine.minimal_normal_subgroups`` or ``semireg.cli.find_semiregular``
is counted as well as one through the defining module. Nothing under
``src/`` is edited; ``uninstall()`` restores the originals.

Coarse calls are kept as spans in memory: (name, start, end, parent index,
leaf seconds). The hot leaves (``perm.*``, ``group.sift``,
``group.iter_elements`` and ``kernels.*``) run over a million times per
workload, so only their call counts and self time are aggregated. A span's
self time is its duration minus the durations of the wrapped calls directly
inside it; ``self_times`` computes it from the stored spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from measure import percentile

_clock = time.perf_counter

# (metric prefix, module, attribute path, kind); kind "leaf" aggregates only
TARGETS = [
    ("perm.mul", "semireg.perm", "Permutation.__mul__", "leaf"),
    ("perm.inverse", "semireg.perm", "Permutation.inverse", "leaf"),
    ("perm.pow", "semireg.perm", "Permutation.__pow__", "leaf"),
    ("perm.order", "semireg.perm", "Permutation.order", "leaf"),
    ("perm.is_semiregular", "semireg.perm", "Permutation.is_semiregular", "leaf"),
    ("perm.is_identity", "semireg.perm", "Permutation.is_identity", "leaf"),
    ("group.chain_build", "semireg.group", "StabilizerChain.__init__", "span"),
    ("group.sift", "semireg.group", "StabilizerChain.contains_array", "leaf"),
    ("group.iter_elements", "semireg.group", "StabilizerChain.iter_elements", "generator"),
    ("group.minimal_normal_subgroups", "semireg.group", "minimal_normal_subgroups", "span"),
    ("group.action_on_partition", "semireg.group", "action_on_partition", "span"),
    ("group.semiregular_of_prime_power_degree", "semireg.group",
     "semiregular_of_prime_power_degree", "span"),
    ("group.normalizes", "semireg.group", "normalizes", "span"),
    ("group.is_subgroup", "semireg.group", "is_subgroup", "span"),
    ("group.lift_semiregular", "semireg.group", "lift_semiregular", "span"),
    ("graphs.graph_build", "semireg.graphs", "Graph.__init__", "span"),
    ("graphs.is_automorphism", "semireg.graphs", "Graph.is_automorphism", "span"),
    ("graphs.is_arc_transitive", "semireg.graphs", "is_arc_transitive", "span"),
    ("graphs.quotient_graph", "semireg.graphs", "quotient_graph", "span"),
    ("graphs.girth", "semireg.graphs", "Graph.girth", "span"),
    ("graphs.is_connected", "semireg.graphs", "Graph.is_connected", "span"),
    ("graphs.coset_graph", "semireg.graphs", "coset_graph", "span"),
    ("families.corpus_generate", "semireg.families", "corpus_generate", "span"),
    ("families.praeger_xu", "semireg.families", "praeger_xu", "span"),
    ("families.praeger_xu_group", "semireg.families", "praeger_xu_group", "span"),
    ("families.psl2_coset_instance", "semireg.families", "psl2_coset_instance", "span"),
    ("families.k12_m11", "semireg.families", "k12_m11", "span"),
    ("engine.find_semiregular", "semireg.engine", "find_semiregular", "span"),
    ("engine.verify_certificate", "semireg.engine", "verify_certificate", "span"),
    ("formats.read_graph_auto", "semireg.formats", "read_graph_auto", "span"),
    ("formats.write_graph6", "semireg.formats", "write_graph6", "span"),
    ("formats.parse_generators", "semireg.formats", "parse_generators", "span"),
    ("formats.format_generators", "semireg.formats", "format_generators", "span"),
    ("formats.certificate_to_document", "semireg.formats", "certificate_to_document", "span"),
    ("formats.document_to_json", "semireg.formats", "document_to_json", "span"),
    ("formats.parse_certificate_document", "semireg.formats",
     "parse_certificate_document", "span"),
    ("cli.main", "semireg.cli", "main", "span"),
]

KERNELS = (
    "point_cycle_lengths",
    "is_semiregular_images",
    "orbit_mask",
    "density_closure_mask",
    "triangle_witness",
    "arc_orbit_size",
)
TARGETS += [(f"kernels.{k}", "semireg._kernels", k, "leaf") for k in KERNELS]

METHODS = ("direct-search", "prime-power", "quotient-lift", "buddy-swap", "exhausted-none")


def kernel_elems(name, args) -> int:
    """Input size a kernel call processes: array entries, times generators
    for the arc-orbit walk."""
    if name in ("point_cycle_lengths", "is_semiregular_images"):
        return int(args[0].size)
    if name == "orbit_mask":
        return int(args[0].size)
    if name == "arc_orbit_size":
        return int(args[1].size) * int(args[3].shape[0])
    return int(args[1].size)  # density_closure_mask, triangle_witness: CSR indices


class Tracer:
    """Span stack, stored coarse spans and aggregated leaf counters."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, leaf_s, error]
        self.leaf_calls: dict[str, int] = defaultdict(int)
        self.leaf_self: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.certs: list = []  # certificates find_semiregular returned
        # open frames: [span index or None for a leaf, start, wrapped child s]
        self._stack: list[list] = []

    def span(self, name, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, 0.0, False])
        frame = [idx, _clock(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.spans[idx][5] = True
            raise
        finally:
            end = _clock()
            self._stack.pop()
            rec = self.spans[idx]
            rec[1], rec[2] = frame[1], end
            if self._stack:
                self._stack[-1][2] += end - frame[1]

    def leaf(self, name, fn, args, kwargs, count=1):
        frame = [None, _clock(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = _clock()
            self._stack.pop()
            dur = end - frame[1]
            self.leaf_calls[name] += count
            self.leaf_self[name] += dur - frame[2]
            if self._stack:
                parent = self._stack[-1]
                parent[2] += dur
                if parent[0] is not None:
                    self.spans[parent[0]][4] += dur

    def inclusive(self, name) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]


def self_times(spans) -> dict[str, float]:
    """Self seconds per name: each span's duration minus its wrapped children.

    ``spans`` holds (name, start, end, parent index, leaf seconds, ...)
    records; leaf seconds are the aggregated durations of hot-leaf calls made
    directly inside the span.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] is not None:
            child[s[3]] += s[2] - s[1]
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        out[s[0]] += (s[2] - s[1]) - child[i] - s[4]
    return dict(out)


def _wrap(tracer, name, fn, kind):
    if name == "engine.find_semiregular":
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cert = tracer.span(name, fn, args, kwargs)
            tracer.certs.append(cert)
            return cert
    elif kind == "span":
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.span(name, fn, args, kwargs)
    elif kind == "generator":
        # self time is the time spent inside next(); the consumer's work
        # between items belongs to the caller
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.leaf_calls[name] += 1
            it = iter(fn(*args, **kwargs))
            step = functools.partial(next, it)
            while True:
                try:
                    item = tracer.leaf(name, step, (), {}, count=0)
                except StopIteration:
                    return
                tracer.counters[name + ".yielded"] += 1
                yield item
    elif name.startswith("kernels."):
        kernel = name.split(".", 1)[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counters[name + ".elems"] += kernel_elems(kernel, args)
            return tracer.leaf(name, fn, args, kwargs)
    elif name == "group.sift":
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hit = tracer.leaf(name, fn, args, kwargs)
            if hit:
                tracer.counters[name + ".hits"] += 1
            return hit
    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.leaf(name, fn, args, kwargs)
    return wrapper


def _semireg_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "semireg" or k.startswith("semireg."))]


_installed: list[tuple[object, str, object]] = []


def install(tracer: Tracer) -> None:
    """Wrap every target and rebind each module-level reference to it."""
    import importlib

    if _installed:
        raise RuntimeError("tracing is already installed")
    for mod in {t[1] for t in TARGETS} | {"semireg.cli", "semireg.engine"}:
        importlib.import_module(mod)
    modules = _semireg_modules()
    for name, modname, attr, kind in TARGETS:
        owner = sys.modules[modname]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[leaf]
        wrapper = _wrap(tracer, name, original, kind)
        setattr(owner, leaf, wrapper)
        _installed.append((owner, leaf, original))
        if not path:
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original and mod is not owner:
                        setattr(mod, key, wrapper)
                        _installed.append((mod, key, original))


def uninstall() -> None:
    while _installed:
        owner, key, original = _installed.pop()
        setattr(owner, key, original)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Every per-layer metric as {name: (value, unit)}, zero where a layer
    did not run, plus the traced wall time and the part of it no wrapped
    call accounts for."""
    selfs = self_times(tracer.spans)
    calls: dict[str, int] = defaultdict(int)
    errors: dict[str, int] = defaultdict(int)
    for s in tracer.spans:
        calls[s[0]] += 1
        errors[s[0]] += s[5]
    for name, n in tracer.leaf_calls.items():
        calls[name] += n
        selfs[name] = selfs.get(name, 0.0) + tracer.leaf_self[name]
    out: dict[str, tuple] = {}
    attributed = 0.0
    for name, *_ in TARGETS:
        self_s = selfs.get(name, 0.0)
        attributed += self_s
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s, "s")
    sift = calls["group.sift"]
    out["group.sift.hit_ratio"] = (
        tracer.counters["group.sift.hits"] / sift if sift else 0.0, "ratio")
    out["group.iter_elements.yielded"] = (
        int(tracer.counters["group.iter_elements.yielded"]), "count")
    out["group.lift_semiregular.errors"] = (errors["group.lift_semiregular"], "count")
    coset = calls["graphs.coset_graph"]
    out["graphs.coset_graph.ok_ratio"] = (
        (coset - errors["graphs.coset_graph"]) / coset if coset else 0.0, "ratio")
    find_ms = [d * 1e3 for d in tracer.inclusive("engine.find_semiregular")]
    out["engine.find_semiregular.ms_p50"] = (percentile(find_ms, 50) if find_ms else 0.0, "ms")
    out["engine.find_semiregular.ms_p80"] = (percentile(find_ms, 80) if find_ms else 0.0, "ms")
    # verifications per certificate returned: find_semiregular checks its own
    # answer, and the caller (CLI, corpus worker or benchmark) checks it again
    certs = tracer.certs
    verify_calls = calls["engine.verify_certificate"]
    out["engine.verify_certificate.calls_per_op"] = (
        verify_calls / len(certs) if certs else 0.0, "ratio")
    for method in METHODS:
        out[f"engine.method.{method}"] = (sum(c.method == method for c in certs), "count")
    out["engine.trace_steps"] = (sum(len(c.trace) for c in certs), "count")
    for k in KERNELS:
        out[f"kernels.{k}.elems"] = (int(tracer.counters[f"kernels.{k}.elems"]), "count")
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.unattributed_s"] = (wall_s - attributed, "s")
    return out
