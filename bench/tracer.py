"""Layer spans for the traced run, recorded from outside the package.

``Tracer.install`` wraps every public function and method of the splitlab
layer modules, and ``numpy.linalg.eigh``/``eigvalsh``/``svd``/``norm``.
A wrapped layer call records a span (name, start, end, parent) in memory;
a wrapped factorization is counted on the innermost open span. A name that
one module imported from another (``from .operators import embed``) is a
second binding, so every binding in every splitlab module is replaced.
``verify`` looks up ``ops.trace_norm`` at call time, which the module-level
replacement already covers.

``aggregate`` turns the spans of one traced call into the per-layer
metrics of ``metric_table``. Nothing here imports splitlab, and numpy only
inside the functions that need it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from pathlib import Path

LAYERS = ("operators", "models", "code_space", "splitting", "no_hiding",
          "structure", "dynamics", "verify", "cli")

# named span metrics: metric -> the spans it sums. A time is the span time
# of the outermost matching spans, so nested matches are not counted twice.
NAMED_TIMES = {
    "models.build_s": (
        "models.repetition_model", "models.four_two_two_model",
        "models.random_commuting_model", "models.two_local_model",
        "models.stabilizer_hamiltonian", "models.model_from_json",
        "models.block_sites", "models.LocalModel.hamiltonian"),
    "structure.sector_projectors_s": ("structure.sector_projectors",),
    "structure.detect_multi_sector_s": ("structure.detect_multi_sector",),
    "structure.factor_ground_projector_s": ("structure.factor_ground_projector",),
    "splitting.ascent_s": ("splitting.worst_single_site_ascent",),
    "dynamics.evolve_mixture_s": ("dynamics.evolve_mixture",),
    "dynamics.gap_bound_check_s": ("dynamics.gap_bound_check",),
    "dynamics.fidelity_bound_check_s": ("dynamics.fidelity_bound_check",),
    "dynamics.predict_dephasing_s": ("dynamics.predict_dephasing",),
    "no_hiding.subspace_pair_score_scan_s": ("no_hiding.subspace_pair_score_scan",),
}
NAMED_CALLS = {
    "code_space.ground_subspace_calls": "code_space.ground_subspace",
    "splitting.ids_calls": "splitting.ids",
    "no_hiding.no_hiding_witness_calls": "no_hiding.no_hiding_witness",
    "no_hiding.pair_side_norms_calls": "no_hiding.pair_side_norms",
    "operators.embed_calls": "operators.embed",
    "operators.partial_trace_calls": "operators.partial_trace",
    "operators.herm_propagator_calls": "operators.herm_propagator",
}
# the battery's check functions; run_battery calls them through module
# globals, so their spans give the true time of each check
VERIFY_CHECKS = (
    "check_ids_duality", "check_stabilizer_examples", "check_no_hiding",
    "check_two_site_attack", "check_commuting_attack", "check_gap_bound",
    "check_dephasing_scaling", "check_coherence_time", "check_fidelity_bound",
    "check_bath_embedding", "check_factorization")
NAMED_TIMES.update({f"verify.{c}_s": (f"verify.{c}",) for c in VERIFY_CHECKS})

# the span whose output size gives operators.embed_mb: 16 D^2 bytes each
EMBED = "operators.embed"

# Array accessors called about 1.5 million times by `verify --full`: a span
# around each would cost more than their bodies. Their time is their
# caller's self time.
UNTRACED = {"operators.mat_of", "operators.total_dim"}


def metric_table() -> list[dict]:
    """Every per-layer metric with its unit and direction, in print order."""
    table = []
    for layer in LAYERS:
        table += [
            {"name": f"{layer}.self_s", "unit": "s", "better": "lower"},
            {"name": f"{layer}.calls", "unit": "count", "better": "lower"},
            {"name": f"{layer}.eigh_calls", "unit": "count", "better": "lower"},
            {"name": f"{layer}.svd_calls", "unit": "count", "better": "lower"},
            # computed from matrix shapes, not measured
            {"name": f"{layer}.factor_gflop", "unit": "n3/1e9", "better": "lower"},
        ]
    named = [{"name": m, "unit": "s", "better": "lower"} for m in NAMED_TIMES]
    named += [{"name": m, "unit": "count", "better": "lower"} for m in NAMED_CALLS]
    named.append({"name": "operators.embed_mb", "unit": "MB", "better": "lower"})
    table += sorted(named, key=lambda m: m["name"])
    table += [
        {"name": "trace.overhead_s", "unit": "s", "better": "lower"},
        {"name": "trace.span_coverage", "unit": "fraction", "better": "higher"},
    ]
    return table


def _factor_gflop(shape) -> float:
    """n^3/1e9 per factorization of an n x n matrix (m n min(m, n) if not square)."""
    if len(shape) < 2:
        return 0.0
    m, n = shape[-2], shape[-1]
    batch = 1
    for b in shape[:-2]:
        batch *= b
    return batch * m * n * min(m, n) / 1e9


class Tracer:
    """Spans of one process, kept in memory until ``dump``.

    A span is (name id, start, end, parent index). Factorization counts
    and embed output sizes are kept apart, keyed by span index, since few
    spans have them.
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.stack: list[int] = [-1]           # index of the innermost open span
        self.counts: dict[int, list] = {}      # span -> [eigh, svd, gflop]
        self.out_bytes: dict[int, int] = {}    # embed span -> 16 D^2

    def _span(self, fn, name: str):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        out_bytes = self.out_bytes
        name_id = len(self.names)
        self.names.append(name)
        sized = name == EMBED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent)
            if sized:
                out_bytes[idx] = 16 * out.shape[0] * out.shape[1]
            return out

        return wrapper

    def _counted(self, fn, field: int, counts_as_factorization):
        counts, stack = self.counts, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and counts_as_factorization(args, kwargs):
                acc = counts.setdefault(top, [0, 0, 0.0])
                acc[field] += 1
                acc[2] += _factor_gflop(getattr(args[0], "shape", ()))
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap the layer functions and the numpy factorizations."""
        import numpy as np

        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"splitlab.{layer}")
            for name, obj in list(vars(mod).items()):
                qualname = f"{layer}.{name}"
                if (name.startswith("_") or qualname in UNTRACED
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._span(obj, qualname)
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, qualname)
        for modname, mod in list(sys.modules.items()):
            if modname != "splitlab" and not modname.startswith("splitlab."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])

        def always(args, kwargs):
            return True

        def spectral_norm(args, kwargs):
            order = args[1] if len(args) > 1 else kwargs.get("ord")
            return order in (2, -2, "nuc") and getattr(args[0], "ndim", 0) >= 2

        linalg = np.linalg
        linalg.eigh = self._counted(linalg.eigh, 0, always)
        linalg.eigvalsh = self._counted(linalg.eigvalsh, 0, always)
        linalg.svd = self._counted(linalg.svd, 1, always)
        linalg.norm = self._counted(linalg.norm, 1, spectral_norm)

    def _wrap_methods(self, cls, qualname: str):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(val):
                setattr(cls, attr, self._span(val, f"{qualname}.{attr}"))
            elif isinstance(val, (classmethod, staticmethod)):
                setattr(cls, attr, type(val)(self._span(val.__func__, f"{qualname}.{attr}")))

    def dump(self, path: Path, wall_s: float):
        """Write the spans of the traced call as a numpy ``.npz`` archive."""
        import numpy as np

        path.parent.mkdir(parents=True, exist_ok=True)
        count_idx = sorted(self.counts)
        embed_idx = sorted(self.out_bytes)
        np.savez(
            path, wall_s=wall_s, names=np.array(self.names),
            spans=np.array(self.spans, dtype=float).reshape(-1, 4),
            count_idx=np.array(count_idx, dtype=np.int64),
            counts=np.array([self.counts[i] for i in count_idx], dtype=float).reshape(-1, 3),
            embed_idx=np.array(embed_idx, dtype=np.int64),
            embed_bytes=np.array([self.out_bytes[i] for i in embed_idx], dtype=float))


def aggregate(trace, untraced_wall_s: float) -> dict:
    """Per-layer metrics of one traced call, keyed as in ``metric_table``.

    ``trace`` maps the arrays that ``Tracer.dump`` writes.
    """
    import numpy as np

    names = [str(n) for n in trace["names"]]
    spans = np.asarray(trace["spans"], dtype=float).reshape(-1, 4)
    name = spans[:, 0].astype(np.int64)
    parent = spans[:, 3].astype(np.int64)
    dur = spans[:, 2] - spans[:, 1]
    n = len(spans)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
    layer_of_name = np.array([LAYERS.index(nm.split(".", 1)[0]) for nm in names],
                             dtype=np.int64)
    layer = layer_of_name[name] if n else np.zeros(0, dtype=np.int64)
    nl = len(LAYERS)
    self_s = np.bincount(layer, weights=dur - child, minlength=nl)
    calls = np.bincount(layer, minlength=nl)
    counts = np.asarray(trace["counts"], dtype=float).reshape(-1, 3)
    counted_layer = layer[np.asarray(trace["count_idx"], dtype=np.int64)]
    eigh = np.bincount(counted_layer, weights=counts[:, 0], minlength=nl)
    svd = np.bincount(counted_layer, weights=counts[:, 1], minlength=nl)
    gflop = np.bincount(counted_layer, weights=counts[:, 2], minlength=nl)

    out = {}
    for k, lay in enumerate(LAYERS):
        out[f"{lay}.self_s"] = float(self_s[k])
        out[f"{lay}.calls"] = int(calls[k])
        out[f"{lay}.eigh_calls"] = int(eigh[k])
        out[f"{lay}.svd_calls"] = int(svd[k])
        out[f"{lay}.factor_gflop"] = float(gflop[k])
    for metric, targets in NAMED_TIMES.items():
        ids = [names.index(t) for t in targets if t in names]
        member = np.isin(name, ids)
        outermost = member.copy()
        anc = np.where(member, parent, -1)
        while (anc >= 0).any():
            live = anc >= 0
            outermost[live] &= ~np.isin(name[anc[live]], ids)
            anc[live] = parent[anc[live]]
        out[metric] = float(dur[outermost].sum())
    for metric, target in NAMED_CALLS.items():
        out[metric] = int((name == names.index(target)).sum()) if target in names else 0
    out["operators.embed_mb"] = float(np.sum(trace["embed_bytes"])) / 1e6
    wall = float(trace["wall_s"])
    out["trace.overhead_s"] = wall - untraced_wall_s
    out["trace.span_coverage"] = float(dur[~nested].sum()) / wall
    return out
