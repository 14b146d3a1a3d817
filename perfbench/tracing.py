"""Per-layer spans recorded around calls into stretchnet's public functions.

``Tracer.install`` rebinds each traced function, in every stretchnet
module that holds it, to a wrapper that adds the call's wall time to a
per-layer sum.  Internal calls are therefore caught too (the verify
checks inside ``certify_boundary``, the rebuilds inside ``rotate``).
Spans nest: a metric already open on the stack is not counted twice, so
``tree.trees_s`` does not count ``enumerate_increasing_trees`` again when
``sample_increasing_trees`` calls it.  The two quadratic verify checks
are called a second time under ``tracemalloc`` for their peak memory,
outside the timed span, once per boundary size: their large arrays are
sized by the number of boundary segments.

Everything here is only used in the traced run; the end-to-end metrics
come from a run without it.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict

#: metric -> functions whose inclusive wall time it sums, as "module.attr".
TIMED = {
    "mesh.load_off_s": ["mesh.load_off"],
    "mesh.build_s": ["mesh.Polyhedron.build"],
    "transform.choose_rotation_s": ["transform.choose_rotation"],
    "transform.rotate_s": ["transform.rotate"],
    "transform.apply_linear_s": ["transform.apply_linear"],
    "tree.trees_s": [
        "tree.build_increasing_tree",
        "tree.enumerate_increasing_trees",
        "tree.sample_increasing_trees",
        "tree.enumerate_spanning_trees",
        "tree.SpanningTree.from_edges",
    ],
    "unfold.cut_s": ["unfold.cut"],
    "unfold.develop_s": ["unfold.develop"],
    "unfold.boundary_s": ["unfold.boundary_curve", "unfold.rebuild_boundary"],
    "unfold.layout_to_json_s": ["unfold.layout_to_json"],
    "unfold.check_fold_consistency_s": ["unfold.check_fold_consistency"],
    "verify.certify_boundary_s": ["verify.certify_boundary"],
    "verify.decompose_boundary_s": ["verify.decompose_boundary"],
    "verify.check_self_intersection_s": ["verify.check_self_intersection"],
    "verify.winding_injectivity_check_s": ["verify.winding_injectivity_check"],
}

#: timed metric -> metric for the tracemalloc peak of the same call.
PEAK = {
    "verify.check_self_intersection_s": "verify.check_self_intersection_peak_mb",
    "verify.winding_injectivity_check_s": "verify.winding_injectivity_check_peak_mb",
}

#: Probes the winding check offers besides its extra points (64 x 64 grid).
GRID_PROBES = 64 * 64


def _resolve(path: str):
    """(owner object, attribute name, function) for "module.attr[.attr]"."""
    mod, *attrs = path.split(".")
    owner = sys.modules[f"stretchnet.{mod}"]
    for a in attrs[:-1]:
        owner = getattr(owner, a)
    return owner, attrs[-1], getattr(owner, attrs[-1])


class Tracer:
    def __init__(self):
        self.seconds = defaultdict(float)
        self.peak_mb = defaultdict(float)
        self.counts = defaultdict(int)
        self._open: set = set()
        self._excluded = 0.0
        self._peaked: set = set()  # (metric, boundary size) already measured

    # -- recording ------------------------------------------------------

    @contextlib.contextmanager
    def _timing(self, metric):
        """Add the enclosed wall time to ``metric`` unless it is already open,
        minus any time spent measuring peaks inside it."""
        if metric in self._open:
            yield
            return
        self._open.add(metric)
        t0, excluded0 = time.perf_counter(), self._excluded
        try:
            yield
        finally:
            self.seconds[metric] += time.perf_counter() - t0 - (self._excluded - excluded0)
            self._open.discard(metric)

    def _span(self, metric, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    with self._timing(metric):
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._timing(metric):
                result = fn(*args, **kwargs)
            self._observe(fn.__name__, args, kwargs, result)
            if metric in PEAK and (metric, len(args[0])) not in self._peaked:
                self._peaked.add((metric, len(args[0])))
                self._measure_peak(PEAK[metric], fn, args, kwargs)
            return result
        return wrapper

    def _measure_peak(self, metric, fn, args, kwargs):
        t0 = time.perf_counter()
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        self.peak_mb[metric] = max(self.peak_mb[metric], peak)
        self._excluded += time.perf_counter() - t0

    def _observe(self, name, args, kwargs, result):
        c = self.counts
        if name == "develop":
            c["work.unfoldings"] += 1
            c["work.faces_developed"] += len(result.face_points)
        elif name == "check_self_intersection":
            m = len(args[0])
            c["work.boundary_segments"] += m
            c["work.segment_pairs"] += m * (m - 1) // 2
            c["contacts"] += sum(w.seg_a is not None for w in result.witnesses)
        elif name == "winding_injectivity_check":
            extra = kwargs.get("extra_points", args[2] if len(args) > 2 else ())
            probes = GRID_PROBES + len(extra)
            c["work.winding_probe_segments"] += probes * len(args[0])
            c["probes"] += probes
            c["winding_outside_0_1"] += len(result.witnesses)
        elif name == "certify_boundary":
            c["work.witnesses"] += len(result.witnesses)

    # -- installation ---------------------------------------------------

    def install(self):
        """Rebind every traced function wherever stretchnet holds it."""
        for metric, paths in TIMED.items():
            for path in paths:
                owner, attr, fn = _resolve(path)
                if isinstance(owner, type):
                    raw = owner.__dict__[attr].__func__
                    setattr(owner, attr, classmethod(self._span(metric, raw)))
                    continue
                self._rebind(fn, self._span(metric, fn))

    @staticmethod
    def _rebind(original, replacement):
        for name, mod in list(sys.modules.items()):
            if name == "stretchnet" or name.startswith("stretchnet."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, replacement)

    def metrics(self, rounds: int) -> dict:
        """Per-round times and counts (every round does the same work),
        peak memory over the run, and the two useful-to-attempted ratios."""
        c = self.counts
        out = {m: (self.seconds[m] / rounds, "s") for m in TIMED}
        for m in PEAK.values():
            out[m] = (self.peak_mb[m], "MB")
        for m in ("work.unfoldings", "work.faces_developed", "work.boundary_segments",
                  "work.segment_pairs", "work.winding_probe_segments", "work.witnesses"):
            out[m] = (c[m] // rounds, "count")
        out["verify.contact_ratio"] = (c["contacts"] / max(1, c["work.segment_pairs"]), "ratio")
        out["verify.winding_useful_ratio"] = (c["winding_outside_0_1"] / max(1, c["probes"]), "ratio")
        return out
