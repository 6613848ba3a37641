"""Outside-in tracing of specscale's layers.

``Tracer.install`` replaces the public functions of the layer modules
with timing wrappers, in every specscale module namespace that holds
them (``from .algebra import psi`` makes a second reference), and
``Tracer.remove`` puts the originals back.  No source file changes.

Each call becomes a span ``(id, parent id, op id, name, start, end)``
kept in flat arrays; a layer's self time is its span's duration minus
the durations of its child spans.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, attribute path) of every traced entry point; a class means its
# constructor.  Span names are "<module>.<attribute path>".
TARGETS = (
    ("algebra", "tuple_from_json"),
    ("algebra", "linear_combination"),
    ("algebra", "psi"),
    ("algebra", "Compression"),
    ("algebra", "generated_algebra_basis"),
    ("algebra", "HermitianOperator"),
    ("spectral", "decompose"),
    ("spectral", "interval_from_spectrum"),
    ("spectral", "projection_leq"),
    ("scale", "exposed_face"),
    ("scale", "extreme_point_cloud"),
    ("scale", "ExtremePointCloud.add"),
    ("scale", "waterfill"),
    ("scale", "scale_dimension"),
    ("faces", "normal_cone"),
    ("faces", "minimal_exposed_chain"),
    ("structure", "detect_central"),
    ("structure", "detect_gap"),
    ("structure", "abelian_verdict"),
    ("structure", "isolated_extremes_to_center"),
    ("oracle", "sample_unit_ball"),
    ("oracle", "PointCloudHull"),
    ("cli", "main"),
)
EIGH = "spectral.eigh"  # numpy.linalg.eigh, as called by specscale
SPAN_NAMES = tuple(f"{m}.{a}" for m, a in TARGETS) + (EIGH,)
PACKAGE = "specscale"


class Tracer:
    """Span recorder for one traced pass at a time."""

    def __init__(self):
        self._patches = []  # (owner, attribute, original)
        self.op_id = -1
        self.reset()

    def reset(self):
        self.ids = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.names = array("h")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._next = 0
        self.eigh_work_d3 = 0
        self.cloud_adds_kept = 0
        self.cone_depth = 0
        self.cone_intervals = 0
        self.cone_members = 0

    # -- patching -------------------------------------------------------

    @staticmethod
    def _modules():
        return [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def owners(self):
        """Every namespace a wrapper can be put in: the package's modules,
        their classes, and numpy.linalg."""
        mods = self._modules()
        classes = {id(v): v for m in mods for v in vars(m).values() if isinstance(v, type)}
        return mods + list(classes.values()) + [np.linalg]

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = self._modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
        for idx, (mod_name, path) in enumerate(TARGETS):
            obj = by_name[mod_name]
            *owners, attr = path.split(".")
            for part in owners:
                obj = getattr(obj, part)
            target = getattr(obj, attr)
            if isinstance(target, type):
                self._set(target, "__init__", self._wrap(target.__init__, idx))
            elif owners:
                self._set(obj, attr, self._wrap(target, idx))
            else:
                wrapper = self._wrap(target, idx)
                for m in mods:
                    for key, value in list(vars(m).items()):
                        if value is target:
                            self._set(m, key, wrapper)
        self._set(np.linalg, "eigh", self._wrap(np.linalg.eigh, len(TARGETS)))

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def patched_locations(self):
        """Every (owner, attribute) currently holding a tracing wrapper,
        found by scanning, not from the patch list."""
        found = []
        for owner in self.owners():
            for key, value in list(vars(owner).items()):
                if getattr(value, "_bench_tracing_wrapper", False):
                    found.append((getattr(owner, "__name__", owner), key))
        return found

    # -- recording ------------------------------------------------------

    def _wrap(self, fn, name_idx):
        name = SPAN_NAMES[name_idx]
        is_cone = name == "faces.normal_cone"
        is_interval = name == "spectral.interval_from_spectrum"
        is_add = name == "scale.ExtremePointCloud.add"
        is_eigh = name == EIGH

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1]
            self._stack.append(sid)
            if is_cone:
                self.cone_depth += 1
            elif is_interval and self.cone_depth:
                self.cone_intervals += 1
            elif is_eigh:
                shape = np.shape(args[0])
                self.eigh_work_d3 += int(np.prod(shape[:-2], dtype=np.int64)) * shape[-1] ** 3
            elif is_add:
                before = len(args[0])
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                if is_cone:
                    self.cone_depth -= 1
                self.ids.append(sid)
                self.parents.append(parent)
                self.ops.append(self.op_id)
                self.names.append(name_idx)
                self.starts.append(start)
                self.ends.append(end)
            if is_cone:
                self.cone_members += len(result.members)
            elif is_add:
                self.cloud_adds_kept += len(args[0]) - before
            return result

        wrapper._bench_tracing_wrapper = True
        return wrapper

    # -- reporting ------------------------------------------------------

    def arrays(self):
        return {
            "id": np.frombuffer(self.ids, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int64).copy(),
            "op": np.frombuffer(self.ops, dtype=np.int64).copy(),
            "name": np.frombuffer(self.names, dtype=np.int16).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
        }

    def layer_stats(self):
        """``{span name: (calls, self seconds)}`` for every span name,
        plus the counters kept at the span boundaries."""
        a = self.arrays()
        n = len(a["id"])
        dur = np.zeros(n)
        dur[a["id"]] = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[a["id"][child]], minlength=n)
        self_time = dur - covered  # indexed by span id
        name_by_id = np.zeros(n, dtype=np.int64)
        name_by_id[a["id"]] = a["name"]
        calls = np.bincount(name_by_id, minlength=len(SPAN_NAMES))
        self_s = np.bincount(name_by_id, weights=self_time, minlength=len(SPAN_NAMES))
        stats = {
            name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(SPAN_NAMES)
        }
        counters = {
            "eigh_work_d3": self.eigh_work_d3,
            "cloud_adds_kept": self.cloud_adds_kept,
            "cone_intervals": self.cone_intervals,
            "cone_members": self.cone_members,
            "root_s": float((a["end"] - a["start"])[a["parent"] < 0].sum()),
            "spans": n,
        }
        return stats, counters
