"""Spans and counters recorded around calls into tcplab, from outside it.

The tracer replaces a public function by a wrapper in every tcplab module
that holds it, which is where callers look it up (for example both
`tcplab.solver.face_system` and `tcplab.model.face_system`).  Each call
records one span: name, start, end, parent span and operation index, in
flat arrays kept in memory and written out by `save`.  Counters are taken
from return values at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# (span name, module, attribute): the boundaries that are timed
BOUNDARIES = (
    ("tensors.contract", "tcplab.tensors", "contract"),
    ("tensors.form", "tcplab.tensors", "form"),
    ("tensors.form_gradient", "tcplab.tensors", "form_gradient"),
    ("model.face_system", "tcplab.model", "face_system"),
    ("model.max_residual", "tcplab.model", "max_residual"),
    ("solver.solve", "tcplab.solver", "solve"),
    ("solver.homogeneous_solve", "tcplab.solver", "homogeneous_solve"),
    ("solver.brute_force_oracle", "tcplab.solver", "brute_force_oracle"),
    ("properties.check_r0", "tcplab.properties", "check_r0"),
    ("properties.check_copositive", "tcplab.properties", "check_copositive"),
    ("properties.lsc_witness", "tcplab.properties", "lsc_witness"),
    ("properties.probe_gus", "tcplab.properties", "probe_gus"),
    ("experiments.usc_probe", "tcplab.experiments", "usc_probe"),
    ("experiments.local_boundedness_probe", "tcplab.experiments", "local_boundedness_probe"),
    ("experiments.hoelder_fit", "tcplab.experiments", "hoelder_fit"),
    ("experiments.stability_inclusion_check", "tcplab.experiments", "stability_inclusion_check"),
    ("experiments.genericity_sample", "tcplab.experiments", "genericity_sample"),
    ("experiments.r0_openness_probe", "tcplab.experiments", "r0_openness_probe"),
    ("cli.main", "tcplab.cli", "main"),
)
# FaceSystem methods are looked up on the class
METHODS = (
    ("model.residual_vec", "residual_vec"),
    ("model.jacobian", "jacobian"),
)
SAMPLE = "experiments.sample"
# the package's modules; a span belongs to the layer its name starts with
LAYERS = ("tensors", "model", "solver", "properties", "experiments", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.current_op = -1
        self.counters: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        nid = self._id(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[i] = t0
                self.end[i] = t1
            if after is not None:
                after(out)
            return out

        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        mods = [m for k, m in sorted(sys.modules.items()) if k == "tcplab" or k.startswith("tcplab.")]
        c = self.counters

        def solved(sol):
            c["solver.starts"] += sol.meta.get("starts", 0)
            c["solver.newton_iters"] += sol.meta.get("newton_iters", 0)
            if not sol.meta.get("homogeneous"):
                c["solve.starts"] += sol.meta.get("starts", 0)
                c["solve.points"] += len(sol.points)

        def grid_points(key, attr):
            def after(res):
                c[key] += getattr(res, attr)["grid_points"]
            return after

        after = {
            "solver.solve": solved,
            "solver.homogeneous_solve": solved,
            "solver.brute_force_oracle": grid_points("solver.brute_force_oracle.grid_points", "meta"),
            "properties.check_copositive": grid_points("properties.check_copositive.grid_points", "effort"),
        }
        for name, home, attr in BOUNDARIES:
            orig = getattr(sys.modules[home], attr)
            wrapper = self.wrap(name, orig, after.get(name))
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, wrapper)
        fs_cls = sys.modules["tcplab.model"].FaceSystem
        for name, attr in METHODS:
            self._patch(fs_cls, attr, self.wrap(name, fs_cls.__dict__[attr]))

        # experiment samples run through _map_samples; time each one
        exp = sys.modules["tcplab.experiments"]
        map_samples = exp._map_samples
        wrap = self.wrap

        def traced_map(fn, ids):
            return map_samples(wrap(SAMPLE, fn), ids)

        self._patch(exp, "_map_samples", traced_map)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results --------------------------------------------------------------

    def _arrays(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        return name_id, parent, dur

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ms, self ms (minus child spans) and the
        median call in ms."""
        name_id, parent, dur = self._arrays()
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        selft = dur - child
        out = {}
        for k, name in enumerate(self.names):
            sel = name_id == k
            out[name] = {
                "calls": int(np.count_nonzero(sel)),
                "ms": float(dur[sel].sum() * 1e3),
                "self_ms": float(selft[sel].sum() * 1e3),
                "median_ms": float(np.median(dur[sel]) * 1e3) if sel.any() else 0.0,
            }
        return out

    def save(self, path: str) -> None:
        name_id, parent, dur = self._arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=name_id,
            parent=parent,
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


def per_layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of the traced pass, as name -> (value, unit)."""
    lt = tr.layer_times()
    z = {"calls": 0, "ms": 0.0, "self_ms": 0.0, "median_ms": 0.0}

    def get(name):
        return lt.get(name, z)

    c = tr.counters
    iters = c["solver.newton_iters"]
    out = {}
    for name in ("tensors.form", "tensors.form_gradient", "tensors.contract", "model.face_system",
                 "model.residual_vec", "model.jacobian", "model.max_residual"):
        out[f"{name}.calls"] = (get(name)["calls"], "count")
    for name in ("tensors.form_gradient", "tensors.contract", "model.face_system", "model.residual_vec",
                 "model.jacobian", "model.max_residual", "solver.homogeneous_solve", "solver.brute_force_oracle",
                 "properties.check_r0", "properties.check_copositive", "properties.lsc_witness"):
        out[f"{name}.ms"] = (get(name)["ms"], "ms")
    out["solver.solve.self_ms"] = (get("solver.solve")["self_ms"], "ms")
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (sum(v["self_ms"] for k, v in lt.items() if k.startswith(layer + ".")), "ms")
    out["solver.starts"] = (c["solver.starts"], "count")
    out["solver.newton_iters"] = (iters, "count")
    out["solver.residual_evals_per_iter"] = (get("model.residual_vec")["calls"] / iters if iters else 0.0, "evals/iter")
    out["solver.points_per_start"] = (c["solve.points"] / c["solve.starts"] if c["solve.starts"] else 0.0,
                                      "points/start")
    out["solver.brute_force_oracle.grid_points"] = (c["solver.brute_force_oracle.grid_points"], "count")
    out["properties.check_copositive.grid_points"] = (c["properties.check_copositive.grid_points"], "count")
    out["experiments.sample_ms"] = (get(SAMPLE)["median_ms"], "ms")
    out["trace.spans"] = (len(tr.start), "count")
    return out
