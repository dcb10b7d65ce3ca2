"""Span tracing of dp3kit's layers from outside the package.

``Tracer.install()`` replaces the public functions of each layer module with
wrappers that record a span (name, start, end, parent span, item id) per
call.  A function is replaced under every module attribute that binds it,
so layer-to-layer calls such as ``dp3.dynamics.integrate_segment`` or
``dp3.asymptotics.power_coeffs`` are seen too.  ``uninstall()`` puts the
originals back.  Nothing under ``src/`` is edited.

Spans and counts stay in memory; ``self_times()`` reduces them to per-layer
self time (a span's duration minus the time its child spans cover) and
per-item counts, and ``dump()`` writes them out.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter, defaultdict

from dp3 import asymptotics, dynamics, genfun, kernels, monodromy, series
from dp3.kernels import STATUS

# layer name -> module; the module's __all__ lists its public functions
LAYERS = {
    "monodromy": monodromy,
    "asymptotics": asymptotics,
    "series": series,
    "genfun": genfun,
    "kernels": kernels,
    "dynamics": dynamics,
}

# the closed-form builders behind genfun.genfun; the tables check calls
# them directly to evaluate the closed forms in extended precision
GENFUN_BUILDERS = ("_power_gf", "_reglog_gf", "_irreglog_gf")

ITEM = "item"


def _public_functions(module):
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name, None)
        if callable(obj) and not isinstance(obj, type):
            yield name, obj


class Tracer:
    """Records spans and counts while installed.  Not thread-safe: the
    benchmark is single-threaded by design."""

    def __init__(self):
        # (span id, parent id, item id, name, start, end)
        self.spans: list[tuple] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.item: int | None = None
        self._stack: list[int] = []
        self._names: list[str] = []
        self._next_id = 0
        self._patches: list[tuple] = []  # (owner, attribute, original)

    # -- span recording -------------------------------------------------

    def _open(self, name):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        self._names.append(name)
        return sid, parent, time.perf_counter()

    def _close(self, sid, parent, name, t0):
        t1 = time.perf_counter()
        self._stack.pop()
        self._names.pop()
        self.spans.append((sid, parent, self.item, name, t0, t1))

    def run_item(self, item_id: int, fn, *args):
        """Call fn(*args) inside a root span for one item."""
        self.item = item_id
        sid, parent, t0 = self._open(ITEM)
        try:
            return fn(*args)
        finally:
            self._close(sid, parent, ITEM, t0)
            self.item = None

    def count(self, key: str, n=1):
        self.counts[self.item][key] += n

    def inside(self, name: str) -> bool:
        return name in self._names

    # -- wrapping -------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            sid, parent, t0 = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(sid, parent, name, t0)
            tracer.count(name + ".calls")
            if after is not None:
                after(out, args, kwargs)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _bind(self, original, wrapper, owners):
        """Replace original with wrapper wherever one of owners binds it."""
        for owner in owners:
            for attr, val in list(vars(owner).items()):
                if val is original:
                    setattr(owner, attr, wrapper)
                    self._patches.append((owner, attr, original))

    def install(self):
        """Wrap every public layer function (plus the genfun builders and
        GeneratingFunction.taylor) wherever a dp3 module binds it."""
        owners = [m for n, m in sys.modules.items() if n == "dp3" or n.startswith("dp3.")]
        hooks = {
            ("kernels", "integrate_segment"): self._after_kernel,
            ("dynamics", "integrate"): self._after_integrate,
            ("dynamics", "fit_local_expansion"): self._after_fit,
            ("series", "power_coeffs"): self._after_coeffs,
            ("series", "reglog_coeffs"): self._after_coeffs,
            ("series", "irreglog_coeffs"): self._after_coeffs,
        }
        for layer, module in LAYERS.items():
            funcs = list(_public_functions(module))
            if layer == "genfun":
                funcs += [(b, getattr(module, b)) for b in GENFUN_BUILDERS]
            for fname, fn in funcs:
                name = f"{layer}.{fname}"
                self._bind(fn, self._wrap(name, fn, hooks.get((layer, fname))), owners)
        taylor = genfun.GeneratingFunction.taylor
        self._bind(taylor, self._wrap("genfun.taylor", taylor), [genfun.GeneratingFunction])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- return-value hooks (counts measured where the work happens) -----

    def _after_kernel(self, out, args, kwargs):
        status, nrec = out[0], out[1]
        steps = max(nrec - 1, 0)
        self.count("kernels.accepted_steps", steps)
        if status in (STATUS["pole_guard"], STATUS["zero_guard"]):
            self.count("kernels.guard_trips")
        if status in (STATUS["max_steps"], STATUS["step_underflow"]):
            self.count("kernels.stalls")
        if self.inside("dynamics.detect_and_step_over"):
            self.count("dynamics.arc.steps", steps)

    def _after_integrate(self, trace, args, kwargs):
        # a census probe is the one-waypoint run straight at a disc
        if len(self._names) and self._names[-1] == "dynamics.pole_census":
            path = args[2] if len(args) > 2 else kwargs["path"]
            if len(path) == 1:
                self.count("dynamics.census.probes")
                if trace.status == "pole_guard":
                    self.count("dynamics.census.probe_hits")

    def _after_fit(self, det, args, kwargs):
        c = self.counts[self.item]
        c["dynamics.fit.residual_max"] = max(
            c["dynamics.fit.residual_max"], det.fit_residual
        )

    def _after_coeffs(self, exp, args, kwargs):
        self.count("series.coeffs", len(exp.coeffs))

    # -- reduction ------------------------------------------------------

    def self_times(self):
        """{item id: {span name: self seconds}} and {item id: item seconds}."""
        child = defaultdict(float)
        for _sid, parent, _item, _name, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(Counter)
        item_s = {}
        for sid, _parent, item, name, t0, t1 in self.spans:
            out[item][name] += (t1 - t0) - child[sid]
            if name == ITEM:
                item_s[item] = t1 - t0
        return out, item_s

    def dump(self, path):
        with gzip.open(path, "wt", compresslevel=1) as f:
            json.dump(
                {
                    "fields": ["id", "parent", "item", "name", "start", "end"],
                    "spans": self.spans,
                    "counts": {str(k): dict(v) for k, v in self.counts.items()},
                },
                f,
            )


def layer_of(name: str) -> str | None:
    """The layer a span belongs to (None for the item root)."""
    if name == ITEM:
        return None
    return name.split(".", 1)[0]

