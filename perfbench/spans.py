"""Span tracing of microloc's layer functions, installed from outside the package.

``Tracer.install()`` replaces each function in ``TARGETS`` by a wrapper in
every loaded ``microloc`` module that binds it, because ``from .x import f``
copies the name into the importing module; ``uninstall()`` puts the
originals back.  Spans are kept in memory as tuples
``(call_id, span_id, parent_id, name, start, end)`` and written out by the
caller when the run ends.  The experiments call these functions from one
thread, so a single stack gives each span its parent.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# (module, function) pairs wrapped in a traced run, one block per layer.
TARGETS = (
    ("dno", "dn_elliptic"),
    ("waterwave", "integrate"),
    ("waterwave", "zcs_rhs"),
    ("waterwave", "symmetrized_u"),
    ("paradiff", "paradiff_apply"),
    ("paradiff", "dyadic_paradiff_apply"),
    ("quantize", "estimate_decay_order"),
    ("quantize", "op_quantize"),
    ("grid", "multiplier_apply"),
    ("flows", "asymptotic_direction"),
    ("model_eq", "propagate_fractional"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.call_id = 0
        self._stack = []
        self._next_id = 0
        self._patches = []
        self.missing = []

    def install(self):
        self.missing = []
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "microloc" or k.startswith("microloc."))]
        for modname, fname in TARGETS:
            orig = getattr(sys.modules.get(f"microloc.{modname}"), fname, None)
            if orig is None:  # renamed or removed: its metrics read 0
                self.missing.append(f"{modname}.{fname}")
                continue
            wrapper = self._wrap(f"{modname}.{fname}", orig)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._patches.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._patches):
            setattr(m, attr, orig)
        self._patches = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            sid = self._next_id
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans.append((self.call_id, sid, parent, name, t0, t1))
        return wrapper

    def write(self, path):
        with open(path, "w") as fh:
            for (cid, sid, parent, name, t0, t1) in self.spans:
                fh.write(json.dumps({"call": cid, "id": sid, "parent": parent,
                                     "name": name, "start": t0, "end": t1}) + "\n")


def layer_stats(spans):
    """Per-name calls, inclusive seconds, self seconds and durations of one call's spans.

    Inclusive time counts only spans with no ancestor of the same name, so
    recursion is not counted twice.  Self time is a span's duration minus the
    durations of its direct children (they run inside it, one after another).
    """
    by_id = {s[1]: s for s in spans}
    child_time = {}
    for (_, _, parent, _, t0, t1) in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    stats = {}
    for (_, sid, parent, name, t0, t1) in spans:
        st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
        dur = t1 - t0
        st["calls"] += 1
        st["durations"].append(dur)
        st["self_s"] += dur - child_time.get(sid, 0.0)
        anc = parent
        while anc and by_id[anc][3] != name:
            anc = by_id[anc][2]
        if not anc:
            st["s"] += dur
    return stats


def _get(stats, name, key):
    st = stats.get(name)
    return st[key] if st else 0


def per_layer_metrics(spans, chi_cache_mb):
    """The per-layer metrics of BENCHMARK.json (except trace.overhead_frac) for one call."""
    st = layer_stats(spans)
    dn = st.get("dno.dn_elliptic", {"durations": []})["durations"]
    return {
        "dno.dn_elliptic.calls": _get(st, "dno.dn_elliptic", "calls"),
        "dno.dn_elliptic.s": _get(st, "dno.dn_elliptic", "s"),
        "dno.dn_elliptic.ms_p50": 1e3 * statistics.median(dn) if dn else 0.0,
        "dno.dn_elliptic.ms_max": 1e3 * max(dn) if dn else 0.0,
        "waterwave.integrate.s": _get(st, "waterwave.integrate", "s"),
        "waterwave.zcs_rhs.calls": _get(st, "waterwave.zcs_rhs", "calls"),
        "waterwave.zcs_rhs.self_s": _get(st, "waterwave.zcs_rhs", "self_s"),
        "waterwave.symmetrized_u.s": _get(st, "waterwave.symmetrized_u", "s"),
        "paradiff.paradiff_apply.calls": _get(st, "paradiff.paradiff_apply", "calls"),
        "paradiff.paradiff_apply.s": _get(st, "paradiff.paradiff_apply", "s"),
        "paradiff.dyadic_paradiff_apply.s": _get(st, "paradiff.dyadic_paradiff_apply", "s"),
        "paradiff.chi_cache_mb": chi_cache_mb,
        "quantize.estimate_decay_order.calls": _get(st, "quantize.estimate_decay_order",
                                                    "calls"),
        "quantize.op_quantize.calls": _get(st, "quantize.op_quantize", "calls"),
        "quantize.op_quantize.s": _get(st, "quantize.op_quantize", "s"),
        "grid.multiplier_apply.calls": _get(st, "grid.multiplier_apply", "calls"),
        "grid.multiplier_apply.s": _get(st, "grid.multiplier_apply", "s"),
        "flows.asymptotic_direction.s": _get(st, "flows.asymptotic_direction", "s"),
        "model_eq.propagate_fractional.s": _get(st, "model_eq.propagate_fractional", "s"),
    }


def chi_cache_mb():
    """Bytes held by paradiff's module-level cutoff cache, in MB; 0 if it is gone."""
    cache = getattr(sys.modules.get("microloc.paradiff"), "_CHI_CACHE", None) or {}
    return sum(getattr(v, "nbytes", 0) for v in cache.values()) / 1e6
