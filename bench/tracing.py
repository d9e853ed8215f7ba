"""In-memory span tracing of tfqkd's layers, installed from outside the package.

tfqkd's entry points look their collaborators up as module attributes at
call time, so swapping those attributes for timing wrappers records one span
per layer call without changing the package.  ``Tracer.active`` installs the
wrappers around one benchmark call and restores the originals afterwards;
untraced calls run the original code.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import numpy as np

import tfqkd

# (module, attribute, span name).  decoy binds bound_expected at import, so
# both names that the analysis looks up are wrapped.
WRAPPED = (
    ("montecarlo", "fair_sampled_classes", "model.fair_sampled_classes"),
    ("montecarlo", "_phase_trajectory", "montecarlo.phase_trajectory"),
    ("montecarlo", "_apply_fine_blocks", "montecarlo.fine_blocks"),
    ("montecarlo", "detector_means", "montecarlo.detector_means"),
    ("montecarlo", "filter_deadtime", "montecarlo.filter_deadtime"),
    ("decoy", "estimate", "decoy.estimate"),
    ("finitestats", "bound_expected", "finitestats.bound_expected"),
    ("decoy", "bound_expected", "finitestats.bound_expected"),
    ("keyrate", "aopp_estimate", "aopp.aopp_estimate"),
    ("keyrate", "secret_key_rate", "keyrate.secret_key_rate"),
    ("keyrate", "expected_rates_model", "keyrate.expected_rates_model"),
    ("keyrate", "analyze_counts", "keyrate.analyze_counts"),
)


class Tracer:
    """Spans (name, start, end, parent) of traced calls, kept in memory.

    Each benchmark call opens a root span named after its kind; spans of
    the layers it reaches become its descendants.  filter_deadtime spans
    also count the clicks offered and the clicks kept.
    """

    def __init__(self):
        self._targets = [(getattr(tfqkd, mod), attr, name)
                         for mod, attr, name in WRAPPED]
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.roots: list[int] = []
        self.clicks = [0, 0]          # offered to, kept by filter_deadtime
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.roots.append(self._stack[0] if self._stack else idx)
        self.ends.append(np.nan)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        deadtime = name == "montecarlo.filter_deadtime"

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if deadtime:
                self.clicks[0] += args[0].size
                self.clicks[1] += int(np.count_nonzero(out[0]))
            return out

        return traced

    @contextmanager
    def active(self, root: str):
        """Trace one call: wrap the layers, open the root span, restore."""
        originals = [(mod, attr, getattr(mod, attr))
                     for mod, attr, _ in self._targets]
        for (mod, attr, fn), (_, _, name) in zip(originals, self._targets):
            setattr(mod, attr, self._wrap(fn, name))
        idx = self._open(root)
        try:
            yield
        finally:
            self._close(idx)
            for mod, attr, fn in originals:
                setattr(mod, attr, fn)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its child spans."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros_like(dur)
        has = parents >= 0
        np.add.at(child, parents[has], dur[has])
        return dur - child

    def per_root(self, root: str) -> tuple[int, dict, dict, float]:
        """Calls of one root kind, and per call: self seconds and span count
        by layer name, and the root's own inclusive seconds."""
        names = np.asarray(self.names, dtype=object)
        roots = np.asarray(self.roots, dtype=np.int64)
        root_ids = np.flatnonzero(names == root)
        calls = root_ids.size
        selfs = self.self_times()
        under = np.isin(roots, root_ids)
        seconds, counts = {}, {}
        for name in set(names[under]):
            mask = under & (names == name)
            seconds[name] = float(selfs[mask].sum()) / calls
            counts[name] = int(mask.sum()) / calls
        dur = np.asarray(self.ends)[root_ids] - np.asarray(self.starts)[root_ids]
        return calls, seconds, counts, float(dur.mean())

    def dump(self, path):
        """Write the spans as JSON: a name table and [name, start, end,
        parent] rows with times relative to the first span."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        rows = [[index[n], round(s - t0, 9), round(e - t0, 9), p]
                for n, s, e, p in zip(self.names, self.starts, self.ends,
                                      self.parents)]
        path.write_text(json.dumps({"names": table, "spans": rows}))
