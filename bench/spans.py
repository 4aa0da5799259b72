"""In-memory span recorder for the traced run.

A span is (name, start, end, parent).  Spans are kept in flat arrays while
the run goes on and written out when it ends.  ``install`` replaces each
target function at every ``bistone`` module that binds it (or on its class,
for methods), so a call is seen whichever import path the caller used;
``uninstall`` puts the originals back, so untraced passes run the library
unchanged.
"""

import functools
import gzip
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched = []

    def __len__(self):
        return len(self.start)

    def _open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(self, fn, name):
        """``name`` is a string, or a function of the call's arguments."""
        opener, closer = self._open, self._close
        fixed = isinstance(name, str)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = opener(name if fixed else name(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                closer(idx)

        return traced

    def install(self, targets):
        """``targets`` maps a span name (or a naming function) to a dotted
        path below ``bistone``, such as ``dlattice.DLattice.__init__``."""
        modules = [m for k, m in list(sys.modules.items()) if k == "bistone" or k.startswith("bistone.")]
        for name, path in targets:
            head, *attrs = path.split(".")
            owner = sys.modules[f"bistone.{head}"]
            for attr in attrs[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, attrs[-1])
            wrapped = self.wrap(original, name)
            if isinstance(owner, type):
                self._patch(owner, attrs[-1], wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, key, wrapped):
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapped)

    def uninstall(self):
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def layer_stats(self, ranges):
        """Per span name over the given index ranges: calls, total seconds
        (spans nested in a span of the same name are not counted twice) and
        self seconds (duration minus the time covered by child spans)."""
        stats = {}
        for lo, hi in ranges:
            child = [0.0] * (hi - lo)
            for i in range(lo, hi):
                p = self.parent[i]
                if p >= lo:
                    child[p - lo] += self.end[i] - self.start[i]
            stack, open_names = [], {}
            for i in range(lo, hi):
                while stack and stack[-1] != self.parent[i]:
                    top = self.name_id[stack.pop()]
                    open_names[top] -= 1
                nid = self.name_id[i]
                duration = self.end[i] - self.start[i]
                row = stats.setdefault(self.names[nid], [0, 0.0, 0.0])
                row[0] += 1
                if not open_names.get(nid):
                    row[1] += duration
                row[2] += duration - child[i - lo]
                stack.append(i)
                open_names[nid] = open_names.get(nid, 0) + 1
        return {name: {"calls": c, "total_s": t, "self_s": s} for name, (c, t, s) in stats.items()}

    def write(self, path, t0):
        """Spans as JSON lines [name, start_s, end_s, parent], times from t0."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            for i in range(len(self)):
                row = [self.names[self.name_id[i]], self.start[i] - t0, self.end[i] - t0, self.parent[i]]
                fh.write(json.dumps(row) + "\n")
