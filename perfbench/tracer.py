"""Spans and counters recorded around calls into the library, from outside.

A ``Tracer`` replaces attributes on library modules and classes with thin
wrappers and puts the originals back on ``uninstall``.  A span wrapper
records (name, start, end, parent index) in memory; a count wrapper only
bumps a counter.  Nothing is written until the caller asks for ``dump``.

Wrappers go on the names that callers look up: ``sampler.canonical_key``
rather than ``canonlab.canonical_key``, because ``sampler`` bound the name
at import time.  A name that no longer exists raises ``TraceError`` at
install time, so a renamed function fails the run instead of reporting
zero for its layer.
"""

import functools
import importlib
import time


class TraceError(RuntimeError):
    pass


class Tracer:
    def __init__(self, op_id=0):
        self.op_id = op_id
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self.notes = {}
        self._stack = []
        self._saved = []

    # -- recording ------------------------------------------------------

    def _span_wrapper(self, name, fn, after=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing -----------------------------------------------------

    def install(self, spec):
        """spec: (module name, dotted attribute, span name or None, after).

        span name None means count calls only, under the attribute path.
        """
        try:
            for module_name, attr, span, after in spec:
                owner, leaf = resolve(module_name, attr)
                original = vars(owner)[leaf]
                if span is None:
                    wrapped = self._count_wrapper(
                        "%s.%s" % (module_name.rsplit(".", 1)[-1], attr),
                        original)
                else:
                    wrapped = self._span_wrapper(span, original, after)
                self._saved.append((owner, leaf, original))
                setattr(owner, leaf, wrapped)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    @property
    def installed(self):
        return bool(self._saved)

    def dump(self):
        return {"op_id": self.op_id, "spans": self.spans,
                "counts": self.counts, "notes": self.notes}


def resolve(module_name, attr):
    """(owner, name) such that vars(owner)[name] is module_name.attr.

    vars() rather than getattr: a wrapper must go on, and come back off,
    the module or class that defines the name, never shadow an inherited
    one.
    """
    owner = importlib.import_module(module_name)
    parts = attr.split(".")
    for i, part in enumerate(parts):
        if part not in vars(owner):
            raise TraceError("cannot trace %s.%s: %r no longer exists"
                             % (module_name, attr, part))
        if i < len(parts) - 1:
            owner = vars(owner)[part]
    return owner, parts[-1]


# -- arithmetic over recorded spans ---------------------------------------


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Per span: its duration minus the part its child spans cover.

    Children are clipped to their parent, so a child that outlives its
    parent (impossible for nested calls, possible in hand-made trees) never
    drives self time below zero.
    """
    children = [[] for _ in spans]
    for i, (_name, _s, _e, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_name, s, e, _parent) in enumerate(spans):
        clipped = [(max(s, spans[c][1]), min(e, spans[c][2]))
                   for c in children[i]]
        clipped = [(a, b) for a, b in clipped if b > a]
        out.append((e - s) - _covered(clipped))
    return out


def totals_by_name(spans):
    """name -> {"calls", "total_s" (inclusive), "self_s"}."""
    selfs = self_times(spans)
    out = {}
    for (name, s, e, _parent), st in zip(spans, selfs):
        row = out.get(name)
        if row is None:
            row = out[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        row["calls"] += 1
        row["total_s"] += e - s
        row["self_s"] += st
    return out


def root_coverage(spans):
    """Seconds covered by spans that have no parent."""
    return _covered([(s, e) for _n, s, e, parent in spans if parent < 0])
