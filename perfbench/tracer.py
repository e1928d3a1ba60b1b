"""Span tracer for one pdiamonds job, installed from outside the package.

Every public function of each partition_diamonds module (the names in its
__all__, plus cli.main) is replaced by a wrapper that records a span:
(parent span, name, start, end, overhead, info).  The replacement goes into
every module namespace that holds the original object, so the names that
cli, congruences, genfun and omega import by name are timed too.  The
series kernel is traced through TruncatedSeries.__mul__, .inverse and
.__pow__, and TruncatedSeries.__post_init__ counts allocations.

`overhead` is the time the wrapper spends outside [start, end]; a parent's
self time subtracts each child's duration plus its overhead, so tracing cost
is not charged to any layer.  Counters that need the operands or the return
value (multiply-adds, enumerated configurations, estimates) are computed in
that overhead window, from outside the program.  Spans stay in memory and
are exported once, when the job ends.
"""

from __future__ import annotations

import time
from itertools import accumulate, compress

import partition_diamonds
from partition_diamonds import (cli, congruences, genfun, omega, oracle,
                                polynomials, series)

clock = time.perf_counter

MODULES = (series, polynomials, genfun, oracle, omega, congruences, cli)


def _mul_madds(args, kwargs, result):
    """Nonzero pairs (i, j) with i + j < n: the products the kernel makes."""
    a, b = args[0].coeffs, args[1].coeffs
    n = min(len(a), len(b))
    below = list(accumulate(map(bool, b[:n]), initial=0))
    return sum(below[n - i] for i in compress(range(n), a[:n]))


def _inverse_madds(args, kwargs, result):
    """Each nonzero a_i (i >= 1) enters the recurrence for k = i .. n-1."""
    a = args[0].coeffs
    n = len(a)
    return sum(n - i for i in compress(range(1, n), a[1:]))


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


INFO = {
    "series.mul": _mul_madds,
    "series.inverse": _inverse_madds,
    "series.product_family":
        lambda a, k, r: max(_arg(a, k, 1, "order") - 1, 0),
    "genfun.sd_series":
        lambda a, k, r: [_arg(a, k, 0, "d"),
                         _arg(a, k, 2, "ring", series.ZZ).modulus],
    "oracle.count_rd_upto": lambda a, k, r: sum(r),
    "oracle.series_Ddn_bruteforce": lambda a, k, r: sum(r.coeffs),
    "oracle.estimate_rd_enumeration": lambda a, k, r: r,
    "oracle.estimate_ddn_enumeration": lambda a, k, r: r,
}


class Tracer:
    """Spans and counters of one job; install() once, export() at the end."""

    def __init__(self, job: str):
        self.job = job
        self.spans = []
        self._stack = [-1]
        self.counters = {"series.alloc": 0, "series.alloc_coeffs": 0}
        self._caches = {}

    def wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, INFO.get(name)

        def traced(*args, **kwargs):
            t_in = clock()
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                stack.pop()
                spans[sid] = (parent, name, t0, t1, t0 - t_in + clock() - t1,
                              "raised " + type(exc).__name__)
                raise
            t1 = clock()
            stack.pop()
            extra = info(args, kwargs, result) if info else None
            spans[sid] = (parent, name, t0, t1, t0 - t_in + clock() - t1,
                          extra)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrappers = {}
        for mod in MODULES:
            layer = mod.__name__.rsplit(".", 1)[1]
            names = ["main"] if mod is cli else mod.__all__
            for name in names:
                fn = getattr(mod, name)
                if isinstance(fn, type) or not callable(fn):
                    continue
                wrappers[id(fn)] = self.wrap(f"{layer}.{name}", fn)
                if hasattr(fn, "cache_info"):
                    self._caches[f"{layer}.{name}"] = fn
        # rebind every module-level reference, including from-imports; the
        # originals stay alive in the wrappers, so their ids stay unique
        for mod in MODULES + (partition_diamonds,):
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])

        ts = series.TruncatedSeries
        for attr, name in (("__mul__", "series.mul"),
                           ("inverse", "series.inverse"),
                           ("__pow__", "series.pow")):
            setattr(ts, attr, self.wrap(name, getattr(ts, attr)))

        post_init, counters = ts.__post_init__, self.counters

        def counted_post_init(obj):
            counters["series.alloc"] += 1
            counters["series.alloc_coeffs"] += len(obj.coeffs)
            post_init(obj)

        ts.__post_init__ = counted_post_init

    def export(self) -> dict:
        counters = dict(self.counters)
        for name, fn in self._caches.items():
            info = fn.cache_info()
            counters[f"{name}.hits"] = info.hits
            counters[f"{name}.misses"] = info.misses
        return {"job": self.job, "spans": self.spans, "counters": counters}
