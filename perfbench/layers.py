"""Per-layer metrics from the spans of traced jobs.

A span is (parent index, name, start, end, overhead, info), in the order the
calls began, so a parent always precedes its children.  Self time is a span's
duration minus each child's duration and wrapper overhead.  Busy time sums
only the outermost span of a name, so recursion (fd_poly) is not counted
twice.  Metric names are "<layer>.<function>.<calls|busy_s|self_s>" or one
of the derived counters in `LayerTotals.derived`.
"""

from __future__ import annotations

from collections import Counter, defaultdict

ENUMERATIONS = ("oracle.count_rd_upto", "oracle.series_Ddn_bruteforce")
ESTIMATORS = ("oracle.estimate_rd_enumeration",
              "oracle.estimate_ddn_enumeration")
# a traced job's self times and wrapper overheads must cover its time from
# entering cli.main to returning, up to this slack
ADD_UP_TOLERANCE_S = 1e-3


class LayerTotals:
    """Sums over the traced jobs of one run."""

    def __init__(self):
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.info = Counter()
        self.counters = Counter()
        self.sd_builds = 0
        self.sd_builds_distinct = 0
        self.visited_matched = 0
        self.estimated_matched = 0
        self.oracle_busy = 0.0
        self.refused = 0
        self.stdout_bytes = 0

    def add_job(self, record: dict, stdout_bytes: int) -> float:
        """Fold one traced job in; return its unaccounted time in seconds."""
        spans = record["spans"]
        names = [s[1] for s in spans]
        charged = [0.0] * len(spans)
        for parent, _, t0, t1, overhead, _ in spans:
            if parent >= 0:
                charged[parent] += t1 - t0 + overhead
        builds = set()
        covered = 0.0
        for i, (parent, name, t0, t1, overhead, info) in enumerate(spans):
            own = t1 - t0 - charged[i]
            covered += own + overhead
            self.calls[name] += 1
            self.self_s[name] += own
            ancestors = []
            a = parent
            while a >= 0:
                ancestors.append(names[a])
                a = spans[a][0]
            if name not in ancestors:
                self.busy[name] += t1 - t0
            if isinstance(info, int):
                self.info[name] += info
            if name == "genfun.sd_series" and \
                    "congruences.verify_claim" in ancestors:
                self.sd_builds += 1
                builds.add(tuple(info))
            if name.startswith("oracle.") and \
                    not any(a.startswith("oracle.") for a in ancestors):
                self.oracle_busy += t1 - t0
                self.refused += info == "raised BudgetError"
            if name in ESTIMATORS and parent >= 0 and \
                    names[parent] in ENUMERATIONS:
                visited = spans[parent][5]
                if isinstance(visited, int):
                    self.visited_matched += visited
                    self.estimated_matched += info
        self.sd_builds_distinct += len(builds)
        self.counters.update(record["counters"])
        self.stdout_bytes += stdout_bytes
        return record["t_ret"] - record["t_main"] - covered

    def derived(self) -> dict:
        est_busy = sum(self.busy[name] for name in ESTIMATORS)
        return {
            "series.mul.madds": self.info["series.mul"],
            "series.inverse.madds": self.info["series.inverse"],
            "series.product_family.factors":
                self.info["series.product_family"],
            "series.alloc": self.counters["series.alloc"],
            "series.alloc_coeffs": self.counters["series.alloc_coeffs"],
            "congruences.sd_builds": self.sd_builds,
            "congruences.sd_builds_distinct": self.sd_builds_distinct,
            "congruences.build_reuse":
                _ratio(self.sd_builds_distinct, self.sd_builds),
            "polynomials.fd_poly.hits":
                self.counters["polynomials.fd_poly.hits"],
            "polynomials.fd_poly.misses":
                self.counters["polynomials.fd_poly.misses"],
            "polynomials.eulerian_poly.misses":
                self.counters["polynomials.eulerian_poly.misses"],
            "oracle.count_rd_upto.visited":
                self.info["oracle.count_rd_upto"],
            "oracle.series_Ddn_bruteforce.visited":
                self.info["oracle.series_Ddn_bruteforce"],
            "oracle.estimate_match":
                _ratio(self.visited_matched, self.estimated_matched),
            "oracle.guard_share": _ratio(est_busy, self.oracle_busy),
            "oracle.refused": self.refused,
            "omega.instances": self.calls["omega.omega_bruteforce"],
            "cli.stdout_bytes": self.stdout_bytes,
        }

    def metric(self, name: str, derived: dict):
        if name in derived:
            return derived[name]
        function, _, kind = name.rpartition(".")
        table = {"calls": self.calls, "busy_s": self.busy,
                 "self_s": self.self_s}.get(kind)
        if table is None:
            raise KeyError(f"no per-layer metric named {name}")
        return table[function]


def _ratio(num, den) -> float:
    return num / den if den else 0.0
