"""Spans and exact counters recorded from outside the library.

Each public function is wrapped at the name its caller looks up: `besov`
and `verify` import `level_value_counts` by name, `cli` imports
`build_family` and `mu_all_at_level`, `qmc` imports `build_family`, and
`verify` imports the constructions and `is_net`. Patching `dyadisc.haar`
alone would miss those calls, so every caller-side binding is replaced.

Spans live in memory as [name, start, end, parent]; self time is a span's
duration minus the durations of its direct children. Counters are derived
after the pass from the arguments and return values each wrapper kept, so
the work of deriving them never lands inside a span.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

# span name -> caller-side bindings (module, attribute) to wrap
SPANS = {
    "haar.level_value_counts": [
        ("dyadisc.haar", "level_value_counts"),
        ("dyadisc.besov", "level_value_counts"),
        ("dyadisc.verify", "level_value_counts"),
    ],
    "haar.grid": [("dyadisc.haar", "mu_grid"), ("dyadisc.haar", "oracle_mu_grid")],
    "haar.mu_all_at_level": [
        ("dyadisc.haar", "mu_all_at_level"),
        ("dyadisc.cli", "mu_all_at_level"),
    ],
    "besov.norm": [
        ("dyadisc.besov", "besov_norm_exact"),
        ("dyadisc.besov", "besov_norm_truncated"),
    ],
    "classical.star_discrepancy": [("dyadisc.classical", "star_discrepancy")],
    "classical.lp_exact_even": [("dyadisc.classical", "lp_exact_even")],
    "classical.lp_estimate": [("dyadisc.classical", "lp_estimate")],
    "classical.l2_warnock": [("dyadisc.classical", "l2_warnock")],
    "pointsets.build": [
        ("dyadisc.pointsets", "build_family"),
        ("dyadisc.cli", "build_family"),
        ("dyadisc.qmc", "build_family"),
        ("dyadisc.verify", "hammersley_type"),
        ("dyadisc.verify", "symmetrize_full"),
        ("dyadisc.verify", "symmetrize_davenport"),
    ],
    "pointsets.is_net": [("dyadisc.verify", "is_net")],
    "verify.suites": [("dyadisc.verify", "run_suites")],
    "qmc": [("dyadisc.qmc", "error_table"), ("dyadisc.qmc", "fit_rate")],
}

# what each wrapper keeps for the counters: (positional args, result) -> value
_KEEP = {
    "haar.level_value_counts": lambda args, result: (args[0], args[1], args[2], result),
    "haar.grid": lambda args, result: len(result),
    "besov.norm": lambda args, result: len(result.per_level),
    "classical.star_discrepancy": lambda args, result: args[0],
    "classical.lp_exact_even": lambda args, result: args[0],
    "classical.lp_estimate": lambda args, result: args[0],
    "pointsets.build": lambda args, result: len(result),
    "verify.suites": lambda args, result: (
        sum(r.checked for r in result), sum(r.failures for r in result)
    ),
}

# span names whose summed self time a traced run reports as <name>.self_s;
# "cli" is the root span the worker opens around each CLI operation
SELF_TIMES = (*SPANS, "cli")

# CellGrid keeps three int64 tables of this many cells: the histogram, its
# first cumulative sum and the final counts
_GRID_TABLES = 3
_INT64_BYTES = 8


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.kept = defaultdict(list)
        self._stack = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, func):
        keep = _KEEP.get(name)

        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(index)
            if keep is not None:
                self.kept[name].append(keep(args, result))
            return result

        return traced

    def install(self) -> None:
        for name, bindings in SPANS.items():
            for module_name, attr in bindings:
                module = importlib.import_module(module_name)
                setattr(module, attr, self.wrap(name, getattr(module, attr)))

    def self_times(self):
        """Self time per span index: duration minus direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def root_check(self, tolerance: float = 1e-6) -> bool:
        """Self times of every root's subtree add up to the root's duration."""
        own = self.self_times()
        totals = Counter()
        roots = {}
        for index, (_, start, end, parent) in enumerate(self.spans):
            root = index
            while self.spans[root][3] >= 0:
                root = self.spans[root][3]
            totals[root] += own[index]
            if parent < 0:
                roots[index] = end - start
        return all(abs(totals[r] - d) <= tolerance for r, d in roots.items())

    def layer_metrics(self, bytes_out: int):
        own = self.self_times()
        self_s = Counter()
        calls = Counter()
        for index, (name, _, _, _) in enumerate(self.spans):
            self_s[name] += own[index]
            calls[name] += 1
        metrics = {f"{name}.self_s": self_s[name] for name in SELF_TIMES}

        seen = {}
        hits = occupied = distinct = 0
        for points, j1, j2, summary in self.kept["haar.level_value_counts"]:
            key = (id(points), j1, j2)
            hits += key in seen
            seen[key] = points  # keeps ids unique while the pass runs
            occupied += summary.occupied_boxes
            distinct += len(summary.occupied_values)
        lvc_calls = calls["haar.level_value_counts"]
        metrics["haar.level_value_counts.calls"] = lvc_calls
        metrics["haar.level_cache.hit_ratio"] = hits / lvc_calls if lvc_calls else 0.0
        metrics["haar.occupied_boxes"] = occupied
        metrics["haar.distinct_values"] = distinct
        metrics["haar.grid.entries"] = sum(self.kept["haar.grid"])
        metrics["besov.levels_aggregated"] = sum(self.kept["besov.norm"])

        cells = 0
        for name in ("classical.star_discrepancy", "classical.lp_exact_even",
                     "classical.lp_estimate"):
            for points in self.kept[name]:
                full = 1 << points.n_resolution
                kx, ky = points.scaled_coords()
                cells += len(set(kx) | {0, full}) * len(set(ky) | {0, full})
        metrics["classical.grid_cells"] = cells
        metrics["classical.grid_bytes_computed"] = cells * _GRID_TABLES * _INT64_BYTES

        metrics["pointsets.build.calls"] = calls["pointsets.build"]
        metrics["pointsets.points_built"] = sum(self.kept["pointsets.build"])
        suites = self.kept["verify.suites"]
        metrics["verify.checks"] = sum(checked for checked, _ in suites)
        metrics["verify.failures"] = sum(failures for _, failures in suites)
        metrics["cli.bytes_out"] = bytes_out
        return metrics
