"""Span recording around kstab's public entry points, from the outside.

Every traced entry point is rebound, in every loaded ``kstab`` module (and
class) that holds it, to a wrapper that records one span: name, start, end
and parent.  Spans stay in flat in-memory arrays until ``dump`` writes them
out.  A few entry points also feed derived counts from their arguments or
results (chambers returned, subgroups, box points, facets).

Nothing here imports kstab at module level, so the traced CLI launcher can
time the import itself.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from array import array
from time import perf_counter

# (module, attribute path, metric stem, report self time).  Constructors are
# traced through ``__init__`` and reported under the class name.
ENTRY_POINTS = (
    ("kstab.cli", "main", "cli.main", True),
    ("kstab.models", "preset", "models.preset", True),
    ("kstab.models", "parse_class_expr", "models.parse_class_expr", True),
    ("kstab.models", "load_model", "models.load_model", True),
    ("kstab.verify", "verify_paper", "verify.verify_paper", True),
    ("kstab.invariants", "refined_s_flag", "invariants.refined_s_flag", True),
    ("kstab.invariants", "s_invariant", "invariants.s_invariant", True),
    ("kstab.intersect", "triple_product", "intersect.triple_product", True),
    ("kstab.intersect", "restrict_to_surface", "intersect.restrict_to_surface", True),
    ("kstab.intersect", "SurfaceModel.pair", "intersect.SurfaceModel.pair", True),
    ("kstab.zariski", "one_param_volume", "zariski.one_param_volume", True),
    ("kstab.zariski", "two_param_flag_volume", "zariski.two_param_flag_volume", True),
    ("kstab.zariski", "zariski_decompose", "zariski.zariski_decompose", True),
    ("kstab.zariski", "pseff_threshold", "zariski.pseff_threshold", True),
    ("kstab.zariski", "volume", "zariski.volume", True),
    ("kstab.zariski", "threefold_volume_certified", "zariski.threefold_volume_certified", True),
    ("kstab.lp", "solve_equality_lp", "lp.solve_equality_lp", True),
    ("kstab.lp", "in_cone", "lp.in_cone", True),
    ("kstab.lp", "max_shift", "lp.max_shift", True),
    ("kstab.poly", "Polynomial.__mul__", "poly.Polynomial.__mul__", False),
    ("kstab.poly", "PiecewisePolynomial.__init__", "poly.PiecewisePolynomial", True),
    ("kstab.poly", "integrate_piecewise", "poly.integrate_piecewise", True),
    ("kstab.poly", "check_c1", "poly.check_c1", True),
    ("kstab.poly", "rational_roots_in_interval", "poly.rational_roots_in_interval", True),
    ("kstab.poly", "parse_polynomial", "poly.parse_polynomial", True),
    ("kstab.rationals", "det", "rationals.det", True),
    ("kstab.rationals", "mat_inverse", "rationals.mat_inverse", True),
    ("kstab.rationals", "solve_general", "rationals.solve_general", True),
    ("kstab.rationals", "rank", "rationals.rank", True),
    ("kstab.rationals", "is_negative_definite", "rationals.is_negative_definite", True),
    ("kstab.lattice", "even_overlattices", "lattice.even_overlattices", True),
    ("kstab.lattice", "discriminant_group", "lattice.discriminant_group", True),
    ("kstab.lattice", "isotropic_elements", "lattice.isotropic_elements", True),
    ("kstab.lattice", "integer_search_quadratic", "lattice.integer_search_quadratic", True),
    ("kstab.lattice", "smith_normal_form", "lattice.smith_normal_form", True),
    ("kstab.lattice", "signature", "lattice.signature", True),
    ("kstab.lattice", "determinant", "lattice.determinant", True),
    ("kstab.lattice", "is_saturated", "lattice.is_saturated", True),
    ("kstab.k3cat", "nl_gram", "k3cat.nl_gram", True),
    ("kstab.k3cat", "is_bn_excluding", "k3cat.is_bn_excluding", True),
    ("kstab.k3cat", "type_match", "k3cat.type_match", True),
    ("kstab.toric", "LatticePolytope.__init__", "toric.LatticePolytope", True),
    ("kstab.toric", "polar_dual", "toric.polar_dual", True),
    ("kstab.toric", "barycenter", "toric.barycenter", True),
    ("kstab.toric", "volume", "toric.volume", True),
    ("kstab.toric", "is_reflexive", "toric.is_reflexive", True),
    ("kstab.toric", "anticanonical_degree", "toric.anticanonical_degree", True),
)

# Spans under these entry points belong to a chamber march.
CHAMBER_STEMS = ("zariski.one_param_volume", "zariski.two_param_flag_volume")

# Sums kept per pass: the CLI import and startup times and the counts fed by
# the return hooks below.
COUNTED = ("cli.import_s", "cli.startup_s", "zariski.chambers", "lattice.subgroups", "lattice.box_points",
           "toric.facets")

# Derived per-layer metrics: (name, unit).
DERIVED = (
    ("cli.import_s", "s"),
    ("cli.startup_s", "s"),
    ("zariski.chambers", "count"),
    ("zariski.lp_per_chamber", "1"),
    ("zariski.decompose_per_chamber", "1"),
    ("lp.feasibility_share", "1"),
    ("lattice.subgroups", "count"),
    ("lattice.box_points", "count"),
    ("toric.facets", "count"),
    ("trace.overhead_ratio", "1"),
)


def metric_specs() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    specs = []
    for _, _, stem, with_self in ENTRY_POINTS:
        specs.append((f"{stem}.calls", "count"))
        if with_self:
            specs.append((f"{stem}.self_s", "s"))
    return specs + list(DERIVED)


def _count_chambers(counts, args, kwargs, result):
    if hasattr(result, "pw"):
        counts["zariski.chambers"] += len(result.pw.pieces)
    else:
        counts["zariski.chambers"] += sum(len(ch.cells) for ch in result.chambers)


def _count_subgroups(counts, args, kwargs, result):
    counts["lattice.subgroups"] += len(result)


def _count_box(counts, args, kwargs, result):
    box = kwargs["box"] if "box" in kwargs else args[2]
    counts["lattice.box_points"] += math.prod(hi - lo + 1 for lo, hi in box.values())


def _count_facets(counts, args, kwargs, result):
    counts["toric.facets"] += len(args[0].facets)


_ON_RETURN = {
    "zariski.one_param_volume": _count_chambers,
    "zariski.two_param_flag_volume": _count_chambers,
    "lattice.even_overlattices": _count_subgroups,
    "lattice.integer_search_quadratic": _count_box,
    "toric.LatticePolytope": _count_facets,
}


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.stems: list[str] = [stem for _, _, stem, _ in ENTRY_POINTS]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = dict.fromkeys(COUNTED, 0)
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, nid: int):
        stem = self.stems[nid]
        on_return = _ON_RETURN.get(stem)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(self.counts, args, kwargs, result)
            return result

        return span

    def install(self) -> None:
        """Rebind every kstab module or class attribute holding a traced function."""
        for nid, (module, path, _, _) in enumerate(ENTRY_POINTS):
            owner = importlib.import_module(module)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr] if classes else getattr(owner, attr)
            wrapper = self._wrap(original, nid)
            holders = [owner] if classes else [
                mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == "kstab" or name.startswith("kstab."))
            ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            setattr(holder, key, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Calls and self time per entry point, plus derived counts."""
        n = len(self.start)
        calls = [0] * len(self.stems)
        self_s = [0.0] * len(self.stems)
        child = [0.0] * n
        chamber_ids = {self.stems.index(s) for s in CHAMBER_STEMS}
        in_chamber = bytearray(n)
        lp_in_chamber = decompose_in_chamber = 0
        lp_id = self.stems.index("lp.solve_equality_lp")
        dec_id = self.stems.index("zariski.zariski_decompose")
        for i in range(n):
            p = self.parent[i]
            if p >= 0 and in_chamber[p]:
                in_chamber[i] = 1
                if self.name_id[i] == lp_id:
                    lp_in_chamber += 1
                elif self.name_id[i] == dec_id:
                    decompose_in_chamber += 1
            if self.name_id[i] in chamber_ids:
                in_chamber[i] = 1
        # children end before their parents, so walk backwards
        for i in range(n - 1, -1, -1):
            dur = self.end[i] - self.start[i]
            nid = self.name_id[i]
            calls[nid] += 1
            self_s[nid] += dur - child[i]
            p = self.parent[i]
            if p >= 0:
                child[p] += dur
        return {
            "calls": dict(zip(self.stems, calls)),
            "self_s": dict(zip(self.stems, self_s)),
            "counts": dict(self.counts),
            "lp_in_chamber": lp_in_chamber,
            "decompose_in_chamber": decompose_in_chamber,
            "spans": n,
        }

    def dump(self, path: str) -> None:
        """Write every span as a tab-separated line: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(f"{self.stems[self.name_id[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\t{self.parent[i]}\n")


def merge(summaries: list[dict]) -> dict:
    """Add several summaries (one per traced pass or child process)."""
    out = {"calls": {}, "self_s": {}, "counts": {}, "lp_in_chamber": 0, "decompose_in_chamber": 0, "spans": 0}
    for s in summaries:
        for key in ("calls", "self_s", "counts"):
            for name, value in s[key].items():
                out[key][name] = out[key].get(name, 0) + value
        for key in ("lp_in_chamber", "decompose_in_chamber", "spans"):
            out[key] += s[key]
    return out


def layer_metrics(summary: dict, passes: int) -> dict[str, float]:
    """Per-pass values of every per-layer metric except the overhead ratio."""
    values: dict[str, float] = {}
    for _, _, stem, with_self in ENTRY_POINTS:
        calls = summary["calls"].get(stem, 0)
        values[f"{stem}.calls"] = calls // passes if calls % passes == 0 else calls / passes
        if with_self:
            values[f"{stem}.self_s"] = summary["self_s"].get(stem, 0.0) / passes
    counts = summary["counts"]
    for name in COUNTED:
        values[name] = counts.get(name, 0) / passes
    chambers = counts.get("zariski.chambers", 0)
    solves = summary["calls"].get("lp.solve_equality_lp", 0)
    values["zariski.lp_per_chamber"] = summary["lp_in_chamber"] / chambers if chambers else 0.0
    values["zariski.decompose_per_chamber"] = summary["decompose_in_chamber"] / chambers if chambers else 0.0
    values["lp.feasibility_share"] = summary["calls"].get("lp.in_cone", 0) / solves if solves else 0.0
    return values
