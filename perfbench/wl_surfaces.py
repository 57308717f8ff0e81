"""The ``surfaces`` and ``ladder`` workloads: chamber marches and point queries on dP_d.

Per pass of ``surfaces``, on fresh SurfaceModel objects built from the
generated data:

- ``volume_1p_s``: one_param_volume(-K - t*e1, [0, 3]) for d = 4, 3, 2;
- ``flag_2p_s``: two_param_flag_volume with A(t) = -K, Z = L, t in [0, 1],
  and the moving family A(t) = -K - t*e1, Z = L, for d = 4, 3, 2;
- ``point_query_s``: on dP4, dP3 and dP2, seeded classes that are
  nonnegative integer combinations of 1-4 declared curves with weights
  0-3, each given one zariski_decompose and one pseff_threshold along a
  random declared curve.

``ladder`` runs the one-parameter and constant-flag rows for d = 4..1, the
ROADMAP baseline table.  Its dP1 rows take about 23 s, so one pass fills a
run; it is kept out of ``surfaces`` so that a ``surfaces`` run holds
several passes.
"""

from __future__ import annotations

import random
import resource
from fractions import Fraction

import checks
import delpezzo
from tasks import Task

QUERIES_PER_SURFACE = 16


class SurfacesWorkload:
    name = "surfaces"
    in_process = True
    degrees_1p = (4, 3, 2)
    degrees_flag = (4, 3, 2)
    degrees_moving = (4, 3, 2)
    degrees_query = (4, 3, 2)

    def __init__(self, root: str, seed: int, reference: dict):
        from kstab.intersect import SurfaceModel, dp4_surface
        from kstab.poly import Polynomial
        from kstab import zariski

        self.reference = reference
        self._surface_model = SurfaceModel
        self._zariski = zariski
        # the whole ladder d = 1..7, each count checked by the generator
        self.data = {d: delpezzo.surface_data(d) for d in delpezzo.CURVE_COUNTS}
        shipped = {tuple(int(x) for x in v) for v in dp4_surface().negative_curves.values()}
        if set(self.data[4]["curves"].values()) != shipped:
            raise RuntimeError("generated dP4 curves differ from the shipped dp4 preset")
        self._build_models()  # model construction counts in set-up; each pass then builds its own
        t = Polynomial.var("t")
        # -K and -K - t*e1, with exact integer entries
        self.minus_k = {d: tuple(-k for k in data["canonical"]) for d, data in self.data.items()}
        self.moving = {
            d: tuple(Polynomial.constant(x, ("t",)) - (t if i == 1 else 0) for i, x in enumerate(mk))
            for d, mk in self.minus_k.items()
        }
        rng = random.Random(seed)
        self.queries = []
        self.nonempty_support: dict[int, bool] = {}  # query index -> support seen non-empty
        for d in self.degrees_query:
            labels = sorted(self.data[d]["curves"])
            for _ in range(QUERIES_PER_SURFACE):
                chosen = rng.sample(labels, rng.randint(1, 4))
                weights = {label: rng.randint(0, 3) for label in chosen}
                direction = rng.choice(labels)
                self.queries.append((d, weights, direction))

    def _build_models(self) -> dict:
        used = set(self.degrees_1p + self.degrees_flag + self.degrees_moving + self.degrees_query)
        return {
            d: self._surface_model(f"dP{d}", data["basis"], data["gram"], data["canonical"], data["curves"])
            for d, data in self.data.items() if d in used
        }

    def sizes(self) -> dict:
        return {
            "curves": {f"dP{d}": len(data["curves"]) for d, data in self.data.items()},
            "degrees_1p": list(self.degrees_1p),
            "degrees_flag": list(self.degrees_flag),
            "degrees_moving": list(self.degrees_moving),
            "point_queries": len(self.queries),
            "point_queries_per_surface": QUERIES_PER_SURFACE,
            # share of the queries run whose decomposition had a non-empty support
            "point_queries_nonempty_support": (sum(self.nonempty_support.values()) / len(self.nonempty_support)
                                               if self.nonempty_support else None),
        }

    def tasks(self, index: int) -> list[Task]:
        models = self._build_models()  # fresh per pass, so no pass inherits a warm model cache
        z = self._zariski
        out = []
        for d in self.degrees_1p:
            s = models[d]
            out.append(Task(f"1p.dP{d}", "volume_1p_s",
                            lambda s=s, d=d: z.one_param_volume(s, self.moving[d], 0, 3),
                            lambda r, d=d: self._check_1p(d, r)))
        for d in self.degrees_flag:
            s = models[d]
            out.append(Task(f"flag.dP{d}", "flag_2p_s",
                            lambda s=s, d=d: z.two_param_flag_volume(s, self.minus_k[d], 0, 1, "L"),
                            lambda r, d=d: self._check_digest(f"flag.dP{d}", _flag_text(r))))
        for d in self.degrees_moving:
            s = models[d]
            out.append(Task(f"flag-moving.dP{d}", "flag_2p_s",
                            lambda s=s, d=d: z.two_param_flag_volume(s, self.moving[d], 0, 1, "L"),
                            lambda r, d=d: self._check_digest(f"flag-moving.dP{d}", _flag_text(r))))
        for i, (d, weights, direction) in enumerate(self.queries):
            s, curves = models[d], self.data[d]["curves"]
            cls = tuple(sum(w * curves[label][k] for label, w in weights.items()) for k in range(s.rank))
            out.append(Task(f"query.{i}.dP{d}", "point_query_s",
                            lambda s=s, cls=cls, direction=direction: (
                                z.zariski_decompose(s, cls), z.pseff_threshold(s, cls, direction)),
                            lambda r, i=i, d=d, cls=cls, weights=weights, direction=direction:
                                self._check_query(i, d, cls, weights, direction, r)))
        return out

    def _check_digest(self, name: str, text: str) -> list[str]:
        return [] if checks.digest(text) == self.reference[name] else [f"{name} differs from the seed output"]

    def _check_1p(self, d: int, vf) -> list[str]:
        data = self.data[d]
        problems = self._check_digest(f"1p.dP{d}", _pieces_text(vf))
        outside = {(p.lo, p.hi) for p in vf.pw.pieces if p.label == "outside-pseff"}
        d0 = self.minus_k[d]
        d1 = tuple(-1 if i == 1 else 0 for i in range(len(d0)))
        for ch in vf.chambers:
            if (ch.lo, ch.hi) in outside:
                continue
            problems += checks.chamber(data["gram"], data["curves"], d0, d1, ch.lo, ch.hi, ch.p0, ch.p1, ch.support)
        return problems

    def _check_query(self, i: int, d: int, cls, weights: dict, direction: str, result) -> list[str]:
        data = self.data[d]
        res, threshold = result
        nu = dict(res.negative)
        self.nonempty_support[i] = bool(res.support)
        problems = checks.decomposition(data["gram"], data["curves"], cls, res.positive, nu)
        if set(nu) != set(res.support):
            problems.append("negative part and support disagree")
        # D - w*Z is effective, and -K is ample with -K.Z = 1 on a (-1)-curve
        z = data["curves"][direction]
        lower = Fraction(weights.get(direction, 0))
        upper = checks.pair(data["gram"], self.minus_k[d], cls) / checks.pair(data["gram"], self.minus_k[d], z)
        if not lower <= threshold <= upper:
            problems.append(f"threshold {threshold} outside [{lower}, {upper}]")
        return problems

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def record(self) -> dict:
        """Digests of the deterministic (seed-independent) outputs."""
        digests = {}
        for task in self.tasks(0):
            if task.group in ("volume_1p_s", "flag_2p_s"):
                result = task.run()
                digests[task.name] = checks.digest(
                    _pieces_text(result) if task.group == "volume_1p_s" else _flag_text(result))
        return digests


class LadderWorkload(SurfacesWorkload):
    name = "ladder"
    degrees_1p = (4, 3, 2, 1)
    degrees_flag = (4, 3, 2, 1)
    degrees_moving = ()
    degrees_query = ()


def _pieces_text(vf) -> str:
    return "|".join(f"{checks.canon(p.lo)},{checks.canon(p.hi)},{p.poly},{p.label}" for p in vf.pw.pieces)


def _flag_text(fd) -> str:
    cells = [
        f"{checks.canon(ch.t_lo)},{checks.canon(ch.t_hi)}:"
        + ";".join(f"{c.s_lo},{c.s_hi},{c.volume},{'+'.join(c.support)}" for c in ch.cells)
        for ch in fd.chambers
    ]
    return f"{checks.canon(fd.integral())}|" + "|".join(cells)
