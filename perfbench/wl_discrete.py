"""The ``discrete`` workload: lattice, catalog and toric work at scale.

No LP and no polynomial algebra beyond one box search, so this is where
the subgroup walk, the box search and the hulls show, and where the
chamber machinery of ``surfaces`` is bypassed.  Its inputs are fixed; the
seed only names the run.
"""

from __future__ import annotations

import itertools
import math
import resource

import checks
from tasks import Task

DIAG_4 = (4, -4, 4, -4)
DIAG_2 = (2, -2, 2, -2, 2, -2)
NEF_FORM = "-8*a^2 + 28*a*b - 22*b^2 + 40"
BOX_SIDE = 1000
CUBE_POINTS = tuple(itertools.product((-1, 0, 1), repeat=3))
BALL_POINTS = tuple(p for p in itertools.product(range(-2, 3), repeat=3) if sum(map(abs, p)) <= 2)
REFERENCE_POLYTOPES = ("prism", "cube", "octahedron", "asymmetric_reflexive")

# Known sizes, independent of the engine's digests.
EXPECTED_COUNTS = {
    "isotropic.diag4": 56,
    "overlattices.diag4": 70,
    "overlattices.diag2x6": 59,
}


def _diag(entries) -> list[list[int]]:
    return [[x if i == j else 0 for j in range(len(entries))] for i, x in enumerate(entries)]


class DiscreteWorkload:
    name = "discrete"
    in_process = True

    def __init__(self, root: str, seed: int, reference: dict):
        from kstab import k3cat, lattice, toric
        from kstab.poly import parse_polynomial

        self.reference = reference
        self.lattice, self.k3cat, self.toric = lattice, k3cat, toric
        self.diag4 = lattice.GramLattice(_diag(DIAG_4))
        self.diag2 = lattice.GramLattice(_diag(DIAG_2))
        self.nef_form = parse_polynomial(NEF_FORM, ("a", "b"))
        self.box = {"a": (1, BOX_SIDE), "b": (-BOX_SIDE, -1)}
        self.catalog_pairs = sorted(set(k3cat.TYPE_PAIRS.values()) | set(k3cat.BN_EXCLUDING_PAIRS))

    def sizes(self) -> dict:
        return {
            "diag4_group_order": abs(math.prod(DIAG_4)),
            "diag2x6_group_order": abs(math.prod(DIAG_2)),
            "catalog_lattices": len(self.catalog_pairs),
            "box_side": BOX_SIDE,
            "box_points": BOX_SIDE * BOX_SIDE,
            "hull_points": {"cube27": len(CUBE_POINTS), "ball25": len(BALL_POINTS)},
            "reference_polytopes": list(REFERENCE_POLYTOPES),
        }

    def tasks(self, index: int) -> list[Task]:
        lat, toric = self.lattice, self.toric
        specs = [
            ("isotropic.diag4", "overlattice_s", lambda: lat.isotropic_elements(self.diag4), None),
            ("overlattices.diag4", "overlattice_s", lambda: lat.even_overlattices(self.diag4), DIAG_4),
            ("overlattices.diag2x6", "overlattice_s", lambda: lat.even_overlattices(self.diag2), DIAG_2),
            ("catalog", "overlattice_s", self._catalog, None),
            (f"box.{BOX_SIDE}", "box_search_s", lambda: lat.integer_search_quadratic(self.nef_form, ">", self.box),
             None),
            ("hull.cube27", "toric_s", lambda: toric.LatticePolytope(CUBE_POINTS), None),
            ("hull.ball25", "toric_s", lambda: toric.LatticePolytope(BALL_POINTS), None),
        ]
        specs += [(f"toric.{name}", "toric_s", lambda name=name: self._toric(name), None)
                  for name in REFERENCE_POLYTOPES]
        return [Task(name, group, run, lambda r, name=name, diag=diag: self._check(name, r, diag))
                for name, group, run, diag in specs]

    def _catalog(self):
        lat, k3 = self.lattice, self.k3cat
        rows = []
        for h, m in self.catalog_pairs:
            g = k3.nl_gram(k3.DEGREE, h, m)
            rows.append((h, m, lat.discriminant_group(g).factors, lat.signature(g),
                         lat.is_primitivity_forced(g), k3.is_bn_excluding(h, m), k3.type_match(h, m)))
        return rows

    def _toric(self, name: str):
        toric = self.toric
        p = getattr(toric, name)()
        dual = toric.polar_dual(p)
        return (p.vertices, dual.vertices, toric.barycenter(dual), toric.anticanonical_degree(p),
                toric.volume(p), len(p.facets))

    def _check(self, name: str, result, diag) -> list[str]:
        problems = [] if checks.digest(_text(name, result)) == self.reference[name] else [
            f"{name} differs from the seed output"]
        if name in EXPECTED_COUNTS and len(result) != EXPECTED_COUNTS[name]:
            problems.append(f"{name}: {len(result)} results, expected {EXPECTED_COUNTS[name]}")
        if diag is None:
            return problems
        det = math.prod(diag)
        for o in result:
            order = len(o.subgroup)
            if any(o.gram.gram[i][i] % 2 for i in range(len(diag))):
                problems.append(f"{name}: odd overlattice for a subgroup of order {order}")
            if checks.det(o.gram.gram) * order * order != det:
                problems.append(f"{name}: det(overlattice) * |H|^2 != det(lattice) for |H| = {order}")
        return problems

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def record(self) -> dict:
        return {task.name: checks.digest(_text(task.name, task.run())) for task in self.tasks(0)}


def _text(name: str, result) -> str:
    """Canonical text of a task's output, compared by digest with the seed."""
    if name.startswith("overlattices."):
        return checks.canon([(o.gram.gram, o.basis, o.subgroup) for o in result])
    if name.startswith("hull."):
        return checks.canon((result.vertices, [(f.normal, f.offset, f.vertices) for f in result.facets]))
    return checks.canon(result)

