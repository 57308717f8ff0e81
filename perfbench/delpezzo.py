"""Del Pezzo surfaces dP_d as plain data, built without importing kstab.

dP_d is the projective plane blown up in r = 9 - d general points.  Basis
(L, e1..er), Gram diag(1, -1, ..., -1), canonical class K = -3L + sum(e).
The (-1)-curves are the classes D = aL - sum(b_i e_i) with D^2 = -1 and
K.D = -1.  For a >= 1 every b_i lies in [0, 3] (the largest multiplicity of
a (-1)-curve on dP_1 is 3, on 6L - 3e1 - 2e2 - ... - 2e8), so the search is
bounded by 4^r per degree a instead of a naive sweep.  For d <= 7 these
curves generate the effective cone.
"""

from __future__ import annotations

# Number of (-1)-curves on dP_d, d = 7..1.
CURVE_COUNTS = {7: 3, 6: 6, 5: 10, 4: 16, 3: 27, 2: 56, 1: 240}

MAX_MULTIPLICITY = 3


def _multiplicities(r: int, total: int, squares: int, cap: int):
    """Nonnegative integer r-vectors with entries <= cap, given sum and sum of squares."""
    if r == 0:
        if total == 0 and squares == 0:
            yield ()
        return
    for b in range(min(cap, total) + 1):
        rest_sq = squares - b * b
        if rest_sq < 0:
            break
        # every remaining entry is at most cap, so the sum caps the squares
        if total - b > cap * (r - 1) or rest_sq < total - b:
            continue
        for tail in _multiplicities(r - 1, total - b, rest_sq, cap):
            yield (b,) + tail


def _label(vec: tuple[int, ...]) -> str:
    a, rest = vec[0], vec[1:]
    if a == 0:
        return f"e{rest.index(1) + 1}"
    return f"c{a}_" + "".join(str(-x) for x in rest)


def minus_one_curves(d: int) -> dict[str, tuple[int, ...]]:
    """Labelled (-1)-curves of dP_d as integer vectors in the basis (L, e1..er)."""
    if d not in CURVE_COUNTS:
        raise ValueError(f"del Pezzo degree must be 1..7, got {d}")
    r = 9 - d
    vecs = []
    for i in range(r):
        vecs.append((0,) + tuple(1 if j == i else 0 for j in range(r)))
    for a in range(1, 7):
        # D^2 = a^2 - sum b^2 = -1 and K.D = -3a + sum b = -1
        for bs in _multiplicities(r, 3 * a - 1, a * a + 1, min(a, MAX_MULTIPLICITY)):
            vecs.append((a,) + tuple(-b for b in bs))
    curves = {_label(v): v for v in sorted(vecs)}
    if len(curves) != CURVE_COUNTS[d]:
        raise RuntimeError(f"dP{d}: found {len(curves)} (-1)-curves, expected {CURVE_COUNTS[d]}")
    return curves


def surface_data(d: int) -> dict:
    """Basis, Gram, canonical class and curves of dP_d as integer data."""
    r = 9 - d
    basis = ("L",) + tuple(f"e{i}" for i in range(1, r + 1))
    gram = tuple(
        tuple((1 if i == 0 else -1) if i == j else 0 for j in range(r + 1)) for i in range(r + 1)
    )
    canonical = (-3,) + (1,) * r
    return {
        "degree": d,
        "basis": basis,
        "gram": gram,
        "canonical": canonical,
        "curves": minus_one_curves(d),
    }
