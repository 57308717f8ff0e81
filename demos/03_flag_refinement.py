"""Two-parameter flag refinements, with an honest discrepancy on display.

A flag is a surface inside the threefold plus a curve inside the surface.
The engine restricts the positive parts of -K - tS to the surface, then
decomposes A(t) - s*Z into Zariski chambers *in two parameters at once*:
the s-walls come out as affine functions of t, each cell carries a
bivariate polynomial volume, and every certificate is checked at cell
vertices.  The refined invariant is 3/V times the exact double integral.

The third computation is the interesting one: for the flag line of class
L - e1 - e2 the engine finds three cells and the value 73/88, not the
frozen reference value 29/44, whose two printed cells do not even glue
continuously.  An exhaustive-subset oracle and numeric quadrature both side
with the engine; tests/test_acceptance.py checks 73/88 against an
independent oracle route and asserts that it differs from 29/44.
"""

from kstab import bl_p3_quintic, dp4_surface, quadric_surface, refined_s_flag
from kstab.invariants import restricted_family
from kstab.models import FLAG_SETUPS
from kstab.zariski import two_param_flag_volume

QUINTIC = bl_p3_quintic()
DP4 = dp4_surface()
QUADRIC = quadric_surface()


def family(label, surface):
    """The quintic's certified positive parts of -K - tS, restricted to the surface S."""
    setup = FLAG_SETUPS[("bl_p3_quintic", label)]
    return restricted_family(QUINTIC, setup.divisor, surface, setup.images)


dp4_family = family("S", DP4)
quadric_family = family("Qtilde", QUADRIC)

print("flag 1: the ruling line (class L) on the degree-4 del Pezzo slice")
flag = two_param_flag_volume(DP4, dp4_family[0][2], 0, 2, (1, 0, 0, 0, 0, 0))
for cell in flag.chambers[0].cells:
    print(f"  cell {cell.s_lo} <= s <= {cell.s_hi}: vol = {cell.volume}")
report = refined_s_flag(DP4, dp4_family, (1, 0, 0, 0, 0, 0), 22, curve_label="ruling")
print("  refined invariant:", report.value)

print("\nflag 2: the diagonal on the quadric slice (two restriction chambers)")
report = refined_s_flag(QUADRIC, quadric_family, (1, 1), 22, curve_label="diagonal")
print("  refined invariant:", report.value)

print("\nflag 3: the line through two of the five points (class L - e1 - e2)")
flag = two_param_flag_volume(DP4, dp4_family[0][2], 0, 2, (1, -1, -1, 0, 0, 0))
for cell in flag.chambers[0].cells:
    print(f"  cell {cell.s_lo} <= s <= {cell.s_hi}: support {cell.support or '(nef)'}")
report = refined_s_flag(DP4, dp4_family, (1, -1, -1, 0, 0, 0), 22, curve_label="line")
print("  refined invariant:", report.value, " (reference tables say 29/44 - see the module docstring)")

print("\nall three values are < 1, which is what the stability argument needs.")
