"""Guards on inputs and on the certified-cell loop, and the tracer's entry points.

A class or family of the wrong length is an InvalidModel, not a wrong
answer or a bare IndexError.  The split-depth guard of the certified-cell
loop raises WallCrossingDegeneracy for one- and two-parameter families
alike.  Every entry point the benchmark tracer rebinds must exist, since
the tracer looks each one up with no guard.
"""

import ast
import importlib
from pathlib import Path

import pytest

from kstab import zariski
from kstab.errors import InvalidModel, WallCrossingDegeneracy
from kstab.intersect import bl_p3_quintic, dp4_surface
from kstab.poly import Polynomial

T = Polynomial.var("t")
MINUS_K = (3, -1, -1, -1, -1, -1)
MOVING = (3, -1 - T, -1, -1, -1, -1)  # -K - t*e1 on dP4


class TestWrongLength:
    def test_pseff_threshold_rejects_a_short_class(self):
        with pytest.raises(InvalidModel, match="basis size"):
            zariski.pseff_threshold(dp4_surface(), (1, 2), "L")

    def test_one_param_volume_rejects_a_short_family(self):
        with pytest.raises(InvalidModel, match="basis size"):
            zariski.one_param_volume(dp4_surface(), (0, T), 0, 1)

    def test_two_param_flag_volume_rejects_a_short_family(self):
        with pytest.raises(InvalidModel, match="basis size"):
            zariski.two_param_flag_volume(dp4_surface(), (0, T), 0, 1, "L")

    def test_class_vectors_are_checked_on_both_models(self):
        with pytest.raises(InvalidModel, match="basis size"):
            dp4_surface().class_vector((1, 0, 0, 0, 0, 0, 0))
        model = bl_p3_quintic()
        with pytest.raises(InvalidModel, match="basis size"):
            model.class_vector((1,) * (model.rank + 1))
        assert model.class_vector((1,) * model.rank) == (1,) * model.rank


class TestSplitGuard:
    def test_one_param_march(self, monkeypatch):
        monkeypatch.setattr(zariski, "_MAX_SPLIT_DEPTH", 0)
        with pytest.raises(WallCrossingDegeneracy, match="did not terminate"):
            zariski.one_param_volume(dp4_surface(), MOVING, 0, 3)

    def test_moving_flag(self, monkeypatch):
        monkeypatch.setattr(zariski, "_MAX_SPLIT_DEPTH", 0)
        with pytest.raises(WallCrossingDegeneracy, match="did not terminate"):
            zariski.two_param_flag_volume(dp4_surface(), MOVING, 0, 1, "L")

    def test_the_same_calls_finish_under_the_default_guard(self):
        assert len(zariski.one_param_volume(dp4_surface(), MOVING, 0, 3).chambers) == 3
        assert zariski.two_param_flag_volume(dp4_surface(), MOVING, 0, 1, "L").chambers


def test_every_traced_entry_point_resolves():
    # read the table out of the tracer's source; nothing there is run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    table = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "ENTRY_POINTS" for t in node.targets)
    )
    entry_points = ast.literal_eval(table)
    assert entry_points
    for module, attribute, _, _ in entry_points:
        owner = importlib.import_module(module)
        for name in attribute.split("."):
            owner = getattr(owner, name)
        assert callable(owner), f"{module}.{attribute}"
