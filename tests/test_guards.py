"""Guards on inputs and on the certified-cell loop, the tracer's entry points
and the import graph.

A class or family of the wrong length is an InvalidModel, not a wrong
answer or a bare IndexError, and an unknown class, divisor or model name is
an UnknownLabel, a KstabError that is also a KeyError.  The split-depth
guard of the certified-cell loop raises WallCrossingDegeneracy for one- and
two-parameter families alike, and an empty or reversed interval is an
InvalidModel for both.  Every entry point the benchmark tracer rebinds must exist, since
the tracer looks each one up with no guard.  A command imports only its
own layer: the package loads names on first use, ``cli`` imports each
layer inside the command that uses it, and the lattice layer does not pull
in the chamber layers.  No command and no layer imports ``dataclasses`` or
``inspect``.  No library module holds an ``assert``, which ``python -O``
would strip.
"""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import kstab
from kstab import toric, zariski
from kstab.errors import InvalidModel, KstabError, UnknownLabel, WallCrossingDegeneracy
from kstab.intersect import SurfaceModel, bl_p3_quintic, dp4_surface
from kstab.models import preset
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

    def test_effective_generators_are_checked(self):
        with pytest.raises(InvalidModel, match="basis size"):
            SurfaceModel("s", ("a", "b"), [[1, 0], [0, -1]], negative_curves={"c": (0, 1)}, eff_generators={"g": (1,)})

    def test_class_vectors_are_checked_on_both_models(self):
        with pytest.raises(InvalidModel, match="basis size"):
            dp4_surface().class_vector((1, 0, 0, 0, 0, 0, 0))
        model = bl_p3_quintic()
        with pytest.raises(InvalidModel, match="basis size"):
            model.class_vector((1,) * (model.rank + 1))
        assert model.class_vector((1,) * model.rank) == (1,) * model.rank


class TestEmptyIntervals:
    """Both family entry points need lo < hi.  Unchecked, a reversed flag
    interval gives a chamber [1, 0] with a negative integral, and an empty
    or reversed one-parameter interval a bare ValueError from the piecewise
    constructor or a WallCrossingDegeneracy."""

    def test_reversed_flag_interval(self):
        with pytest.raises(InvalidModel, match=r"interval \[1, 0\] is empty"):
            zariski.two_param_flag_volume(dp4_surface(), MINUS_K, 1, 0, "L")

    def test_empty_flag_interval(self):
        with pytest.raises(InvalidModel, match=r"interval \[1/2, 1/2\] is empty"):
            zariski.two_param_flag_volume(dp4_surface(), MINUS_K, "1/2", "1/2", "L")

    def test_empty_one_param_interval(self):
        with pytest.raises(InvalidModel, match=r"interval \[0, 0\] is empty"):
            zariski.one_param_volume(dp4_surface(), (3 - T, -1, -1, -1, -1, -1), 0, 0)

    def test_reversed_one_param_interval(self):
        with pytest.raises(InvalidModel, match=r"interval \[1, 0\] is empty"):
            zariski.one_param_volume(dp4_surface(), (3 - T, -1, -1, -1, -1, -1), 1, 0)


class TestUnknownLabels:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: zariski.threefold_volume_certified(preset("bl_p3_quintic"), "nosuch"),
            lambda: zariski.zariski_decompose(preset("dp4"), "nosuch"),
            lambda: zariski.pseff_threshold(preset("dp4"), "L", "nosuch"),
            lambda: preset("nosuch"),
        ],
        ids=["threefold-class", "surface-class", "surface-direction", "preset"],
    )
    def test_a_typed_error_that_is_still_a_key_error(self, call):
        with pytest.raises(UnknownLabel, match="nosuch") as info:
            call()
        assert isinstance(info.value, KstabError) and isinstance(info.value, KeyError)
        assert str(info.value).startswith("unknown")  # no KeyError quoting


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


ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "kstab"


def test_every_traced_entry_point_resolves():
    # read the table out of the tracer's source; nothing there is run
    path = ROOT / "perfbench" / "tracer.py"
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


def _kstab_modules_after(statement: str) -> set[str]:
    """The kstab modules a fresh interpreter holds after running statement."""
    code = f"import sys\n{statement}\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == 'kstab'))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def _imported_by(*args: str) -> set[str]:
    """Every module a fresh interpreter imports while running ``python args``.

    ``-X importtime`` lists each import on stderr, the interpreter's own
    start-up included.
    """
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return {ln.rsplit("|", 1)[1].strip() for ln in proc.stderr.splitlines() if ln.startswith("import time:")}


def _executed_at_import(tree: ast.Module):
    """Every node of a module outside function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class TestImportGraph:
    def test_the_package_loads_no_layer(self):
        assert _kstab_modules_after("import kstab") == {"kstab"}

    def test_the_lattice_layer_leaves_the_chamber_layers_out(self):
        loaded = _kstab_modules_after("import kstab.lattice")
        assert "kstab.lattice" in loaded
        assert not loaded & {"kstab.poly", "kstab.zariski", "kstab.lp", "kstab.intersect", "kstab.verify"}

    def test_every_public_name_resolves(self):
        assert len(kstab.__all__) == 98
        for name in kstab.__all__:
            assert getattr(kstab, name) is not None, name
        assert kstab.polytope_volume is toric.volume
        assert kstab.volume is zariski.volume
        assert set(kstab.__all__) <= set(dir(kstab))

    def test_star_import(self):
        namespace = {}
        exec("from kstab import *", namespace)
        assert set(kstab.__all__) <= set(namespace)
        assert namespace["polytope_volume"] is toric.volume

    def test_submodules_import_as_before(self):
        assert isinstance(toric, types.ModuleType) and toric.__name__ == "kstab.toric"
        assert kstab.lp is importlib.import_module("kstab.lp")
        assert _kstab_modules_after("from kstab import toric") == {"kstab", "kstab.errors", "kstab.rationals", "kstab.records", "kstab.toric"}

    def test_an_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="nosuch"):
            kstab.nosuch
        assert not hasattr(kstab, "nosuch")

    def test_cli_imports_only_errors_and_rationals_at_module_level(self):
        tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
        relative = set()
        for node in _executed_at_import(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                relative.add(node.module)
            assert not (isinstance(node, ast.Import) and any(a.name.startswith("kstab") for a in node.names))
        assert relative == {"errors", "rationals"}

    @pytest.mark.parametrize(
        "args",
        [("-m", "kstab.cli", "lattice", "disc", "--gram", "22 0; 0 -2"), ("-c", "import kstab.verify")],
        ids=["lattice-disc", "import-verify"],
    )
    def test_no_dataclasses_or_inspect(self, args):
        # the result records are built without dataclasses, which imports inspect
        imported = _imported_by(*args)
        assert "kstab.rationals" in imported
        assert not imported & {"dataclasses", "inspect"}

    @pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
    def test_no_dataclasses_in_the_library(self, path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            assert "dataclasses" not in names + [getattr(node, "module", None)]

    @pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
    def test_no_assert_in_the_library(self, path):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree))
