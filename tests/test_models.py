"""Model file format and registry tests."""

from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

from kstab.errors import ModelFileError
from kstab.intersect import Chamber, SurfaceModel, ThreefoldModel
from kstab.models import (
    PRESET_NAMES,
    format_class,
    load_model,
    log_discrepancy_default,
    parse_class_expr,
    parse_model,
    preset,
    serialize_model,
)


class TestRegistry:
    def test_six_presets(self):
        assert len(PRESET_NAMES) == 6

    def test_lookup(self):
        assert isinstance(preset("dp4"), SurfaceModel)
        assert isinstance(preset("bl_p3_quintic"), ThreefoldModel)
        assert preset("sing_line(12,3)").name == "sing_line(12,3)"

    def test_unknown(self):
        with pytest.raises(KeyError):
            preset("nope")

    def test_log_discrepancies(self):
        assert log_discrepancy_default("bl_p3_quintic", "Qtilde") == 1
        assert log_discrepancy_default("bl_node_22", "E") == 2
        assert log_discrepancy_default("sing_line(12,0)", "E") == 1
        assert log_discrepancy_default("dp4", "x") is None


class TestClassExpr:
    def test_flag_example(self):
        basis = ("L", "e1", "e2", "e3", "e4", "e5")
        vec = parse_class_expr("9/4 L - e1 - e2 - e3 - e4 - e5", basis)
        assert vec == (Q(9, 4), -1, -1, -1, -1, -1)

    def test_explicit_star_and_repeats(self):
        basis = ("H", "E")
        assert parse_class_expr("4*H - E", basis) == (4, -1)
        assert parse_class_expr("H + H - 2 E", basis) == (2, -2)

    def test_round_trip(self):
        basis = ("L", "e1", "e2", "e3", "e4", "e5")
        vec = (Q(5, 4), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2))
        assert parse_class_expr(format_class(vec, basis), basis) == vec

    def test_zero_class(self):
        basis = ("L", "e1")
        assert format_class((0, 0), basis) == "0"
        assert parse_class_expr("0", basis) == (0, 0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6), min_size=1, max_size=4))
    @example([Q(0), Q(0)])
    def test_format_parse_round_trip(self, vec):
        basis = ("L", "e1", "e2", "e3")[: len(vec)]
        assert parse_class_expr(format_class(vec, basis), basis) == tuple(vec)

    def test_errors(self):
        with pytest.raises(ModelFileError):
            parse_class_expr("2 + L", ("L",))
        with pytest.raises(ModelFileError):
            parse_class_expr("Q", ("L",))

    @pytest.mark.parametrize(
        "text,vec",
        [("L - - e1", (1, 1)), ("--L", (1, 0)), ("- - - e1", (0, -1)), ("L + - 2 e1", (1, -2))],
    )
    def test_signs_compose(self, text, vec):
        assert parse_class_expr(text, ("L", "e1")) == vec

    @pytest.mark.parametrize("text", ["L e1", "L 2", "L * e1", "1/0", "1/0 L", "L -", pytest.param("9" * 5000 + " L", id="5000-digits")])
    def test_malformed_is_model_file_error(self, text):
        with pytest.raises(ModelFileError):
            parse_class_expr(text, ("L", "e1"))


numbers = st.fractions(min_value=-9, max_value=9, max_denominator=6)
labels = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,5}", fullmatch=True)


@st.composite
def model_variants(draw):
    """A preset, or sing_line(g, k), with its declared data redrawn at random.

    Threefolds get a random form, anticanonical class, curves, effective
    classes, divisors and chamber tables; surfaces keep their Gram and
    negative curves (whose squares must stay negative) and get a random
    canonical class and effective cone.
    """
    name = draw(st.sampled_from(PRESET_NAMES + ("sing_line(g,k)",)))
    if name == "sing_line(g,k)":
        name = f"sing_line({draw(st.integers(3, 40))},{draw(st.integers(0, 12))})"
    model = preset(name)
    if not draw(st.booleans()):
        return model
    r = model.rank
    vec = st.tuples(*[numbers] * r)
    labelled = st.dictionaries(labels, vec, max_size=3)
    if isinstance(model, SurfaceModel):
        return SurfaceModel(
            model.name, model.basis, model.gram, canonical=draw(st.none() | vec),
            negative_curves=model.negative_curves, eff_generators=draw(labelled),
        )
    keys = st.tuples(*[st.integers(0, r - 1)] * 3).map(lambda k: tuple(sorted(k)))
    chamber = st.builds(Chamber, numbers, numbers, vec, vec)
    return ThreefoldModel(
        model.name, model.basis, draw(st.dictionaries(keys, numbers)), draw(vec),
        curves=draw(labelled), effective_classes=draw(labelled), divisors=draw(labelled),
        chambers=draw(st.dictionaries(labels, st.lists(chamber, max_size=3).map(tuple), max_size=2)),
    )


def _model_data(model):
    if isinstance(model, SurfaceModel):
        return (model.name, model.basis, model.gram, model.canonical, model.negative_curves, model.eff_generators)
    return (model.name, model.basis, model.triple, model.anticanonical, model.curves, model.effective_classes,
            model.divisors, model.chambers)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name", ["bl_p3_quintic", "bl_node_22", "bl_v4_conic", "sing_line(12,0)", "dp4", "quadric"]
    )
    def test_serialize_parse_byte_identical(self, name):
        model = preset(name)
        text = serialize_model(model)
        parsed = parse_model(text)
        assert serialize_model(parsed) == text

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_serialize_parse_round_trip(self, data):
        model = data.draw(model_variants())
        text = serialize_model(model)
        parsed = parse_model(text)
        assert serialize_model(parsed) == text
        assert _model_data(parsed) == _model_data(model)

    def test_empty_cone_with_curves_round_trips(self):
        dp4 = preset("dp4")
        model = SurfaceModel("dp4", dp4.basis, dp4.gram, negative_curves=dp4.negative_curves, eff_generators={})
        parsed = parse_model(serialize_model(model))
        assert parsed.eff_generators == {} and parsed.negative_curves == dp4.negative_curves

    def test_parsed_model_computes(self):
        from kstab.invariants import s_invariant
        from kstab.zariski import threefold_volume_certified

        model = parse_model(serialize_model(preset("bl_p3_quintic")))
        vf = threefold_volume_certified(model, "Qtilde")
        assert s_invariant(vf, 22) == Q(19, 22)

    def test_the_quintic_carries_its_hyperplane_table(self):
        from kstab.invariants import s_invariant
        from kstab.zariski import threefold_volume_certified

        text = serialize_model(preset("bl_p3_quintic"))
        assert "\nchambers H\n0 2 : 4 -1 ; -2 1/2\n" in text
        model = parse_model(text)
        assert model.chambers == preset("bl_p3_quintic").chambers
        assert s_invariant(threefold_volume_certified(model, "H"), 22) == Q(1, 2)

    def test_header_required(self):
        with pytest.raises(ModelFileError):
            parse_model("model surface x\nbasis\na\n")

    @pytest.mark.parametrize("entry", ["1/0", "two"])
    @pytest.mark.parametrize("section", ["gram", "canonical", "negative_curves"])
    def test_bad_number_names_section(self, section, entry):
        lines = serialize_model(preset("dp4")).splitlines()
        row = lines.index(section) + 1
        label, colon, numbers = lines[row].rpartition(":")
        lines[row] = f"{label}{colon} {entry} {numbers.split(None, 1)[1]}"  # replace the first number
        with pytest.raises(ModelFileError, match=f"{entry}.*{section}"):
            parse_model("\n".join(lines) + "\n")

    @pytest.mark.parametrize("entry", ["1/0", "two"])
    def test_bad_threefold_number(self, entry):
        text = serialize_model(preset("bl_p3_quintic"))
        lines = text.splitlines()
        row = lines.index("triple") + 1
        lines[row] = lines[row].rsplit(" ", 1)[0] + f" {entry}"
        with pytest.raises(ModelFileError, match="triple"):
            parse_model("\n".join(lines) + "\n")

    def test_user_file_cannot_shadow_preset(self, tmp_path):
        text = serialize_model(preset("dp4"))
        path = tmp_path / "dp4.model"
        path.write_text(text)
        with pytest.raises(ModelFileError, match="shadow"):
            load_model(str(path))

    def test_user_file_loads(self, tmp_path):
        text = serialize_model(preset("dp4")).replace("model surface dp4", "model surface mine")
        path = tmp_path / "mine.model"
        path.write_text(text)
        model = load_model(str(path))
        assert model.name == "mine"
        assert len(model.negative_curves) == 16
