"""Command-line interface tests: reports, determinism, exit codes."""

import json

import pytest

from kstab.cli import main
from kstab.verify import verify_paper


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSinv:
    def test_qtilde_report(self, capsys):
        code, out = run(capsys, "sinv", "--model", "bl_p3_quintic", "--divisor", "Qtilde", "--A", "1", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["S"] == "19/22"
        assert report["beta"] == "3/22"
        assert report["verdict"].startswith("positive")
        assert report["claims"]

    def test_default_log_discrepancy(self, capsys):
        code, out = run(capsys, "sinv", "--model", "bl_p3_quintic", "--divisor", "E", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["A"] == "1"
        assert report["S"] == "1/4"

    def test_approx_column(self, capsys):
        code, out = run(capsys, "sinv", "--model", "bl_p3_quintic", "--divisor", "Qtilde", "--approx")
        assert code == 0
        assert "0.8636" in out

    def test_the_hyperplane_table(self, capsys):
        # -K - tH = (1 - t/2)(-K) + (t/2)Qtilde on [0, 2], so vol = 22(1 - t/2)^3
        code, out = run(capsys, "sinv", "--model", "bl_p3_quintic", "--divisor", "H", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["S"] == "1/2"
        assert report["chambers"] == [{"interval": ["0", "2"], "piece": "22 - 33*t + 33/2*t^2 - 11/4*t^3"}]
        assert "verdict" not in report  # no log discrepancy is declared for H

    def test_a_model_file_with_more_effective_classes(self, capsys, tmp_path):
        # H = (1, 0) is effective too; the residual 2t*Qtilde of the E table stays in the cone
        from kstab.models import preset, serialize_model

        text = serialize_model(preset("bl_p3_quintic")).replace("model threefold bl_p3_quintic", "model threefold mine")
        path = tmp_path / "mine.model"
        path.write_text(text.replace("\neffective\n", "\neffective\nH: 1 0\n"))
        for divisor, value in (("E", "1/4"), ("Qtilde", "19/22")):
            argv = ("sinv", "--model", "mine", "--divisor", divisor, "--model-file", str(path), "--json")
            code, out = run(capsys, *argv)
            assert code == 0
            assert json.loads(out)["S"] == value


class TestFlagSinv:
    @pytest.mark.parametrize(
        "surface,curve,value",
        [
            ("S", "L", "53/88"),
            ("S", "L - e1 - e2", "73/88"),
            ("Qtilde", "f1 + f2", "1/2"),
        ],
    )
    def test_values(self, capsys, surface, curve, value):
        code, out = run(
            capsys, "flag-sinv", "--model", "bl_p3_quintic", "--surface", surface, "--curve", curve, "--json"
        )
        assert code == 0
        assert json.loads(out)["value"] == value


class TestZariski:
    def test_report(self, capsys):
        code, out = run(
            capsys, "zariski", "--model", "dp4", "--class", "9/4 L - e1 - e2 - e3 - e4 - e5", "--json"
        )
        assert code == 0
        report = json.loads(out)
        assert report["support"] == ["conic"]
        assert report["negative"]["conic"] == "1/2"
        assert report["positive"] == "5/4 L - 1/2 e1 - 1/2 e2 - 1/2 e3 - 1/2 e4 - 1/2 e5"

    def test_not_pseff_is_exit_2(self, capsys):
        code, out = run(capsys, "zariski", "--model", "dp4", "--class", "L - 2 e1", "--json")
        assert code == 2
        assert json.loads(out)["error"] == "NotPseudoEffective"

    def test_the_error_writes_the_class_in_rationals(self, capsys):
        code, out = run(capsys, "zariski", "--model", "quadric", "--class", "f1 - f2", "--json")
        assert code == 2
        message = json.loads(out)["message"]
        assert "(1, -1)" in message and "Fraction(" not in message


class TestLattice:
    def test_disc(self, capsys):
        code, out = run(capsys, "lattice", "disc", "--gram", "22 0; 0 -2", "--json")
        assert code == 0
        report = json.loads(out)
        assert report["invariant_factors"] == [2, 22]
        assert report["determinant"] == -44

    def test_primitive(self, capsys):
        code, out = run(capsys, "lattice", "primitive", "--gram", "22 0; 0 -2", "--json")
        report = json.loads(out)
        assert report["forced"] is True
        assert report["isotropic_nonzero"] == []

    def test_overlattices(self, capsys):
        code, out = run(capsys, "lattice", "overlattices", "--gram", "2 0; 0 -2", "--json")
        report = json.loads(out)
        assert report["count"] == 2

    @pytest.mark.parametrize("value", ["abc", "-1"])
    def test_bad_enumeration_bound(self, capsys, monkeypatch, value):
        # a JSON error with exit 2, not a traceback or a "group exceeds the bound"
        monkeypatch.setenv("KSTAB_ENUM_BOUND", value)
        code, out = run(capsys, "lattice", "overlattices", "--gram", "2 0; 0 -2", "--json")
        assert code == 2
        error = json.loads(out)
        assert error["error"] == "DomainError"
        assert "KSTAB_ENUM_BOUND" in error["message"] and repr(value) in error["message"]

    def test_saturate(self, capsys):
        code, out = run(
            capsys, "lattice", "saturate", "--gram", "22 11 6; 11 4 1; 6 1 -2", "--sub", "1 0 0; 0 1 0", "--json"
        )
        assert json.loads(out)["saturated"] is True

    def test_search(self, capsys):
        code, out = run(
            capsys,
            "lattice", "search",
            "--form", "-22 + 28*c - 8*c^2",
            "--op", ">",
            "--box", "c=-100..100",
            "--json",
        )
        report = json.loads(out)
        assert report["solutions"] == [[2]]
        assert "within box" in report["scope"]


class TestNlToricModels:
    def test_nl_classify(self, capsys):
        code, out = run(capsys, "nl", "classify", "--h", "11", "--m", "4", "--json")
        report = json.loads(out)
        assert report["type"] == "I"
        assert report["bn_excluding"] is True
        assert report["determinant"] == -33

    def test_nl_nodal(self, capsys):
        code, out = run(capsys, "nl", "classify", "--h", "0", "--m", "-2", "--json")
        report = json.loads(out)
        assert report["type"] == "none"
        assert report["bn_excluding"] is False

    def test_toric_check(self, capsys, tmp_path):
        f = tmp_path / "prism.txt"
        f.write_text("-1 -1 -1\n1 0 -1\n0 1 -1\n-1 -1 1\n1 0 1\n0 1 1\n")
        code, out = run(capsys, "toric", "check", "--vertices", str(f), "--json")
        report = json.loads(out)
        assert report["reflexive"] is True
        assert report["degree"] == 18
        assert report["barycenter"] == ["0", "0", "0"]
        assert report["kps"] is True

    def test_models_list(self, capsys):
        code, out = run(capsys, "models", "list", "--json")
        assert json.loads(out)["presets"] == [
            "bl_node_22",
            "bl_p3_quintic",
            "bl_v4_conic",
            "dp4",
            "quadric",
            "sing_line",
        ]


class TestExitCodes:
    def test_usage_error_is_64(self, capsys):
        assert main(["sinv", "--model"]) == 64

    def test_unknown_command_is_64(self, capsys):
        assert main(["frobnicate"]) == 64

    def test_missing_file_is_64(self, capsys):
        assert main(["toric", "check", "--vertices", "/nonexistent/file"]) == 64

    @pytest.mark.parametrize("text", ["1/2 0 0\n0 1 0\n0 0 1\n", "1 0\n0 1\n-1 -1\n", "a b c\n"])
    def test_malformed_vertex_file_is_64(self, capsys, tmp_path, text):
        path = tmp_path / "vertices.txt"
        path.write_text(text)
        assert main(["toric", "check", "--vertices", str(path)]) == 64
        assert capsys.readouterr().err.startswith("usage error: --vertices")

    def test_a_vertex_file_that_is_not_utf8_is_64(self, capsys, tmp_path):
        path = tmp_path / "vertices.txt"
        path.write_bytes("1 0 0\n".encode("utf-16"))  # starts with ff fe
        assert main(["toric", "check", "--vertices", str(path)]) == 64
        assert capsys.readouterr().err.startswith("usage error: --vertices")


class TestMalformedLatticeInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("lattice", "overlattices", "--gram", "2 1; 1"),
            ("lattice", "overlattices", "--gram", "2 1/2; 1/2 2"),
            ("lattice", "disc", "--gram", "2 1.5; 1.5 2"),
            ("lattice", "disc", "--gram", "2 1; 0 2"),
            ("lattice", "saturate", "--gram", "2 1; 1 2", "--sub", "1 x"),
            ("lattice", "saturate", "--gram", "2 1; 1 2", "--sub", "1 0 0"),
            ("lattice", "search", "--form", "-22 + 28*c - 8*c^2", "--op", ">", "--box", "c=a..2"),
            ("lattice", "search", "--form", "-22 + 28*c - 8*c^2", "--op", ">", "--box", "c 1..2"),
            ("lattice", "search", "--form", "-22 + 28*c - 8*c^2", "--op", ">", "--box", "c=1:2"),
            ("lattice", "search", "--form", "-22 + 28*c - 8*c^2", "--op", ">", "--box", "d=1..2"),
            ("lattice", "search", "--form", "c^", "--op", ">", "--box", "c=1..2"),
            ("lattice", "search", "--form", "c/0", "--op", ">", "--box", "c=1..2"),
            ("lattice", "search", "--form", "2**", "--op", ">", "--box", "c=1..2"),
            ("lattice", "search", "--form", "c + )", "--op", ">", "--box", "c=1..2"),
            ("lattice", "search", "--form", "(c+1)^3200", "--op", ">", "--box", "c=2..2"),
            ("lattice", "search", "--form", "(" * 5000 + "c" + ")" * 5000, "--op", ">", "--box", "c=1..2"),
        ],
    )
    def test_usage_error_is_64(self, capsys, argv):
        code = main(list(argv) + ["--json"])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.err.startswith("usage error:")
        assert "Traceback" not in captured.err + captured.out


class TestUnknownNames:
    @pytest.mark.parametrize(
        "argv,names",
        [
            (("sinv", "--model", "bl_p3_quintic", "--divisor", "Qtilde", "--A", "x"), ["'x'"]),
            (("sinv", "--model", "bl_p3_quintic", "--divisor", "Qtilde", "--A", "1/0"), ["'1/0'"]),
            (("sinv", "--model", "nosuch", "--divisor", "Qtilde"), ["'nosuch'", "bl_p3_quintic", "sing_line(g,k)"]),
            (("zariski", "--model", "nosuch", "--class", "L"), ["'nosuch'", "dp4", "quadric"]),
            (("sinv", "--model", "bl_p3_quintic", "--divisor", "NOPE"), ["'NOPE'", "E, H, Qtilde"]),
        ],
    )
    def test_usage_error_is_64(self, capsys, argv, names):
        code = main(list(argv) + ["--json"])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.err.startswith("usage error:")
        assert all(name in captured.err for name in names)
        assert captured.out == ""
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("name", ["dp4", "other"], ids=["a-preset", "unknown"])
    def test_a_model_file_must_be_the_named_model(self, capsys, tmp_path, name):
        # the file's model is mine; a preset name once printed dp4's decomposition with exit 0
        from kstab.models import preset, serialize_model

        path = tmp_path / "mine.model"
        path.write_text(serialize_model(preset("dp4")).replace("model surface dp4", "model surface mine"))
        code = main(["zariski", "--model", name, "--class", "L", "--model-file", str(path), "--json"])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.err.startswith(f"usage error: --model '{name}' must name the model of --model-file, 'mine'")
        assert captured.out == ""
        code, out = run(capsys, "zariski", "--model", "mine", "--class", "L", "--model-file", str(path), "--json")
        assert code == 0
        assert json.loads(out)["model"] == "mine"

    def test_rational_log_discrepancy_still_accepted(self, capsys):
        code, out = run(capsys, "sinv", "--model", "bl_p3_quintic", "--divisor", "Qtilde", "--A", "6/7", "--json")
        assert code == 0
        assert json.loads(out)["A"] == "6/7"


class TestComputationErrors:
    def test_cubic_search_form_is_exit_2(self, capsys):
        code, out = run(capsys, "lattice", "search", "--form", "c^3 - 2", "--op", ">", "--box", "c=0..3", "--json")
        assert code == 2
        assert json.loads(out)["error"] == "DomainError"

    @pytest.mark.parametrize("entry", ["1/0", "x"])
    def test_bad_model_file_number_is_exit_2(self, capsys, tmp_path, entry):
        from kstab.models import preset, serialize_model

        text = serialize_model(preset("dp4")).replace("model surface dp4", "model surface mine")
        path = tmp_path / "mine.model"
        path.write_text(text.replace("\n-3 1 1 1 1 1\n", f"\n-3 {entry} 1 1 1 1\n"))
        code = main(["zariski", "--model", "mine", "--class", "L", "--model-file", str(path), "--json"])
        captured = capsys.readouterr()
        assert code == 2
        error = json.loads(captured.out)
        assert error["error"] == "ModelFileError"
        assert "canonical" in error["message"]
        assert "Traceback" not in captured.err


    def test_a_short_canonical_vector_in_a_model_file_is_exit_2(self, capsys, tmp_path):
        from kstab.models import preset, serialize_model

        text = serialize_model(preset("dp4")).replace("model surface dp4", "model surface mine")
        path = tmp_path / "mine.model"
        path.write_text(text.replace("\n-3 1 1 1 1 1\n", "\n1 2\n"))
        code = main(["zariski", "--model", "mine", "--class", "L", "--model-file", str(path), "--json"])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out) == {"error": "InvalidModel", "message": "class vectors must match the basis size"}
        assert "Traceback" not in captured.err

    def test_a_model_file_that_is_not_utf8_is_exit_2(self, capsys, tmp_path):
        from kstab.models import preset, serialize_model

        text = serialize_model(preset("dp4")).replace("model surface dp4", "model surface mine")
        path = tmp_path / "mine.model"
        path.write_bytes(text.encode("utf-16"))  # a valid model, but starts with the bytes ff fe
        code = main(["zariski", "--model", "mine", "--class", "L", "--model-file", str(path), "--json"])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["error"] == "ModelFileError"
        assert "Traceback" not in captured.err


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        _, out1 = run(capsys, "zariski", "--model", "dp4", "--class", "3 L - e1 - e2", "--json")
        _, out2 = run(capsys, "zariski", "--model", "dp4", "--class", "3 L - e1 - e2", "--json")
        assert out1 == out2

    def test_verify_deterministic(self, capsys):
        code1, out1 = run(capsys, "verify-paper", "--json")
        code2, out2 = run(capsys, "verify-paper", "--json")
        assert out1 == out2 and code1 == code2


@pytest.fixture(scope="module")
def verify_json(request):
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["verify-paper", "--json"])
    return code, json.loads(buf.getvalue())


class TestVerifyPaper:
    def test_single_known_discrepancy(self, verify_json):
        code, report = verify_json
        fails = [r for r in report["rows"] if r["status"] == "FAIL"]
        assert [r["claim"] for r in fails] == ["flag:dp4-line"]
        assert "73/88" in fails[0]["computed"]
        assert fails[0].get("note")
        assert code == 2  # honest nonzero exit while the known mismatch stands

    def test_every_other_row_passes(self, verify_json):
        _, report = verify_json
        assert all(r["status"] == "PASS" for r in report["rows"] if r["claim"] != "flag:dp4-line")

    def test_negative_control_perturbed_preset(self):
        # an E^3 off by one must flip the Qtilde rows to FAIL with a diff, and
        # the quadric flag too: E.E.Qtilde becomes 7, which no image of E on
        # the quadric matches
        from kstab.intersect import ThreefoldModel
        from kstab.models import preset

        good = preset("bl_p3_quintic")
        bad_triple = dict(good.triple)
        bad_triple[(1, 1, 1)] = bad_triple[(1, 1, 1)] + 1
        bad = ThreefoldModel(
            "bl_p3_quintic",
            good.basis,
            bad_triple,
            good.anticanonical,
            curves=good.curves,
            effective_classes=good.effective_classes,
            divisors=good.divisors,
            chambers=good.chambers,
        )
        rows = verify_paper(overrides={"bl_p3_quintic": bad})
        failing = {r.claim for r in rows if not r.ok}
        assert "divisorial:S(Qtilde)" in failing
        assert "divisorial:vol(-K-uQtilde)|[0,1]" in failing
        assert "flag:quadric-diagonal" in failing
        diagonal = next(r for r in rows if r.claim == "flag:quadric-diagonal")
        assert diagonal.computed.startswith("error: InvalidModel:")

    def test_a_quintic_that_fails_to_certify_gives_fail_rows(self):
        from kstab.intersect import ThreefoldModel
        from kstab.models import preset

        good = preset("bl_p3_quintic")
        bad = ThreefoldModel(
            "bl_p3_quintic", good.basis, good.triple, good.anticanonical, curves=good.curves,
            effective_classes={"E": (0, 1)}, divisors=good.divisors, chambers=good.chambers,
        )
        # without Qtilde in the cone, the E and H residuals 2t*Qtilde and
        # (t/2)*Qtilde leave it; the Qtilde table's residuals are 0 and (u - 1)E
        rows = {r.claim: r for r in verify_paper(overrides={"bl_p3_quintic": bad})}
        for claim in ("divisorial:S(E)", "flag:dp4-ruling", "flag:dp4-line"):
            assert rows[claim].computed.startswith("error: CertificateViolation:"), claim
        assert rows["flag:dp4-line"].note
        assert rows["flag:quadric-diagonal"].ok

    def test_each_quintic_table_is_certified_once(self, monkeypatch):
        import kstab.verify

        calls = []
        real = kstab.verify.threefold_volume_certified

        def counting(model, divisor):
            calls.append((model.name, divisor))
            return real(model, divisor)

        monkeypatch.setattr(kstab.verify, "threefold_volume_certified", counting)
        verify_paper()
        assert sorted(d for name, d in calls if name == "bl_p3_quintic") == ["E", "H", "Qtilde"]

    def test_human_readable_table(self, verify_json):
        from kstab.cli import _verify_text

        _, report = verify_json
        out = _verify_text(report)
        assert "[PASS]" in out and "[FAIL]" in out
        assert "rows pass" in out
