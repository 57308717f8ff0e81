"""Command-line argv fuzz from a small grammar, run in-process.

Each subcommand has a grammar: its options, each with valid values,
malformed values and free text, and the options it requires.  A drawn argv
may drop any option (a required one included), and may add ``--json``,
``--approx`` or an unknown option.  Whatever the argv, ``main`` must return
0, 2 or 64, print "usage error:" on every 64, and never let an exception
escape: each command imports its layer on first use, so a missed import
would show up only here, as a NameError on the branch that needs it.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from kstab.cli import main
from kstab.models import preset, serialize_model

TEXT = st.text(alphabet="0123456789abcxyLQSet -+*/^=.,;()_", max_size=12)


def _values(valid, malformed=()):
    return st.one_of(st.sampled_from(list(valid) + list(malformed)), TEXT)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli_fuzz")

    def write(name, text):
        path = d / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    utf16 = d / "utf16.txt"  # starts with the bytes ff fe, which are not UTF-8
    utf16.write_bytes("1 0 0\n".encode("utf-16"))
    return {
        "threefold": write("mine3.model", serialize_model(preset("bl_p3_quintic")).replace(
            "model threefold bl_p3_quintic", "model threefold mine3")),
        "surface": write("mine2.model", serialize_model(preset("dp4")).replace("model surface dp4", "model surface mine2")),
        "shadow": write("dp4.model", serialize_model(preset("dp4"))),
        "garbage": write("garbage.model", "not a model\n"),
        "prism": write("prism.txt", "-1 -1 -1\n1 0 -1\n0 1 -1\n-1 -1 1\n1 0 1\n0 1 1\n"),
        "cube": write("cube.txt", "\n".join(f"{x} {y} {z}" for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)) + "\n"),
        "offset": write("offset.txt", "0 0 0\n1 0 0\n0 1 0\n0 0 1\n"),
        "flat": write("flat.txt", "0 0 0\n1 0 0\n0 1 0\n1 1 0\n"),
        "pairs": write("pairs.txt", "1 0\n0 1\n-1 -1\n"),
        "fractions": write("fractions.txt", "1/2 0 0\n0 1 0\n0 0 1\n-1 -1 -1\n"),
        "words": write("words.txt", "a b c\n"),
        "empty": write("empty.txt", ""),
        "missing": str(d / "missing.txt"),
        "directory": str(d),
        "utf16": str(utf16),
    }


def _grammar(files):
    """Subcommand -> (argv prefix, {option: values}, required options)."""
    model_file = st.sampled_from([files[k] for k in ("threefold", "surface", "shadow", "garbage", "missing", "directory", "utf16")])
    gram = _values(
        ["22 0; 0 -2", "2 0; 0 -2", "2 1; 1 -4", "-2 1; 1 -2", "22 11 6; 11 4 1; 6 1 -2"],
        ["1 0; 0 -1", "0 0; 0 0", "2 1; 0 2", "1 2; 3", "2 1/2; 1/2 2", "", ";", "x"],
    )
    lattice = lambda op, options, required: (["lattice", op], {"--gram": gram, **options}, {"--gram", *required})
    return {
        "sinv": (["sinv"], {
            "--model": _values(["bl_p3_quintic", "sing_line", "sing_line(12,1)", "bl_node_22", "mine3"], ["dp4", "nosuch"]),
            "--divisor": _values(["Qtilde", "E", "H"], ["nosuch"]),
            "--A": _values(["1", "6/7", "0"], ["-1", "x", "1/0", ""]),
            "--model-file": model_file,
        }, {"--model", "--divisor"}),
        "flag-sinv": (["flag-sinv"], {
            "--model": _values(["bl_p3_quintic"], ["dp4", "nosuch"]),
            "--surface": _values(["S", "Qtilde"], ["E"]),
            "--curve": _values(["L - e1 - e2", "L", "f1 + f2"], ["e9", "L -", "2 3 L", "1/0 L", ""]),
        }, {"--model", "--surface", "--curve"}),
        "zariski": (["zariski"], {
            "--model": _values(["dp4", "quadric", "mine2"], ["bl_p3_quintic", "nosuch"]),
            "--class": _values(["9/4 L - e1 - e2 - e3 - e4 - e5", "3 L - e1", "f1 + 2 f2"], ["-L", "e1 - L", "L e1", ""]),
            "--model-file": model_file,
        }, {"--model", "--class"}),
        "lattice disc": lattice("disc", {}, ()),
        "lattice overlattices": lattice("overlattices", {}, ()),
        "lattice primitive": lattice("primitive", {}, ()),
        "lattice saturate": lattice("saturate", {
            "--sub": _values(["1 0 0; 0 1 0", "1 0; 0 1", "0 0 1"], ["1 0", "1 0 0; 2 0 0", "0 0 0", "x", ""]),
        }, ("--sub",)),
        "lattice search": (["lattice", "search"], {
            "--form": _values(["-22 + 28*c - 8*c^2", "a^2 - 2*b^2 - 1", "c"], ["c^3 - 2", "c^", "c/0", "c d e", "", "2**", "c + )", "(c+1)^3200"]),
            "--op": st.sampled_from([">", ">=", "<", "<=", "==", "=", "!"]),
            "--box": _values(["c=-100..100", "c=5..1", "a=1..3,b=-3..-1"], ["c=0..10000000", "c=a..2", "c", "d=1..2"]),
        }, {"--form", "--op", "--box"}),
        "nl classify": (["nl", "classify"], {
            "--h": st.sampled_from(["11", "12", "0", "-1", "22", "x"]),
            "--m": st.sampled_from(["4", "0", "1", "-3", "100", "1.5"]),
        }, {"--h", "--m"}),
        "toric check": (["toric", "check"], {
            "--vertices": st.sampled_from([files[k] for k in (
                "prism", "cube", "offset", "flat", "pairs", "fractions", "words", "empty", "missing", "directory", "utf16")]),
        }, {"--vertices"}),
        "models list": (["models", "list"], {}, set()),
    }


@st.composite
def argvs(draw, grammar, command):
    prefix, options, required = grammar[command]
    argv = list(prefix)
    for option, values in options.items():
        if draw(st.floats(0, 1)) < (0.9 if option in required else 0.5):
            argv += [option, draw(values)]
    for flag in ("--json", "--approx"):
        if draw(st.booleans()):
            argv.append(flag)
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--bogus", "-x", "extra"])))
    return argv


def _check(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 64), (argv, code)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 64:
        assert err.getvalue().startswith("usage error:"), argv


FUZZED = (
    "sinv", "flag-sinv", "zariski", "lattice disc", "lattice overlattices", "lattice primitive",
    "lattice saturate", "lattice search", "nl classify", "toric check", "models list",
)


@pytest.mark.parametrize("command", FUZZED)
def test_argv_fuzz(files, command):
    grammar = _grammar(files)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(argvs(grammar, command))
    def fuzz(argv):
        _check(argv)

    fuzz()


# verify-paper takes no values and runs the whole golden suite, so its flag
# combinations are run once each rather than drawn
@pytest.mark.parametrize("flags", [[], ["--approx"], ["--json"], ["--json", "--approx"], ["--bogus"]])
def test_verify_paper_flags(flags):
    _check(["verify-paper", *flags])
