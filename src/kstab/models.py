"""Model files and the preset registry.

Model files are structured UTF-8 text with a ``kstab-model v1`` header, a
``model <threefold|surface> <name>`` line, and named sections.  A threefold
carries ``basis``, ``triple`` (entries "i j k = p/q"), ``anticanonical``,
``curves``, ``effective``, ``divisors`` and per-divisor ``chambers``
sections; a surface carries ``basis``, ``gram``, ``canonical``,
``negative_curves`` and ``eff_cone``.  Serialization is canonical (fixed
section order, sorted labels, rationals in lowest terms), so parsing a
canonical file and re-serializing reproduces it byte for byte.

Presets are compiled in; user files may add models but never shadow a
preset name, which keeps the golden verification suite honest.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ModelFileError, UnknownLabel
from .intersect import (
    Chamber,
    SurfaceModel,
    ThreefoldModel,
    bl_p3_quintic,
    blowup_node,
    blowup_v4_conic,
    dp4_surface,
    quadric_surface,
    sing_line_model,
)
from .rationals import Q, QVec, format_rational, parse_rational, qvec
from .records import Record

HEADER = "kstab-model v1"

# preset name -> constructor; sing_line also takes arguments, e.g. "sing_line(12,0)"
_PRESETS = {
    "bl_node_22": lambda: blowup_node(22),
    "bl_p3_quintic": bl_p3_quintic,
    "bl_v4_conic": blowup_v4_conic,
    "dp4": dp4_surface,
    "quadric": quadric_surface,
    "sing_line": lambda: sing_line_model(12, 0),
}
PRESET_NAMES = tuple(_PRESETS)

# supplied log discrepancies of the preset divisors (never computed)
PRESET_LOG_DISCREPANCY: dict[tuple[str, str], Fraction] = {
    ("bl_p3_quintic", "E"): Q(1),
    ("bl_p3_quintic", "Qtilde"): Q(1),
    ("bl_node_22", "E"): Q(2),
    ("bl_v4_conic", "E"): Q(1),
    ("sing_line", "E"): Q(1),
}


class FlagSetup(Record):
    """A surface preset that is the divisor S of a threefold preset, for the flag invariant.

    ``images[i]`` is the surface class of threefold basis class i restricted to S.
    """

    surface: str
    divisor: str
    images: tuple[QVec, ...]
    note: str


# (model, surface label) -> flag setup
FLAG_SETUPS: dict[tuple[str, str], FlagSetup] = {
    ("bl_p3_quintic", "S"): FlagSetup(
        "dp4", "H", (qvec((1, 0, 0, 0, 0, 0)), qvec((0, 1, 1, 1, 1, 1))),
        "restricted positive parts of -K - tS, S a hyperplane through the flag line",
    ),
    ("bl_p3_quintic", "Qtilde"): FlagSetup(
        "quadric", "Qtilde", (qvec((1, 1)), qvec((1, 4))),
        "restricted positive parts of -K - uQtilde on the quadric",
    ),
}

_SING_LINE_RE = re.compile(r"^sing_line\((\d+)\s*,\s*(\d+)\)$")


def preset(name: str) -> ThreefoldModel | SurfaceModel:
    """Look up a preset; sing_line takes arguments, e.g. "sing_line(12,0)"."""
    match = _SING_LINE_RE.match(name.replace(" ", ""))
    if match:
        return sing_line_model(int(match.group(1)), int(match.group(2)))
    if name not in _PRESETS:
        raise UnknownLabel(f"unknown model {name!r}; presets: {', '.join(PRESET_NAMES)}")
    return _PRESETS[name]()


def log_discrepancy_default(model_name: str, divisor: str) -> Fraction | None:
    base = model_name.split("(")[0]
    return PRESET_LOG_DISCREPANCY.get((base, divisor))


# -- class expressions ---------------------------------------------------------


def parse_class_expr(text: str, basis: tuple[str, ...]):
    """Linear combination like "9/4 L - e1 - e2" as an exact class vector.

    Implicit multiplication between a rational coefficient and a label is
    allowed; bare labels have coefficient one.  Consecutive signs compose
    ("L - - e1" is L + e1), and every term after the first needs a sign.
    "0" is the zero class, as ``format_class`` writes it.
    """
    if text.strip() == "0":
        return tuple(Q(0) for _ in basis)
    tokens = re.findall(r"\d+/\d+|\d+|[A-Za-z_]\w*|[+\-*]", text)
    if "".join(tokens).replace("*", "") != text.replace(" ", "").replace("*", ""):
        raise ModelFileError(f"cannot tokenize class expression {text!r}")
    vec = [Q(0)] * len(basis)
    sign = Q(1)
    coeff: Fraction | None = None
    signed = False  # a sign was read and its term has not come yet
    after_term = False  # the last token completed a term
    for tok in tokens:
        if tok in ("+", "-"):
            if coeff is not None:
                raise ModelFileError(f"dangling coefficient in {text!r}")
            if tok == "-":
                sign = -sign
            signed, after_term = True, False
        elif after_term:
            raise ModelFileError(f"missing + or - before {tok!r} in {text!r}")
        elif tok == "*":
            pass
        elif re.fullmatch(r"\d+/\d+|\d+", tok):
            if coeff is not None:
                raise ModelFileError(f"two coefficients in a row in {text!r}")
            try:
                coeff = parse_rational(tok)
            except ZeroDivisionError:
                raise ModelFileError(f"zero denominator in {tok!r} in {text!r}") from None
            except ValueError:  # more digits than int() converts
                raise ModelFileError(f"a coefficient of {len(tok)} characters is too long") from None
        else:
            if tok not in basis:
                raise ModelFileError(f"unknown class {tok!r}; basis is {basis}")
            c = sign * (coeff if coeff is not None else Q(1))
            vec[basis.index(tok)] += c
            sign, coeff = Q(1), None
            signed, after_term = False, True
    if coeff is not None:
        raise ModelFileError(f"trailing coefficient in {text!r}")
    if signed:
        raise ModelFileError(f"trailing sign in {text!r}")
    return tuple(vec)


def format_class(vec, basis: tuple[str, ...]) -> str:
    parts = []
    for c, b in zip(vec, basis):
        if c == 0:
            continue
        mag = abs(c)
        body = b if mag == 1 else f"{format_rational(mag)} {b}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) if parts else "0"


# -- serialization -------------------------------------------------------------


def _vec_line(vec) -> str:
    return " ".join(format_rational(x) for x in vec)


def serialize_model(model: ThreefoldModel | SurfaceModel) -> str:
    lines = [HEADER]
    if isinstance(model, ThreefoldModel):
        lines.append(f"model threefold {model.name}")
        lines += ["", "basis", " ".join(model.basis)]
        lines += ["", "triple"]
        for idx in sorted(model.triple):
            lines.append(f"{idx[0]} {idx[1]} {idx[2]} = {format_rational(model.triple[idx])}")
        lines += ["", "anticanonical", _vec_line(model.anticanonical)]
        for section, mapping in (
            ("curves", model.curves),
            ("effective", model.effective_classes),
            ("divisors", model.divisors),
        ):
            if mapping:
                lines += ["", section]
                for label in sorted(mapping):
                    lines.append(f"{label}: {_vec_line(mapping[label])}")
        for divisor in sorted(model.chambers):
            lines += ["", f"chambers {divisor}"]
            for ch in model.chambers[divisor]:
                lines.append(
                    f"{format_rational(ch.lo)} {format_rational(ch.hi)} : "
                    f"{_vec_line(ch.p0)} ; {_vec_line(ch.p1)}"
                )
    else:
        lines.append(f"model surface {model.name}")
        lines += ["", "basis", " ".join(model.basis)]
        lines += ["", "gram"]
        for row in model.gram:
            lines.append(_vec_line(row))
        if model.canonical is not None:
            lines += ["", "canonical", _vec_line(model.canonical)]
        if model.negative_curves:
            lines += ["", "negative_curves"]
            for label in sorted(model.negative_curves):
                lines.append(f"{label}: {_vec_line(model.negative_curves[label])}")
        # an empty cone is written too when there are curves: a missing
        # section means "the negative curves generate the cone"
        if model.eff_generators or model.negative_curves:
            lines += ["", "eff_cone"]
            for label in sorted(model.eff_generators):
                lines.append(f"{label}: {_vec_line(model.eff_generators[label])}")
    return "\n".join(lines) + "\n"


def parse_model(text: str) -> ThreefoldModel | SurfaceModel:
    lines = [ln.rstrip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.lstrip().startswith("#")]
    if not lines or lines[0] != HEADER:
        raise ModelFileError(f"missing header {HEADER!r}")
    m = re.fullmatch(r"model (threefold|surface) (\S+)", lines[1]) if len(lines) > 1 else None
    if not m:
        raise ModelFileError("missing 'model <threefold|surface> <name>' line")
    kind, name = m.group(1), m.group(2)
    sections: dict[str, list[str]] = {}
    current: str | None = None
    known = {"basis", "triple", "anticanonical", "gram", "canonical",
             "curves", "effective", "divisors", "negative_curves", "eff_cone"}
    for ln in lines[2:]:
        head = ln.strip()
        if head in known or head.startswith("chambers "):
            current = head
            sections[current] = []
        elif current is None:
            raise ModelFileError(f"content before any section: {ln!r}")
        else:
            sections[current].append(ln.strip())

    def num(text: str, section: str) -> Fraction:
        try:
            return parse_rational(text)
        except (ValueError, ZeroDivisionError):
            raise ModelFileError(f"bad number {text!r} in section {section!r}") from None

    def labelled(section: str) -> dict[str, tuple]:
        out = {}
        for ln in sections.get(section, ()):
            label, _, rest = ln.partition(":")
            if not rest:
                raise ModelFileError(f"bad '{section}' line: {ln!r}")
            out[label.strip()] = qvec(num(x, section) for x in rest.split())
        return out

    try:
        basis = tuple(sections["basis"][0].split())
    except (KeyError, IndexError):
        raise ModelFileError("missing basis section") from None
    if kind == "threefold":
        triple = {}
        for ln in sections.get("triple", ()):
            m2 = re.fullmatch(r"(\d+) (\d+) (\d+) = (\S+)", ln)
            if not m2:
                raise ModelFileError(f"bad triple line: {ln!r}")
            triple[(int(m2.group(1)), int(m2.group(2)), int(m2.group(3)))] = num(m2.group(4), "triple")
        try:
            anti = qvec(num(x, "anticanonical") for x in sections["anticanonical"][0].split())
        except (KeyError, IndexError):
            raise ModelFileError("missing anticanonical section") from None
        chambers = {}
        for section in sections:
            if section.startswith("chambers "):
                divisor = section.split(None, 1)[1]
                chs = []
                for ln in sections[section]:
                    m3 = re.fullmatch(r"(\S+) (\S+) : (.*) ; (.*)", ln)
                    if not m3:
                        raise ModelFileError(f"bad chamber line: {ln!r}")
                    chs.append(
                        Chamber(
                            num(m3.group(1), section),
                            num(m3.group(2), section),
                            qvec(num(x, section) for x in m3.group(3).split()),
                            qvec(num(x, section) for x in m3.group(4).split()),
                        )
                    )
                chambers[divisor] = tuple(chs)
        return ThreefoldModel(
            name,
            basis,
            triple,
            anti,
            curves=labelled("curves"),
            effective_classes=labelled("effective"),
            divisors=labelled("divisors"),
            chambers=chambers,
        )
    gram = [
        [num(x, "gram") for x in ln.split()] for ln in sections.get("gram", ())
    ]
    if not gram:
        raise ModelFileError("missing gram section")
    canonical = None
    if "canonical" in sections:
        canonical = qvec(num(x, "canonical") for x in sections["canonical"][0].split())
    return SurfaceModel(
        name,
        basis,
        gram,
        canonical=canonical,
        negative_curves=labelled("negative_curves"),
        eff_generators=labelled("eff_cone") if "eff_cone" in sections else None,
    )


def load_model(path: str) -> ThreefoldModel | SurfaceModel:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:
            raise ModelFileError(f"model file {path!r} is not UTF-8 text") from None
    model = parse_model(text)
    base = model.name.split("(")[0]
    if base in PRESET_NAMES:
        raise ModelFileError(f"user models may not shadow the preset name {model.name!r}")
    return model
