"""Command line front end.

Exact rationals are printed as "p/q" strings; the optional --approx flag
adds a decimal column but never replaces the exact value.  Reports are
plain aligned text by default and canonical JSON with --json; identical
inputs produce byte-identical reports.  Exit codes: 0 success, 2 expected
computation errors (bad cone data, failed certificates, failed golden rows),
64 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import KstabError
from .rationals import format_rational, parse_rational

USAGE_EXIT = 64
ERROR_EXIT = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(value):
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    return value


def _emit(report: dict, as_json: bool, approx: bool = False) -> str:
    report = _fmt(report)
    if as_json:
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    lines = []

    def walk(prefix, section):
        for k, value in section.items():
            if isinstance(value, dict):
                walk(f"{prefix}{k}.", value)
            else:
                lines.append(_line(prefix + k, value, approx))

    walk("", report)
    width = max((len(l[0]) for l in lines), default=0)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in lines) + "\n"


def _line(key, value, approx):
    text = json.dumps(value) if isinstance(value, (list, dict)) else str(value)
    if approx and isinstance(value, str) and "/" in value:
        try:
            text += f"   (~{float(Fraction(value)):.6g})"
        except ValueError:
            pass
    return (key, text)


def _get_model(name: str, model_file: str | None):
    from .models import PRESET_NAMES, load_model, preset

    if model_file:
        model = load_model(model_file)
        if model.name != name:
            raise _UsageError(f"--model {name!r} must name the model of --model-file, {model.name!r}")
        return model
    try:
        return preset(name)
    except KeyError:
        raise _UsageError(f"unknown --model {name!r}; presets: {', '.join(PRESET_NAMES)}, sing_line(g,k)") from None


def _int_rows(text: str, option: str) -> list[list[int]]:
    """Rows of integers separated by ";", as given to a lattice option."""
    try:
        return [[int(x) for x in row.split()] for row in text.split(";") if row.strip()]
    except ValueError:
        raise _UsageError(f"{option} takes rows of integers separated by ';', got {text!r}") from None


def _parse_gram(text: str):
    from .lattice import GramLattice

    try:
        return GramLattice(_int_rows(text, "--gram"))
    except ValueError as exc:
        raise _UsageError(f"--gram {text!r}: {exc}") from None


def _parse_box(text: str, variables: tuple[str, ...]) -> dict[str, tuple[int, int]]:
    """``name=lo..hi`` parts separated by commas, one for each variable of the form."""
    box = {}
    for part in text.split(","):
        name, eq, rng = part.partition("=")
        lo, dots, hi = rng.partition("..")
        if not (eq and dots and name.strip()):
            raise _UsageError(f"--box part {part!r} is not of the form name=lo..hi")
        try:
            box[name.strip()] = (int(lo), int(hi))
        except ValueError:
            raise _UsageError(f"--box part {part!r} needs integer bounds") from None
    missing = [v for v in variables if v not in box]
    if missing:
        raise _UsageError(f"--box {text!r} has no range for {', '.join(missing)}")
    return box


# -- subcommand implementations ----------------------------------------------


def _cmd_sinv(args) -> dict:
    from .intersect import ThreefoldModel, anticanonical_volume
    from .invariants import beta, s_invariant
    from .models import log_discrepancy_default
    from .zariski import threefold_volume_certified

    try:
        a_input = parse_rational(args.A) if args.A else None
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"--A takes a rational p/q, got {args.A!r}") from None
    model = _get_model(args.model, args.model_file)
    if not isinstance(model, ThreefoldModel):
        raise KstabError(f"{args.model} is not a threefold model")
    if args.divisor not in model.divisors and args.divisor not in model.basis:
        known = ", ".join(sorted(set(model.divisors) | set(model.basis)))
        raise _UsageError(f"unknown --divisor {args.divisor!r} on {model.name}; known: {known}")
    vf = threefold_volume_certified(model, args.divisor)
    v = anticanonical_volume(model)
    s_value = s_invariant(vf, v)
    a_value = a_input if a_input is not None else log_discrepancy_default(model.name, args.divisor)
    report = {
        "command": "sinv",
        "model": model.name,
        "divisor": args.divisor,
        "volume": v,
        "S": s_value,
        "chambers": [
            {
                "interval": [piece.lo, piece.hi],
                "piece": str(piece.poly),
            }
            for piece in vf.pw.pieces
        ],
        "certificate": vf.certificate,
        "claims": [f"divisorial:S({args.divisor})@{model.name}"],
    }
    if a_value is not None:
        verdict = beta(args.divisor, a_value, s_value)
        report["A"] = a_value
        report["beta"] = verdict.beta
        report["verdict"] = verdict.classification + " (relative to tested divisors)"
    return report


def _cmd_flag_sinv(args) -> dict:
    from .intersect import anticanonical_volume
    from .invariants import refined_s_flag, restricted_family
    from .models import FLAG_SETUPS, parse_class_expr, preset

    setup = FLAG_SETUPS.get((args.model, args.surface))
    if setup is None:
        known = ", ".join(f"{m}/{s}" for (m, s) in sorted(FLAG_SETUPS))
        raise KstabError(f"no flag setup for {args.model}/{args.surface}; known: {known}")
    model, surface = preset(args.model), preset(setup.surface)
    z = parse_class_expr(args.curve, surface.basis)
    report_obj = refined_s_flag(
        surface,
        restricted_family(model, setup.divisor, surface, setup.images),
        z,
        anticanonical_volume(model),
    )
    return {
        "command": "flag-sinv",
        "model": args.model,
        "surface": args.surface,
        "curve": args.curve,
        "value": report_obj.value,
        "prefactor": report_obj.prefactor,
        "correction": "0 (flag curve avoids every negative part)",
        "cells": [
            {"t": tr, "s": sr, "volume": vol} for (tr, sr, vol) in report_obj.cells
        ],
        "note": setup.note,
        "claims": [f"flag:{args.model}/{args.surface}/{args.curve}"],
    }


def _cmd_zariski(args) -> dict:
    from .intersect import SurfaceModel
    from .models import format_class, parse_class_expr
    from .zariski import zariski_decompose

    model = _get_model(args.model, args.model_file)
    if not isinstance(model, SurfaceModel):
        raise KstabError(f"{args.model} is not a surface model")
    d = parse_class_expr(getattr(args, "class"), model.basis)
    res = zariski_decompose(model, d)
    return {
        "command": "zariski",
        "model": model.name,
        "class": format_class(d, model.basis),
        "positive": format_class(res.positive, model.basis),
        "negative": {label: coeff for label, coeff in res.negative},
        "support": list(res.support),
        "support_gram": [list(row) for row in res.support_gram],
        "volume": model.square(res.positive),
        "claims": [f"zariski:{model.name}"],
    }


def _cmd_lattice(args) -> dict:
    from .lattice import (
        determinant,
        discriminant_group,
        even_overlattices,
        is_primitivity_forced,
        is_saturated,
        isotropic_elements,
        signature,
    )

    gram = _parse_gram(args.gram)
    if args.lattice_op == "disc":
        group = discriminant_group(gram)
        return {
            "command": "lattice disc",
            "gram": [list(r) for r in gram.gram],
            "determinant": determinant(gram),
            "signature": list(signature(gram)),
            "invariant_factors": list(group.factors),
            "generators": [[x for x in g] for g in group.generators],
            "claims": ["lattice:discriminant-group"],
        }
    if args.lattice_op == "overlattices":
        overs = even_overlattices(gram)
        return {
            "command": "lattice overlattices",
            "gram": [list(r) for r in gram.gram],
            "count": len(overs),
            "overlattices": [
                {
                    "gram": [list(r) for r in o.gram.gram],
                    "index": o.index,
                    "determinant": determinant(o.gram),
                    "basis": [[x for x in row] for row in o.basis],
                }
                for o in overs
            ],
            "claims": ["lattice:even-overlattices"],
        }
    if args.lattice_op == "primitive":
        iso = isotropic_elements(gram)
        nonzero = [list(x) for x in iso if any(c != 0 for c in x)]
        return {
            "command": "lattice primitive",
            "gram": [list(r) for r in gram.gram],
            "forced": is_primitivity_forced(gram),
            "isotropic_nonzero": nonzero,
            "claims": ["lattice:primitivity"],
        }
    sub = _int_rows(args.sub, "--sub")
    try:
        saturated = is_saturated(gram, sub)
    except ValueError as exc:
        raise _UsageError(f"--sub {args.sub!r}: {exc}") from None
    return {
        "command": "lattice saturate",
        "gram": [list(r) for r in gram.gram],
        "sub_basis": sub,
        "saturated": saturated,
        "claims": ["lattice:saturation"],
    }


def _cmd_lattice_search(args) -> dict:
    from .lattice import integer_search_quadratic
    from .poly import parse_polynomial

    try:
        form = parse_polynomial(args.form)
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"--form {args.form!r}: {exc}") from None
    box = _parse_box(args.box, form.vars)
    hits = integer_search_quadratic(form, args.op, box)
    return {
        "command": "lattice search",
        "form": str(form),
        "comparison": args.op,
        "box": {k: list(v) for k, v in box.items()},
        "solutions": [list(h) for h in hits],
        "scope": "verified within box; enumeration never proves global emptiness",
        "claims": ["lattice:integer-search"],
    }


def _cmd_nl_classify(args) -> dict:
    from .k3cat import is_bn_excluding, nl_gram, type_match
    from .lattice import determinant, signature

    gram = nl_gram(22, args.h, args.m)
    return {
        "command": "nl classify",
        "h": args.h,
        "m": args.m,
        "gram": [list(r) for r in gram.gram],
        "determinant": determinant(gram),
        "signature": list(signature(gram)),
        "bn_excluding": is_bn_excluding(args.h, args.m),
        "type": type_match(args.h, args.m) or "none",
        "claims": [f"catalog:D22_{args.h}_{args.m}"],
    }


def _cmd_toric_check(args) -> dict:
    from .toric import LatticePolytope, anticanonical_degree, barycenter, is_reflexive, polar_dual, toric_kps_check
    from .toric import volume as polytope_volume

    try:
        with open(args.vertices, encoding="utf-8") as fh:
            lines = [line for line in fh if line.strip() and not line.lstrip().startswith("#")]
        points = [tuple(int(x) for x in line.split()) for line in lines]
    except ValueError:  # not UTF-8 text (UnicodeDecodeError), or not integers
        points = [()]
    if any(len(point) != 3 for point in points):
        raise _UsageError(f"--vertices {args.vertices!r} must hold one integer 3-vector per line")
    p = LatticePolytope(points)
    reflexive = is_reflexive(p)
    report = {
        "command": "toric check",
        "vertices": [list(v) for v in p.vertices],
        "reflexive": reflexive,
        "volume": polytope_volume(p),
        "claims": ["toric:barycenter-criterion"],
    }
    if reflexive:
        dual = polar_dual(p)
        kps, bary = toric_kps_check(p)
        report.update(
            {
                "dual_volume": polytope_volume(dual),
                "degree": anticanonical_degree(p),
                "barycenter": list(barycenter(dual)),
                "kps": kps,
                "criterion": "K-polystable by the vanishing-barycenter (Futaki) criterion"
                if kps
                else "criterion fails: dual barycenter is nonzero",
            }
        )
    return report


def _cmd_models_list(_args) -> dict:
    from .models import PRESET_NAMES

    return {"command": "models list", "presets": list(PRESET_NAMES)}


def _cmd_verify(_args) -> dict:
    from .verify import rows_as_dicts, verify_paper

    rows = verify_paper()
    return {
        "command": "verify-paper",
        "rows": rows_as_dicts(rows),
        "total": len(rows),
        "failed": sum(not r.ok for r in rows),
    }


def _verify_text(report: dict) -> str:
    rows = report["rows"]
    claim_w = max(len(r["claim"]) for r in rows)
    exp_w = max(len(r["expected"]) for r in rows)
    lines = []
    for r in rows:
        line = f"[{r['status']}] {r['claim'].ljust(claim_w)}  expected {r['expected'].ljust(exp_w)}  computed {r['computed']}"
        if r.get("note"):
            line += f"\n       note: {r['note']}"
        lines.append(line)
    lines.append(f"{report['total'] - report['failed']}/{report['total']} rows pass")
    return "\n".join(lines) + "\n"


# -- argument wiring -----------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="kstab", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    def leaf(p, run):
        """Close a leaf subcommand: its ``run`` and, after its own options, --json and --approx."""
        p.set_defaults(run=run)
        p.add_argument("--json", action="store_true", help="canonical JSON output")
        p.add_argument("--approx", action="store_true", help="add decimal approximations")

    p = sub.add_parser("sinv", help="expected vanishing order of a divisor family")
    p.add_argument("--model", required=True)
    p.add_argument("--divisor", required=True)
    p.add_argument("--A", help="log discrepancy p/q (defaults to the preset input)")
    p.add_argument("--model-file")
    leaf(p, _cmd_sinv)

    p = sub.add_parser("flag-sinv", help="refined flag invariant on a preset surface")
    p.add_argument("--model", required=True)
    p.add_argument("--surface", required=True)
    p.add_argument("--curve", required=True, help="curve class, e.g. 'L - e1 - e2'")
    leaf(p, _cmd_flag_sinv)

    p = sub.add_parser("zariski", help="Zariski decomposition of a surface class")
    p.add_argument("--model", required=True)
    p.add_argument("--class", required=True)
    p.add_argument("--model-file")
    leaf(p, _cmd_zariski)

    lsub = sub.add_parser("lattice", help="lattice computations").add_subparsers(dest="lattice_op", required=True)
    for op in ("disc", "overlattices", "primitive"):
        q = lsub.add_parser(op)
        q.add_argument("--gram", required=True, help="rows separated by ';', e.g. '22 0; 0 -2'")
        leaf(q, _cmd_lattice)
    q = lsub.add_parser("saturate")
    q.add_argument("--gram", required=True)
    q.add_argument("--sub", required=True, help="sub-basis rows separated by ';'")
    leaf(q, _cmd_lattice)
    q = lsub.add_parser("search")
    q.add_argument("--form", required=True, help="polynomial, e.g. '-22 + 28*c - 8*c^2'")
    q.add_argument("--op", required=True, choices=[">", ">=", "<", "<=", "=="])
    q.add_argument("--box", required=True, help="e.g. 'a=1..100,b=-100..-1'")
    leaf(q, _cmd_lattice_search)

    nsub = sub.add_parser("nl", help="special-divisor catalog").add_subparsers(dest="nl_op", required=True)
    q = nsub.add_parser("classify")
    q.add_argument("--h", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    leaf(q, _cmd_nl_classify)

    tsub = sub.add_parser("toric", help="toric polytope checks").add_subparsers(dest="toric_op", required=True)
    q = tsub.add_parser("check")
    q.add_argument("--vertices", required=True, help="file with one integer 3-vector per line")
    leaf(q, _cmd_toric_check)

    msub = sub.add_parser("models", help="model registry").add_subparsers(dest="models_op", required=True)
    leaf(msub.add_parser("list"), _cmd_models_list)

    leaf(sub.add_parser("verify-paper", help="run the golden verification suite"), _cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
        report = args.run(args)
        if args.run is _cmd_verify and not args.json:
            sys.stdout.write(_verify_text(report))
        else:
            sys.stdout.write(_emit(report, args.json, args.approx))
    except KstabError as exc:
        sys.stdout.write(_emit({"error": type(exc).__name__, "message": str(exc)}, as_json=True))
        return ERROR_EXIT
    except (_UsageError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    # verify-paper is the one report that counts failed rows
    return ERROR_EXIT if report.get("failed") else 0


if __name__ == "__main__":
    sys.exit(main())
