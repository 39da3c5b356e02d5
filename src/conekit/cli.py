"""conekit command line: surface tables, contraction queries, cohomology
reports, threefold ledgers, schedules, scenario verifiers, and the sweep.

Every command builds one payload, the dict printed by ``--format json``;
``--format md`` (and ``csv`` where offered) renders that same payload as
tables, so the formats never disagree on a number.

Exit codes: 0 when every verdict/check is as expected, 1 when some check
fails or a verdict is not the expected one, 2 on usage errors (any
ValueError), a malformed rational (a zero denominator, exponent notation or
more characters than Python's int-to-str digit limit included), a d
outside ``km_surface.MIN_D`` to ``MAX_D`` (3 to 200), a ``sweep --out``
file and a stdout that cannot be written among them, and 3 when an
internal check fails (``qlattice.InvariantError``: two independent routes to
one number disagree), with nothing printed on stdout.  All output is
deterministic.  Every JSON text comes from one writer, ``_json``, which
prints what ``json.dumps(indent=2)`` would, except that a Fraction is a
p/q string and every other type outside JSON's, a float included, is
refused with a TypeError rather than printed.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _escape

from .cohom import FamilyDescriptor, cohomology_of_nA, family_divisor, target_context
from .cone3fold import (
    ConeModel,
    adjunction_consistency,
    cone_curve_numbers,
    kvv_schedule,
    picard_chain,
    plt_coefficient_b,
    resolution_ledger,
    section_numbers,
)
from .km_surface import build_km_surface, km_sanity
from .qlattice import InvariantError, NamedDivisor
from .scenarios import sweep_kvv, verify_bad_fano, verify_plt_nonnormal

_TERM = re.compile(r"^([+-]?)(?:(\d+(?:/\d+)?)\*)?([A-Za-z]\w*)$")


def _parse_rat(text: str) -> Fraction:
    """A rational from the command line; a zero denominator, exponent
    notation (whose power of ten ``Fraction`` would build in full) and a
    literal longer than Python's int-to-str digit limit are usage errors
    (ValueError), like any other malformed rational."""
    if "e" in text.lower():
        raise ValueError(f"exponent notation in rational: {text!r}")
    limit = sys.get_int_max_str_digits()
    if limit and len(text) > limit:
        raise ValueError(
            f"rational literal has {len(text)} characters, above the limit of {limit}"
        )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational: {text!r}") from None


def parse_divisor(text: str) -> NamedDivisor:
    """Parse 'E_1+E_2-E_4' or '1/2*l_3-Gamma'; a '^T' suffix on names is ignored."""
    cleaned = text.replace(" ", "").replace("^T", "")
    if not cleaned or cleaned == "0":
        return NamedDivisor.zero()
    pieces = re.findall(r"[+-]?[^+-]+", cleaned)
    if "".join(pieces) != cleaned:
        raise ValueError(f"cannot parse divisor: {text!r}")
    terms = []
    for piece in pieces:
        m = _TERM.match(piece)
        if not m:
            raise ValueError(f"cannot parse divisor term: {piece!r}")
        sign, coeff, name = m.groups()
        value = _parse_rat(coeff) if coeff else Fraction(1)
        if sign == "-":
            value = -value
        terms.append((name, value))
    return NamedDivisor.of(terms)


def _cell(value) -> str:
    """A table cell: bools lower-case, lists joined with ", ", the rest str
    (``p/q`` for a Fraction)."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, list):
        return ", ".join(map(str, value))
    return str(value)


def _table(records, columns) -> str:
    """Markdown table with one row per record.

    ``columns`` maps each header to the record key its cells are read from;
    a plain sequence of keys uses each key as its own header.
    """
    keys = list(columns.values()) if isinstance(columns, dict) else list(columns)
    out = ["| " + " | ".join(columns) + " |"]
    out.append("|" + "|".join(" --- " for _ in keys) + "|")
    for rec in records:
        out.append("| " + " | ".join(_cell(rec[k]) for k in keys) + " |")
    return "\n".join(out) + "\n"


def _csv(records, keys) -> str:
    """Comma-separated rows of the records' cells under a header of keys."""
    lines = [",".join(keys)]
    lines.extend(",".join(_cell(rec[k]) for k in keys) for rec in records)
    return "\n".join(lines) + "\n"


def _rat_json(value) -> str:
    """The writer's last case: a Fraction prints as ``p/q`` (plain ``p`` when
    q == 1); any other object outside JSON's types is an error, never its
    repr."""
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable: {value!r}")


def _json(value, newline: str = "\n") -> str:
    """The one JSON writer: the text ``json.dumps(value, indent=2)`` prints,
    built by one recursion on ``type(value)`` instead of CPython's
    pure-Python indenting encoder.  Strings and keys go through json's own C
    escaper, which raises TypeError on anything but a str (so a list of
    strings is escaped in one join, and any other list item by item); ints
    go through ``int.__repr__``, so the int-to-str digit limit still raises
    ValueError; every other type goes through ``_rat_json``: a Fraction
    prints as ``p/q``, and a float, tuple, set or any other object is a
    TypeError, as is a dict key that is not a str."""
    kind = type(value)
    if kind is str:
        return _escape(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        body = ("," + inner).join(
            [f"{_escape(key)}: {_json(item, inner)}" for key, item in value.items()]
        )
        return "{" + inner + body + newline + "}"
    if kind is list:
        if not value:
            return "[]"
        inner = newline + "  "
        try:
            body = ("," + inner).join(map(_escape, value))
        except TypeError:
            body = ("," + inner).join([_json(item, inner) for item in value])
        return "[" + inner + body + newline + "]"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    return _escape(_rat_json(value))


def _write(args, payload: dict, **views) -> None:
    """Print the command's payload: as JSON for ``--format json``, otherwise
    through ``views[args.format]``, a function of the payload.  ``--out``
    (sweep only) sends the text to a file instead of stdout; a file that
    cannot be opened or written, or a stdout that cannot be written or
    flushed, is a usage error (ValueError)."""
    if args.format == "json":
        text = _json(payload) + "\n"
    else:
        text = views[args.format](payload)
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.out}: {exc.strerror}") from None
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            raise ValueError(f"cannot write stdout: {exc.strerror}") from None


# --- km-surface -------------------------------------------------------------


def cmd_km_surface(args) -> int:
    surface = build_km_surface(args.d)
    report = km_sanity(surface) if args.check else None
    payload = {"command": "km-surface", "d": args.d, "surface": surface.to_json_dict()}
    if report is not None:
        payload["sanity"] = report

    def md(p: dict) -> str:
        curves = [
            {"curve": name, "class": f"({_cell(cls)})",
             "square": surface.pairing(name, name)}
            for name, cls in p["surface"]["curves"].items()
        ]
        out = f"# surface d={p['d']} (rank {p['surface']['rank']})\n" + _table(
            curves, {"curve": "curve", "class": "class", "self-intersection": "square"}
        )
        if "sanity" in p:
            out += "\n## sanity\n" + _table(
                p["sanity"]["items"], {"check": "name", "pass": "pass", "detail": "detail"}
            )
        return out

    _write(args, payload, md=md)
    return 0 if report is None or report["all_pass"] else 1


# --- contract ---------------------------------------------------------------


def cmd_contract(args) -> int:
    psi = target_context(args.d)
    results: dict = {}
    if args.pullback is not None:
        results["pullback"] = psi.pullback(parse_divisor(args.pullback)).terms
    if args.pushforward is not None:
        results["pushforward"] = psi.pushforward(parse_divisor(args.pushforward)).terms
    if args.discrepancies:
        results["discrepancies"] = psi.relative_canonical()
    if args.classify:
        boundary = parse_divisor(args.boundary) if args.boundary else None
        results["classification"] = psi.classify_singularities(boundary)
    if args.target_intersect is not None:
        d1, d2 = (parse_divisor(t) for t in args.target_intersect)
        results["target_intersect"] = psi.target_intersect(d1, d2)
    if args.ample is not None:
        results["ample"] = psi.is_ample_rho1(parse_divisor(args.ample))
    if args.picard_rank:
        results["picard_rank_after"] = psi.picard_rank_after()
    if not results:
        results["discrepancies"] = psi.relative_canonical()
    _write(
        args,
        {"command": "contract", "d": args.d, "results": results},
        md=lambda p: f"# contraction on d={p['d']}\n```json\n"
        + _json(p["results"]) + "\n```\n",
    )
    return 0


# --- cohom ------------------------------------------------------------------


def _parse_subtract(text: str | None) -> int | None:
    if text is None:
        return None
    m = re.match(r"^E_(\d+)(\^T)?$", text.replace(" ", ""))
    if not m:
        raise ValueError(f"--subtract expects a curve like E_5, got {text!r}")
    return int(m.group(1))


_COHOM_CSV = ("d", "q1", "q2", "n", "subtract", "h0", "h1", "h2", "chi")


def cmd_cohom(args) -> int:
    fam = FamilyDescriptor(args.d, args.q1, args.q2)
    subtract = _parse_subtract(args.subtract)
    report = cohomology_of_nA(fam, args.n, subtract=subtract)
    params = {
        "d": args.d,
        "q1": args.q1,
        "q2": args.q2,
        "n": args.n,
        "subtract": subtract,
    }

    def csv(p: dict) -> str:
        row = {**p["params"], **p["report"]}
        row["subtract"] = "" if subtract is None else f"E_{subtract}"
        return _csv([row], _COHOM_CSV)

    def md(p: dict) -> str:
        title = " ".join(f"{k}={p['params'][k]}" for k in ("d", "q1", "q2", "n"))
        return (
            f"# cohomology {title}\n"
            + _table([p["report"]], ("h0", "h1", "h2", "chi"))
            + "\ncertificates: " + "; ".join(p["report"]["certificates"]) + "\n"
        )

    _write(
        args,
        {"command": "cohom", "params": params, "report": report.to_json_dict()},
        csv=csv,
        md=md,
    )
    return 0


# --- cone -------------------------------------------------------------------


def cmd_cone(args) -> int:
    psi = target_context(args.d)
    model = ConeModel.build(psi, family_divisor(FamilyDescriptor(args.d, args.q, 1)))
    ledger = args.ledger
    failed = False
    # Each ledger supplies its data and the (records, columns) of its tables;
    # the records are the data's own lists, read only by the Markdown view.
    if ledger == "curve":
        crepant = model.crepant_coefficients
        data = {
            "curves": [cone_curve_numbers(model, name) for name in model.psi.contracted],
            "crepant_coefficients": crepant,
        }
        tables = [(
            ({**c, "crepant": crepant[c["curve"]]} for c in data["curves"]),
            {"curve": "curve", "m": "m", "square": "square",
             "crepant coeff": "crepant", "K. section curve": "k_dot_section_curve"},
        )]
    elif ledger == "sections":
        data = {
            "sections": [section_numbers(model, i, i) for i in range(1, model.d + 1)],
            "plt_coefficients": [
                plt_coefficient_b(model, i)
                for i in range(1, model.d + 1)
                if model.polarization_dot_e(i) != 0
            ],
        }
        tables = [
            (data["sections"],
             {"i": "i", "pol.E_i": "polarization_dot_e_i",
              "K_X.E+": "k_x_dot_e_plus", "K_X.E-": "k_x_dot_e_minus",
              "K_Y.f(E+)": "k_y_dot_f_e_plus", "K_Y.f(E-)": "k_y_dot_f_e_minus",
              "E^Y.f(E)": "e_y_dot_f_e"}),
            (data["plt_coefficients"],
             {"i": "i", "pol.E_i": "polarization_dot_e", "b": "b", "plt": "plt"}),
        ]
    elif ledger == "resolution":
        data = {"resolution": resolution_ledger(model)}
        tables = [(
            data["resolution"],
            {"curve": "curve", "m": "m", "F+ discrepancy": "f_plus_discrepancy",
             "S- chain": "mu_s_minus_chain", "R chain": "mu_r_minus_chain",
             "dual graph": "dual_graph"},
        )]
    elif ledger == "picard":
        data = {"picard": picard_chain(model)}
        tables = [([data["picard"]], ("rho_s", "rho_t", "rho_x", "rho_y", "rho_z"))]
    else:  # adjunction
        data = {"adjunction": adjunction_consistency(model)}
        failed = not data["adjunction"]["all_pass"]
        tables = [(
            data["adjunction"]["checks"],
            {"check": "name", "lhs": "lhs", "rhs": "rhs", "pass": "pass"},
        )]
    _write(
        args,
        {
            "command": "cone",
            "params": {"d": args.d, "q": args.q, "ledger": ledger},
            "data": data,
        },
        md=lambda p: f"# cone ledger ({ledger}) d={args.d} q={args.q}\n"
        + "\n".join(_table(records, columns) for records, columns in tables),
    )
    return 1 if failed else 0


# --- kvv-schedule -----------------------------------------------------------


def cmd_kvv_schedule(args) -> int:
    # an empty item (as in "2,,3") is malformed, not skipped; an empty --e
    # or --delta is an empty list, the latter meaning all zeros
    try:
        e = [int(x) for x in args.e.split(",")] if args.e else []
    except ValueError:
        raise ValueError(f"multiplicities must be positive integers: {args.e}")
    delta = (
        [_parse_rat(x) for x in args.delta.split(",")]
        if args.delta
        else [Fraction(0)] * len(e)
    )
    trace = kvv_schedule(e, delta, _parse_rat(args.target))

    def md(p: dict) -> str:
        steps = [{**s, "delta": f"({_cell(s['delta'])})"} for s in p["steps"]]
        return f"# schedule e={p['multiplicities']} target={p['target']}\n" + _table(
            steps, ("j", "mu", "chosen", "lambda", "delta")
        )

    _write(args, {"command": "kvv-schedule", **trace.to_json_dict()}, md=md)
    return 0


# --- verify -----------------------------------------------------------------


def cmd_verify(args) -> int:
    if args.scenario == "plt":
        report = verify_plt_nonnormal(args.d, args.q)
    else:
        report = verify_bad_fano(args.q)

    def md(p: dict) -> str:
        params = " ".join(f"{k}={v}" for k, v in p["params"].items())
        return (
            f"# {p['scenario']} {params}\n\nverdict: {_json(p['verdict'])}\n\n"
            + _table(p["certificates"], ("claim", "value", "rule"))
        )

    _write(args, report, md=md)
    return 0 if report["verdict"] is True else 1


# --- sweep ------------------------------------------------------------------


_SWEEP_COLUMNS = ("d", "q1", "q2", "ample", "h1", "kvv_violation")


def cmd_sweep(args) -> int:
    _write(
        args,
        sweep_kvv(args.d_min, args.d_max),
        csv=lambda p: _csv(p["rows"], _SWEEP_COLUMNS),
        md=lambda p: _table(p["rows"], _SWEEP_COLUMNS),
    )
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conekit",
        description="exact verifier for the surface/cone counterexample numerics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("json", "md"), default="json"):
        p.add_argument("--format", choices=choices, default=default)

    p = sub.add_parser("km-surface", help="print the surface curve table")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--check", action="store_true", help="run the sanity report")
    add_format(p)
    p.set_defaults(func=cmd_km_surface)

    p = sub.add_parser("contract", help="query the contraction of the fibre curves")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--pullback", metavar="DIVISOR")
    p.add_argument("--pushforward", metavar="DIVISOR")
    p.add_argument("--discrepancies", action="store_true")
    p.add_argument("--classify", action="store_true")
    p.add_argument("--boundary", metavar="DIVISOR")
    p.add_argument("--target-intersect", nargs=2, metavar=("D1", "D2"))
    p.add_argument("--ample", metavar="DIVISOR")
    p.add_argument("--picard-rank", action="store_true")
    add_format(p)
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("cohom", help="certified cohomology of n*A on the target")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q1", type=int, required=True)
    p.add_argument("--q2", type=int, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--subtract", metavar="E_j")
    add_format(p, choices=("json", "csv", "md"))
    p.set_defaults(func=cmd_cohom)

    p = sub.add_parser("cone", help="threefold ledger for the plt polarization")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument(
        "--ledger",
        choices=("curve", "sections", "resolution", "picard", "adjunction"),
        default="curve",
    )
    add_format(p)
    p.set_defaults(func=cmd_cone)

    p = sub.add_parser("kvv-schedule", help="coefficient-reduction schedule trace")
    p.add_argument("--e", required=True, help="comma-separated multiplicities")
    p.add_argument("--delta", default="", help="comma-separated initial coefficients")
    p.add_argument("--target", required=True, help="lambda target (rational)")
    add_format(p)
    p.set_defaults(func=cmd_kvv_schedule)

    p = sub.add_parser("verify", help="scenario verifiers")
    vsub = p.add_subparsers(dest="scenario", required=True)
    vp = vsub.add_parser("plt", help="non-normal divisor over the cone point")
    vp.add_argument("--d", type=int, required=True)
    vp.add_argument("--q", type=int, required=True)
    add_format(vp)
    vf = vsub.add_parser("fano", help="cone with nonzero intermediate cohomology")
    vf.add_argument("--q", type=int, required=True)
    add_format(vf)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="vanishing-failure table over (d, q1, q2)")
    p.add_argument("--d-min", type=int, required=True)
    p.add_argument("--d-max", type=int, required=True)
    p.add_argument("--out", metavar="FILE")
    add_format(p, choices=("csv", "json", "md"), default="csv")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except InvariantError as exc:
        sys.stderr.write(f"error: internal check failed: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
