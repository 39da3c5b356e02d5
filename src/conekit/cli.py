"""conekit command line: surface tables, contraction queries, cohomology
reports, threefold ledgers, schedules, scenario verifiers, and the sweep.

Every command builds one payload, the dict printed by ``--format json``;
``--format md`` (and ``csv`` where offered) renders that same payload as
tables, so the formats never disagree on a number.  A ``cmd_*`` function
writes nothing: it returns ``(exit code, payload, views)``, and ``main``, the
one output site, hands them to ``_write`` once the command has finished, so
no byte is printed before every check has run.

Exit codes: 0 when every verdict/check is as expected, 1 when some check
fails or a verdict is not the expected one, 2 on usage errors (any
ValueError), a malformed rational (a zero denominator, exponent notation or
more characters than Python's int-to-str digit limit included), a d
outside ``km_surface.MIN_D`` to ``MAX_D`` (3 to 200), a ``sweep --out``
file and a stdout that cannot be written among them, and 3 when an
internal check fails (``qlattice.InvariantError``: two independent routes to
one number disagree), with nothing printed on stdout.  All output is
deterministic.  Every JSON text comes from one writer, ``_json``, which
prints what ``json.dumps(indent=2)`` would, a list one column at a time and
a ``Table`` (a list of dicts given by columns) ``BLOCK_ROWS`` rows at a
time, which ``_write`` writes as they come, except that a Fraction is a p/q
string and every other type outside JSON's, a float or a str subclass
included, is refused with a TypeError.

The engine modules ``cohom``, ``km_surface``, ``qlattice`` and
``scenarios`` are held through ``conekit._lazy`` and run on a command's
first read of them, so that a command compiles and runs only the modules it
uses: ``kvv-schedule`` runs none of them, only ``cone3fold`` (the schedule
and ``Table``) and this module.  Each stays registered in ``sys.modules``
from the start, as the one object every import of it gets.

``run`` is the process entry point, of ``python -m conekit.cli`` and of the
installed ``conekit`` script; ``main(argv)`` returns the exit code and is
what the tests and in-process callers use.  Once ``main`` has returned,
``run`` flushes stdout and stderr and ends the process at once, through the
``os`` module's ``_exit``, skipping the interpreter's teardown (its last
garbage collections, the module-by-module deallocation and ``atexit``
hooks), which is no part of the answer.  That is safe because every file
is closed and every stream written before ``main`` returns: ``--out`` is
written inside ``with``, and ``_write`` flushes stdout inside its ``try``.
After a failed write to stdout on a full device or a closed pipe, the
flush finds nothing left to write, so the request exits 2 with its one
line on stderr, as before.  Python's normal exit is kept for a usage error
from argparse (``SystemExit``), an uncaught exception, a stream that ``run``
cannot flush (closed, unwritable, or None when its descriptor was closed),
whose failure that exit reports, and a run under a profiler or tracer
(``sys.getprofile``, ``sys.gettrace``), whose report is written after the
program returns.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from _json import encode_basestring_ascii as _escape
from fractions import Fraction
from itertools import chain
from operator import itemgetter

from . import _lazy
from .cone3fold import (
    ConeModel,
    Table,
    adjunction_consistency,
    cone_curve_numbers,
    kvv_schedule,
    picard_chain,
    plt_coefficient_b,
    resolution_ledger,
    section_numbers,
)

# run on first use (see the module docstring)
cohom = _lazy("conekit.cohom")
km_surface = _lazy("conekit.km_surface")
qlattice = _lazy("conekit.qlattice")
scenarios = _lazy("conekit.scenarios")

_TERM = re.compile(r"([+-]?)(?:(\d+(?:/\d+)?)\*)?([A-Za-z]\w*)")
# Rows of a ``Table`` rendered, and held, at once by the JSON writer.
BLOCK_ROWS = 4096


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


def parse_divisor(text: str) -> qlattice.NamedDivisor:
    """Parse 'E_1+E_2-E_4' or '1/2*l_3-Gamma'; a '^T' suffix on names is ignored."""
    cleaned = text.replace(" ", "").replace("^T", "")
    if not cleaned or cleaned == "0":
        return qlattice.NamedDivisor.zero()
    pieces = re.findall(r"[+-]?[^+-]+", cleaned)
    if "".join(pieces) != cleaned:
        raise ValueError(f"cannot parse divisor: {text!r}")
    terms = []
    for piece in pieces:
        m = _TERM.fullmatch(piece)
        if not m:
            raise ValueError(f"cannot parse divisor term: {piece!r}")
        sign, coeff, name = m.groups()
        value = _parse_rat(coeff) if coeff else Fraction(1)
        if sign == "-":
            value = -value
        terms.append((name, value))
    return qlattice.NamedDivisor.of(terms)


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
    built on the exact ``type`` of each value instead of by CPython's
    pure-Python indenting encoder.  A str goes through json's own C escaper
    (``_json.encode_basestring_ascii``, which ``json.encoder`` re-exports,
    imported without the ``json`` package) and an int through ``repr`` (so
    the int-to-str digit limit still raises ValueError); a dict is a one-row
    table and a list a column, both rendered by ``_column``; a ``Table`` is
    ``"".join`` of its ``_pieces``; every other type goes through
    ``_rat_json``: a Fraction prints as ``p/q``, and a float, tuple, set,
    subclass of str or any other object is a TypeError, as is a dict key
    that is not a str."""
    kind = type(value)
    if kind is str:
        return _escape(value)
    if kind is int:
        return repr(value)
    if kind is dict:
        return _column([value], newline)[0]
    if kind is list:
        if not value:
            return "[]"
        inner = newline + "  "
        # one f-string copies a multi-MB body once, where each "+" would copy it
        return f"[{inner}{(',' + inner).join(_column(value, inner))}{newline}]"
    if kind is Table:
        return "".join(_pieces(value, newline))
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    return _escape(_rat_json(value))


def _column(items: list, newline: str) -> list[str]:
    """``[_json(item, newline) for item in items]``, one column at a time.

    Items all of type str or all of type int are rendered by one C-level
    ``map``.  Dicts that share one key tuple are a table: one ``%`` template
    per table (each key escaped once, a ``%`` in it doubled) filled from the
    rendered column of each key.  Anything else goes item by item through
    ``_json``, each distinct object once (``items`` keeps every item alive,
    so an ``id`` names one object throughout)."""
    kinds = set(map(type, items))
    if kinds == {str}:
        return list(map(_escape, items))
    if kinds == {int}:
        return list(map(repr, items))
    if kinds == {dict} and len(shapes := set(map(tuple, items))) == 1:
        (keys,) = shapes
        if not keys:
            return ["{}"] * len(items)
        return _rows(keys, [list(map(itemgetter(key), items)) for key in keys], newline)
    distinct = dict(zip(map(id, items), items))
    texts = {key: _json(item, newline) for key, item in distinct.items()}
    return list(map(texts.__getitem__, map(id, items)))


def _rows(keys: tuple, columns: list[list], newline: str) -> list[str]:
    """The JSON objects of a table's rows, row i holding ``columns[k][i]``
    under ``keys[k]``: one ``%`` template per table (each key escaped once,
    a ``%`` in it doubled) filled from each column rendered by ``_column``."""
    if set(map(type, keys)) != {str}:
        raise TypeError("dict keys must be str")
    inner = newline + "  "
    fields = ["%s: %%s" % _escape(key).replace("%", "%%") for key in keys]
    template = "{" + inner + ("," + inner).join(fields) + newline + "}"
    return list(map(template.__mod__, zip(*[_column(col, inner) for col in columns])))


def _blocks(table: Table):
    """The columns of ``table``'s rows, ``BLOCK_ROWS`` rows at a time."""
    n = len(table)
    for a in range(0, n, BLOCK_ROWS):
        yield table.columns(a, min(a + BLOCK_ROWS, n))


def _pieces(value, newline: str = "\n"):
    """``_json(value, newline)`` in pieces, which ``_write`` writes as they
    come: a ``Table`` a block of ``BLOCK_ROWS`` rows a piece, each rendered by
    ``_rows``, and a dict holding a ``Table`` key by key around it; anything
    else is one piece.  Such a dict renders every other value before its
    first piece, so a value that cannot be printed fails before any byte."""
    kind = type(value)
    if kind is Table:
        if not value:
            yield "[]"
            return
        inner = newline + "  "
        sep = "[" + inner
        for columns in _blocks(value):
            yield sep + ("," + inner).join(_rows(value.keys, columns, inner))
            sep = "," + inner
        yield newline + "]"
    elif kind is dict and Table in set(map(type, value.values())):
        if set(map(type, value)) != {str}:
            raise TypeError("dict keys must be str")
        inner = newline + "  "
        texts = [v if type(v) is Table else _json(v, inner) for v in value.values()]
        sep = "{" + inner
        for key, text in zip(value, texts):
            yield f"{sep}{_escape(key)}: "
            if type(text) is Table:
                yield from _pieces(text, inner)
            else:
                yield text
            sep = "," + inner
        yield newline + "}"
    else:
        yield _json(value, newline)


def _write(args, payload: dict, **views) -> None:
    """Print a command's payload: as JSON for ``--format json``, written in
    ``_pieces`` as they come, so a ``Table`` is held a block of rows at a
    time; otherwise through ``views[args.format]``, a function of the
    payload whose text is written in one call.  ``--out`` (sweep only) sends
    it to a file instead of stdout; a file that cannot be opened or written,
    or a stdout that cannot be written or flushed, is a usage error
    (ValueError)."""
    if args.format == "json":
        pieces = chain(_pieces(payload), ["\n"])
    else:
        pieces = [views[args.format](payload)]
    out = getattr(args, "out", None)
    try:
        if out:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(pieces)
        else:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
    except OSError as exc:
        raise ValueError(f"cannot write {out or 'stdout'}: {exc.strerror}") from None


# --- km-surface -------------------------------------------------------------


def cmd_km_surface(args) -> tuple:
    surface = km_surface.build_km_surface(args.d)
    report = km_surface.km_sanity(surface) if args.check else None
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

    return (0 if report is None or report["all_pass"] else 1), payload, {"md": md}


# --- contract ---------------------------------------------------------------


def cmd_contract(args) -> tuple:
    if args.boundary is not None and not args.classify:
        raise ValueError("--boundary needs --classify")
    psi = cohom.target_context(args.d)
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
    return 0, {"command": "contract", "d": args.d, "results": results}, {
        "md": lambda p: f"# contraction on d={p['d']}\n```json\n"
        + _json(p["results"]) + "\n```\n",
    }


# --- cohom ------------------------------------------------------------------


def _parse_subtract(text: str | None) -> int | None:
    if text is None:
        return None
    m = re.fullmatch(r"E_(\d+)(\^T)?", text.replace(" ", ""))
    if not m:
        raise ValueError(f"--subtract expects a curve like E_5, got {text!r}")
    return int(m.group(1))


_COHOM_CSV = ("d", "q1", "q2", "n", "subtract", "h0", "h1", "h2", "chi")


def cmd_cohom(args) -> tuple:
    fam = cohom.FamilyDescriptor(args.d, args.q1, args.q2)
    subtract = _parse_subtract(args.subtract)
    report = cohom.cohomology_of_nA(fam, args.n, subtract=subtract)
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

    payload = {"command": "cohom", "params": params, "report": report.to_json_dict()}
    return 0, payload, {"csv": csv, "md": md}


# --- cone -------------------------------------------------------------------


def cmd_cone(args) -> tuple:
    psi = cohom.target_context(args.d)
    polarization = cohom.family_divisor(cohom.FamilyDescriptor(args.d, args.q, 1))
    model = ConeModel.build(psi, polarization)
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
    params = {"d": args.d, "q": args.q, "ledger": ledger}
    payload = {"command": "cone", "params": params, "data": data}
    return (1 if failed else 0), payload, {
        "md": lambda p: f"# cone ledger ({ledger}) d={args.d} q={args.q}\n"
        + "\n".join(_table(records, columns) for records, columns in tables),
    }


# --- kvv-schedule -----------------------------------------------------------


def cmd_kvv_schedule(args) -> tuple:
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
        steps = (
            {"j": j, "mu": mu, "chosen": chosen, "lambda": lam,
             "delta": f"({_cell(delta)})"}
            for columns in _blocks(p["steps"])
            for j, mu, chosen, lam, delta in zip(*columns)
        )
        return f"# schedule e={p['multiplicities']} target={p['target']}\n" + _table(
            steps, ("j", "mu", "chosen", "lambda", "delta")
        )

    return 0, {"command": "kvv-schedule", **trace.to_json_dict()}, {"md": md}


# --- verify -----------------------------------------------------------------


def cmd_verify(args) -> tuple:
    if args.scenario == "plt":
        report = scenarios.verify_plt_nonnormal(args.d, args.q)
    else:
        report = scenarios.verify_bad_fano(args.q)

    def md(p: dict) -> str:
        params = " ".join(f"{k}={v}" for k, v in p["params"].items())
        return (
            f"# {p['scenario']} {params}\n\nverdict: {_json(p['verdict'])}\n\n"
            + _table(p["certificates"], ("claim", "value", "rule"))
        )

    return (0 if report["verdict"] is True else 1), report, {"md": md}


# --- sweep ------------------------------------------------------------------


_SWEEP_COLUMNS = ("d", "q1", "q2", "ample", "h1", "kvv_violation")


def cmd_sweep(args) -> tuple:
    return 0, scenarios.sweep_kvv(args.d_min, args.d_max), {
        "csv": lambda p: _csv(p["rows"], _SWEEP_COLUMNS),
        "md": lambda p: _table(p["rows"], _SWEEP_COLUMNS),
    }


# ---------------------------------------------------------------------------


def _add_format(p, choices=("json", "md"), default="json") -> None:
    p.add_argument("--format", choices=choices, default=default)


def _km_surface_arguments(p) -> None:
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--check", action="store_true", help="run the sanity report")
    _add_format(p)


def _contract_arguments(p) -> None:
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--pullback", metavar="DIVISOR")
    p.add_argument("--pushforward", metavar="DIVISOR")
    p.add_argument("--discrepancies", action="store_true")
    p.add_argument("--classify", action="store_true")
    p.add_argument("--boundary", metavar="DIVISOR")
    p.add_argument("--target-intersect", nargs=2, metavar=("D1", "D2"))
    p.add_argument("--ample", metavar="DIVISOR")
    p.add_argument("--picard-rank", action="store_true")
    _add_format(p)


def _cohom_arguments(p) -> None:
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q1", type=int, required=True)
    p.add_argument("--q2", type=int, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--subtract", metavar="E_j")
    _add_format(p, choices=("json", "csv", "md"))


def _cone_arguments(p) -> None:
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument(
        "--ledger",
        choices=("curve", "sections", "resolution", "picard", "adjunction"),
        default="curve",
    )
    _add_format(p)


def _kvv_schedule_arguments(p) -> None:
    p.add_argument("--e", required=True, help="comma-separated multiplicities")
    p.add_argument("--delta", default="", help="comma-separated initial coefficients")
    p.add_argument("--target", required=True, help="lambda target (rational)")
    _add_format(p)


def _verify_arguments(p) -> None:
    vsub = p.add_subparsers(dest="scenario", required=True)
    vp = vsub.add_parser("plt", help="non-normal divisor over the cone point")
    vp.add_argument("--d", type=int, required=True)
    vp.add_argument("--q", type=int, required=True)
    _add_format(vp)
    vf = vsub.add_parser("fano", help="cone with nonzero intermediate cohomology")
    vf.add_argument("--q", type=int, required=True)
    _add_format(vf)


def _sweep_arguments(p) -> None:
    p.add_argument("--d-min", type=int, required=True)
    p.add_argument("--d-max", type=int, required=True)
    p.add_argument("--out", metavar="FILE")
    _add_format(p, choices=("csv", "json", "md"), default="csv")


# (name, help, add-arguments, command function) of every subcommand
COMMANDS = (
    ("km-surface", "print the surface curve table", _km_surface_arguments, cmd_km_surface),
    ("contract", "query the contraction of the fibre curves", _contract_arguments,
     cmd_contract),
    ("cohom", "certified cohomology of n*A on the target", _cohom_arguments, cmd_cohom),
    ("cone", "threefold ledger for the plt polarization", _cone_arguments, cmd_cone),
    ("kvv-schedule", "coefficient-reduction schedule trace", _kvv_schedule_arguments,
     cmd_kvv_schedule),
    ("verify", "scenario verifiers", _verify_arguments, cmd_verify),
    ("sweep", "vanishing-failure table over (d, q1, q2)", _sweep_arguments, cmd_sweep),
)


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser for ``argv``: every subcommand is registered with its help,
    but only the one ``argv[0]`` names gets its arguments.  With no argv, or
    an ``argv[0]`` that names no command, every subcommand gets them."""
    parser = argparse.ArgumentParser(
        prog="conekit",
        description="exact verifier for the surface/cone counterexample numerics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    wanted = argv[0] if argv and argv[0] in {c[0] for c in COMMANDS} else None
    for name, help_text, add_arguments, func in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        if wanted in (None, name):
            add_arguments(p)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        code, payload, views = args.func(args)
        _write(args, payload, **views)
        return code
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except qlattice.InvariantError as exc:
        sys.stderr.write(f"error: internal check failed: {exc}\n")
        return 3


def run() -> None:
    """The process entry point: exit with ``main()``'s code, skipping the
    interpreter's teardown when the streams flush and nothing profiles or
    traces the run (see the module docstring)."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):  # None, unwritable, closed
        sys.exit(code)
    if sys.getprofile() is None and sys.gettrace() is None:
        os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
