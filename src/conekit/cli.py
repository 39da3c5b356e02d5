"""conekit command line: surface tables, contraction queries, cohomology
reports, threefold ledgers, schedules, scenario verifiers, and the sweep.

Exit codes: 0 when every verdict/check is as expected, 1 when some check
fails or a verdict is not the expected one, 2 on usage errors.  All output
is deterministic; rationals are serialized as p/q strings.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .cohom import FamilyDescriptor, cohomology_of_nA, target_context
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
from .contract import km_psi
from .km_surface import build_km_surface, km_sanity
from .qlattice import NamedDivisor, curve_sort_key, format_rat
from .scenarios import (
    ScenarioError,
    sweep_kvv,
    verify_bad_fano,
    verify_plt_nonnormal,
)

_TERM = re.compile(r"^([+-]?)(?:(\d+(?:/\d+)?)\*)?([A-Za-z]\w*)$")


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
        value = Fraction(coeff) if coeff else Fraction(1)
        if sign == "-":
            value = -value
        terms.append((name, value))
    return NamedDivisor.of(terms)


def _emit_json(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _md_table(headers: list[str], rows: list[list[str]]) -> str:
    out = ["| " + " | ".join(headers) + " |"]
    out.append("|" + "|".join(" --- " for _ in headers) + "|")
    for row in rows:
        out.append("| " + " | ".join(row) + " |")
    return "\n".join(out) + "\n"


def _divisor_json(D: NamedDivisor) -> dict:
    return {name: format_rat(c) for name, c in D.entries}


# --- km-surface -------------------------------------------------------------


def cmd_km_surface(args) -> int:
    surface = build_km_surface(args.d)
    report = km_sanity(surface) if args.check else None
    if args.format == "json":
        payload = {"command": "km-surface", "d": args.d, "surface": surface.to_json_dict()}
        if report is not None:
            payload["sanity"] = report.to_json_dict()
        sys.stdout.write(_emit_json(payload))
    else:
        rows = [
            [name, str(entry.cls), format_rat(surface.pairing(name, name))]
            for name, entry in surface.registry.entries
        ]
        out = [f"# surface d={args.d} (rank {surface.lattice.rank})\n"]
        out.append(_md_table(["curve", "class", "self-intersection"], rows))
        if report is not None:
            out.append("\n## sanity\n")
            out.append(
                _md_table(
                    ["check", "pass", "detail"],
                    [[i.name, str(i.passed).lower(), i.detail] for i in report.items],
                )
            )
        sys.stdout.write("".join(out))
    return 0 if report is None or report.all_pass else 1


# --- contract ---------------------------------------------------------------


def cmd_contract(args) -> int:
    surface = build_km_surface(args.d)
    psi = km_psi(surface)
    results: dict = {}
    if args.pullback is not None:
        results["pullback"] = _divisor_json(psi.pullback(parse_divisor(args.pullback)))
    if args.pushforward is not None:
        results["pushforward"] = _divisor_json(
            psi.pushforward(parse_divisor(args.pushforward))
        )
    if args.discrepancies:
        results["discrepancies"] = psi.relative_canonical().to_json_dict()
    if args.classify:
        boundary = parse_divisor(args.boundary) if args.boundary else None
        results["classification"] = psi.classify_singularities(boundary).to_json_dict()
    if args.target_intersect is not None:
        d1, d2 = (parse_divisor(t) for t in args.target_intersect)
        results["target_intersect"] = format_rat(psi.target_intersect(d1, d2))
    if args.ample is not None:
        results["ample"] = psi.is_ample_rho1(parse_divisor(args.ample))
    if args.picard_rank:
        results["picard_rank_after"] = psi.picard_rank_after()
    if not results:
        results["discrepancies"] = psi.relative_canonical().to_json_dict()
    payload = {"command": "contract", "d": args.d, "results": results}
    if args.format == "json":
        sys.stdout.write(_emit_json(payload))
    else:
        lines = [f"# contraction on d={args.d}\n"]
        lines.append("```json\n" + json.dumps(results, indent=2) + "\n```\n")
        sys.stdout.write("".join(lines))
    return 0


# --- cohom ------------------------------------------------------------------


def _parse_subtract(text: str | None) -> int | None:
    if text is None:
        return None
    m = re.match(r"^E_(\d+)(\^T)?$", text.replace(" ", ""))
    if not m:
        raise ValueError(f"--subtract expects a curve like E_5, got {text!r}")
    return int(m.group(1))


def cmd_cohom(args) -> int:
    fam = FamilyDescriptor(args.d, args.q1, args.q2)
    ctx = target_context(args.d)
    subtract = _parse_subtract(args.subtract)
    report = cohomology_of_nA(ctx, fam, args.n, subtract=subtract)
    params = {
        "d": args.d,
        "q1": args.q1,
        "q2": args.q2,
        "n": args.n,
        "subtract": subtract,
    }
    if args.format == "json":
        sys.stdout.write(
            _emit_json({"command": "cohom", "params": params, "report": report.to_json_dict()})
        )
    elif args.format == "csv":
        sub = "" if subtract is None else f"E_{subtract}"
        sys.stdout.write("d,q1,q2,n,subtract,h0,h1,h2,chi\n")
        sys.stdout.write(
            f"{args.d},{args.q1},{args.q2},{args.n},{sub},"
            f"{report.h0},{report.h1},{report.h2},{report.chi}\n"
        )
    else:
        rows = [[str(report.h0), str(report.h1), str(report.h2), str(report.chi)]]
        sys.stdout.write(
            f"# cohomology d={args.d} q1={args.q1} q2={args.q2} n={args.n}\n"
            + _md_table(["h0", "h1", "h2", "chi"], rows)
            + "\ncertificates: "
            + "; ".join(report.certificates)
            + "\n"
        )
    return 0


# --- cone -------------------------------------------------------------------


def _plt_model(d: int, q: int) -> ConeModel:
    ctx = target_context(d)
    terms = {f"E_{i}": 1 for i in range(1, q + 1)}
    terms[f"E_{q + 1}"] = -1
    return ConeModel.build(ctx.surface, ctx.psi, NamedDivisor.of(terms))


def cmd_cone(args) -> int:
    model = _plt_model(args.d, args.q)
    ledger = args.ledger
    failed = False
    if ledger == "curve":
        data = [
            cone_curve_numbers(model, name).to_json_dict()
            for name in sorted(model.psi.contracted, key=curve_sort_key)
        ]
        crepant = model.crepant_coefficients
        payload_data = {
            "curves": data,
            "crepant_coefficients": {n: format_rat(c) for n, c in crepant.items()},
        }
    elif ledger == "sections":
        payload_data = {
            "sections": [
                section_numbers(model, i, i).to_json_dict()
                for i in range(1, model.d + 1)
            ],
            "plt_coefficients": [
                plt_coefficient_b(model, i).to_json_dict()
                for i in range(1, model.d + 1)
                if model.polarization_dot_e(i) != 0
            ],
        }
    elif ledger == "resolution":
        payload_data = {
            "resolution": [r.to_json_dict() for r in resolution_ledger(model)]
        }
    elif ledger == "picard":
        payload_data = {"picard": picard_chain(model).to_json_dict()}
    else:  # adjunction
        report = adjunction_consistency(model)
        payload_data = {"adjunction": report.to_json_dict()}
        failed = not report.all_pass
    payload = {
        "command": "cone",
        "params": {"d": args.d, "q": args.q, "ledger": ledger},
        "data": payload_data,
    }
    if args.format == "json":
        sys.stdout.write(_emit_json(payload))
    else:
        sys.stdout.write(
            f"# cone ledger ({ledger}) d={args.d} q={args.q}\n"
            + _cone_md(ledger, payload_data)
        )
    return 1 if failed else 0


def _cone_md(ledger: str, data: dict) -> str:
    if ledger == "curve":
        rows = [
            [c["curve"], str(c["m"]), c["square"],
             data["crepant_coefficients"][c["curve"]], c["k_dot_section_curve"]]
            for c in data["curves"]
        ]
        return _md_table(
            ["curve", "m", "square", "crepant coeff", "K. section curve"], rows
        )
    if ledger == "sections":
        rows = [
            [str(s["i"]), s["polarization_dot_e_i"], s["k_x_dot_e_plus"],
             s["k_x_dot_e_minus"], s["k_y_dot_f_e_plus"], s["k_y_dot_f_e_minus"],
             s["e_y_dot_f_e"]]
            for s in data["sections"]
        ]
        out = _md_table(
            ["i", "pol.E_i", "K_X.E+", "K_X.E-", "K_Y.f(E+)", "K_Y.f(E-)",
             "E^Y.f(E)"],
            rows,
        )
        brows = [
            [str(b["i"]), b["polarization_dot_e"], b["b"], str(b["plt"]).lower()]
            for b in data["plt_coefficients"]
        ]
        return out + "\n" + _md_table(["i", "pol.E_i", "b", "plt"], brows)
    if ledger == "resolution":
        rows = [
            [r["curve"], str(r["m"]), r["f_plus_discrepancy"],
             ", ".join(r["mu_s_minus_chain"]), ", ".join(r["mu_r_minus_chain"]),
             r["dual_graph"]]
            for r in data["resolution"]
        ]
        return _md_table(
            ["curve", "m", "F+ discrepancy", "S- chain", "R chain", "dual graph"],
            rows,
        )
    if ledger == "picard":
        p = data["picard"]
        return _md_table(
            ["rho_s", "rho_t", "rho_x", "rho_y", "rho_z"],
            [[str(p[k]) for k in ("rho_s", "rho_t", "rho_x", "rho_y", "rho_z")]],
        )
    checks = data["adjunction"]["checks"]
    rows = [
        [c["name"], c["lhs"], c["rhs"], str(c["pass"]).lower()] for c in checks
    ]
    return _md_table(["check", "lhs", "rhs", "pass"], rows)


# --- kvv-schedule -----------------------------------------------------------


def cmd_kvv_schedule(args) -> int:
    e = [int(x) for x in args.e.split(",") if x]
    delta = (
        [Fraction(x) for x in args.delta.split(",") if x]
        if args.delta
        else [Fraction(0)] * len(e)
    )
    trace = kvv_schedule(e, delta, Fraction(args.target))
    if args.format == "json":
        sys.stdout.write(_emit_json({"command": "kvv-schedule", **trace.to_json_dict()}))
    else:
        rows = [
            [
                str(s.j),
                format_rat(s.mu),
                str(s.chosen),
                format_rat(s.lam),
                "(" + ", ".join(format_rat(x) for x in s.delta) + ")",
            ]
            for s in trace.steps
        ]
        sys.stdout.write(
            f"# schedule e={list(trace.multiplicities)} target={format_rat(trace.target)}\n"
            + _md_table(["j", "mu", "chosen", "lambda", "delta"], rows)
        )
    return 0


# --- verify -----------------------------------------------------------------


def _verify_md(payload: dict) -> str:
    rows = [
        [c["claim"], c["value"], c["rule"]]
        for c in payload["certificates"]
    ]
    verdict = payload["verdict"]
    head = (
        f"# {payload['scenario']} "
        + " ".join(f"{k}={v}" for k, v in payload["params"].items())
        + f"\n\nverdict: {json.dumps(verdict)}\n\n"
    )
    return head + _md_table(["claim", "value", "rule"], rows)


def cmd_verify_plt(args) -> int:
    report = verify_plt_nonnormal(args.d, args.q)
    payload = report.to_json_dict()
    if args.format == "json":
        sys.stdout.write(_emit_json(payload))
    else:
        sys.stdout.write(_verify_md(payload))
    return 0 if report.verdict is True else 1


def cmd_verify_fano(args) -> int:
    report = verify_bad_fano(args.q)
    payload = report.to_json_dict()
    if args.format == "json":
        sys.stdout.write(_emit_json(payload))
    else:
        sys.stdout.write(_verify_md(payload))
    return 0 if report.verdict is True else 1


# --- sweep ------------------------------------------------------------------


def cmd_sweep(args) -> int:
    table = sweep_kvv(args.d_min, args.d_max)
    if args.format == "csv":
        text = table.to_csv()
    elif args.format == "json":
        text = _emit_json(table.to_json_dict())
    else:
        rows = [
            [
                str(r.d),
                str(r.q1),
                str(r.q2),
                str(r.ample).lower(),
                str(r.h1),
                str(r.kvv_violation).lower(),
            ]
            for r in table.rows
        ]
        text = _md_table(["d", "q1", "q2", "ample", "h1", "kvv_violation"], rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
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
    vp.set_defaults(func=cmd_verify_plt)
    vf = vsub.add_parser("fano", help="cone with nonzero intermediate cohomology")
    vf.add_argument("--q", type=int, required=True)
    add_format(vf)
    vf.set_defaults(func=cmd_verify_fano)

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
    except (ScenarioError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
