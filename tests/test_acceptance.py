"""Acceptance gate: every check is exact (tolerance zero).

One test per criterion; each prints a single pass/fail line so the gate can
be read off a verbose run.  A failed assertion prints FAIL via the helper
before pytest reports it.
"""

import contextlib
import io
from fractions import Fraction
from math import floor
from pathlib import Path

import pytest
from test_cohom import _from_scratch

from conekit.cli import main as cli_main
from conekit.cohom import (
    CohStatus,
    FamilyDescriptor,
    family_divisor,
    km_family_cohomology,
    target_context,
)
from conekit.cone3fold import (
    ConeModel,
    adjunction_consistency,
    cone_curve_numbers,
    kvv_schedule,
    picard_chain,
    resolution_ledger,
    section_numbers,
)
from conekit.contract import km_psi
from conekit.km_surface import MAX_D, build_km_surface
from conekit.scenarios import verify_bad_fano, verify_plt_nonnormal

GOLDEN_DIR = Path(__file__).parent / "golden"


def report(number: int, label: str, passed: bool):
    print(f"criterion {number:02d} [{'PASS' if passed else 'FAIL'}]: {label}")
    assert passed, f"criterion {number} failed: {label}"


def full_grid(d_max: int = 12):
    for d in range(3, d_max + 1):
        for q1 in range(0, d + 1):
            for q2 in range(0, d - q1 + 1):
                yield FamilyDescriptor(d, q1, q2)


def plt_instances(d_max: int):
    for d in range(3, d_max + 1):
        for q in range(2, d - 1):
            if (2 * d - 4) % (q - 1) == 0:
                yield d, q


def fano_instances(d_max: int):
    q = 1
    while 4 * q + 2 <= d_max:
        yield q, 4 * q + 2
        q += 1


def test_criterion_01_chi_cross_validation():
    ok = True
    for fam in full_grid(20):
        t = floor(Fraction(fam.q1 - fam.q2, 2 * fam.d - 4))
        closed = 1 - fam.q2 + (fam.q1 - fam.q2 - fam.d + 3) * t - t * t * (fam.d - 2)
        # Riemann-Roch on the floor of the whole pulled-back divisor, paired
        # from scratch, not on the family walk that the engine checks against
        lattice = _from_scratch(fam)[3]
        if closed != lattice:
            ok = False
            break
    report(
        1,
        "closed-form chi equals Riemann-Roch on the full grid (d <= 20; d <= 60 "
        "in test_cohom.py::test_chi_closed_form_equals_riemann_roch_on_grid)",
        ok,
    )


def test_criterion_02_h1_table():
    ok = True
    for fam in full_grid():
        rep = km_family_cohomology(fam)
        if fam.q2 == 0:
            expected = 0
        elif fam.q1 >= fam.q2:
            expected = fam.q2 - 1
        else:
            expected = fam.q1
        if rep.h1 != CohStatus.exact(expected):
            ok = False
        if not rep.h2.is_exact_zero:
            ok = False
        if fam.q2 > 0 and not rep.h0.is_exact_zero:
            ok = False
        if not rep.euler_consistent():
            ok = False
    report(2, "h1 classification with certified h0/h2 and Euler consistency", ok)


def test_criterion_03_plt_counterexample_d5_q3():
    rep = verify_plt_nonnormal(5, 3)
    values = {c["claim"]: c["value"] for c in rep["certificates"]}
    ok = values["m(Gamma)"] == "3"
    ok &= all(values[f"m(l_{i})"] == "2" == values[f"m(lp_{i})"] for i in range(1, 5))
    ok &= values["m(l_5)"] == "1" and values["m(lp_5)"] == "1"
    ok &= values["b"] == "1/2"
    ok &= values["h1(T,A-E_5)"] == "1"
    ok &= values["non_normal(E^Z)"] == "true"
    ok &= all(c["value"] != "unknown" for c in rep["certificates"])
    report(3, "plt counterexample (d=5, q=3): m-table, b, h1 twist, verdict", ok)


def test_criterion_04_fano_family():
    # every q whose d = 4q+2 the tool admits
    q_max = (MAX_D - 2) // 4
    ok = q_max == 49
    for q in range(1, q_max + 1):
        fano = verify_bad_fano(q)
        values = {c["claim"]: c["value"] for c in fano["certificates"]}
        ok &= values["h2(Z,O_Z)"] == str(q - 1)
        ok &= values["not-cohen-macaulay(Z)"] == ("true" if q >= 2 else "false")
        ok &= values["m(Gamma)"] == "4"
        ok &= fano["verdict"] is True
    report(4, f"Fano family q=1..{q_max}: h2 = q-1, CM flag, m(Gamma) = 4, verdict", ok)


def _ledger_models(d_max: int):
    for d, q in plt_instances(d_max):
        yield ConeModel.build(
            target_context(d), family_divisor(FamilyDescriptor(d, q, 1))
        )
    for q, d in fano_instances(d_max):
        yield ConeModel.build(
            target_context(d), family_divisor(FamilyDescriptor(d, 3 * q, q))
        )


def test_criterion_05_threefold_ledger_identities():
    ok = True
    for model in _ledger_models(20):
        d = model.d
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                rec = section_numbers(model, i, j)
                ok &= rec["e_y_dot_f_e"] == Fraction(1, 2 * d - 4)
        for name in model.psi.contracted:
            rec = cone_curve_numbers(model, name)
            m = model.mc[name]
            sq = model.surface.pairing(name, name)
            ok &= rec["section_dot_section_curve"] == 0
            ok &= rec["k_dot_section_curve"] == Fraction(-sq - 2 * m, m)
        adj = adjunction_consistency(model)
        ok &= adj["all_pass"]
        ok &= len(adj["checks"]) == 2 * d + len(model.psi.contracted)
    report(5, "threefold ledger identities, exhaustive for d <= 20", ok)


def test_criterion_06_resolution_ledger():
    m53 = ConeModel.build(target_context(5), family_divisor(FamilyDescriptor(5, 3, 1)))
    fano1 = ConeModel.build(target_context(6), family_divisor(FamilyDescriptor(6, 3, 1)))
    by_m = {}
    for rec in resolution_ledger(m53) + resolution_ledger(fano1):
        by_m.setdefault(rec["m"], rec)
    ok = set(by_m) >= {2, 3, 4}
    expected_discrepancy = {2: Fraction(0), 3: Fraction(1, 3), 4: Fraction(1, 2)}
    for m in (2, 3, 4):
        rec = by_m[m]
        ok &= rec["f_plus_discrepancy"] == expected_discrepancy[m]
        ok &= rec["mu_s_plus_coeff"] == Fraction(1, m)
        ok &= rec["mu_s_minus_chain"] == [Fraction(m - k, m) for k in range(1, m)]
        ok &= rec["mu_r_f_plus"] == Fraction(1, m)
        ok &= rec["mu_r_minus_chain"] == [Fraction(k, m) for k in range(1, m)]
    report(6, "resolution ledger chains for m = 2, 3, 4", ok)


def test_criterion_07_discrepancy_certificates():
    ok = True
    for d in range(3, 21):
        got = km_psi(build_km_surface(d)).classify_singularities()
        ok &= got["klt"]
        ok &= got["min_discrepancy"] == -Fraction(d - 3, d - 2)
        ok &= got["min_discrepancy"] > -1
    report(7, "min contraction discrepancy -(d-3)/(d-2) > -1 for d = 3..20", ok)


def test_criterion_08_picard_chain():
    ok = True
    for model in _ledger_models(12):
        d = model.d
        ok &= tuple(picard_chain(model).values()) == (2 + 2 * d, 1, 3 + 2 * d, 2, 1)
    report(8, "Picard chain (2+2d, 1, 3+2d, 2, 1) on all tested instances", ok)


def test_criterion_09_kvv_schedule():
    ok = True
    for e in ((1,), (1, 2), (1, 2, 3), (3, 3, 3)):
        first = kvv_schedule(e, [0] * len(e), 10)
        second = kvv_schedule(e, [0] * len(e), 10)
        ok &= first.to_json_dict() == second.to_json_dict()
        den = first.den
        ok &= Fraction(first.steps[-1][2], den) >= 10
        ok &= all(
            0 <= Fraction(x, den) <= 1 for _, _, _, delta in first.steps for x in delta
        )
    report(9, "schedule reaches lambda = 10, coefficients stay in [0,1]", ok)


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def test_criterion_10_cli_determinism():
    from test_cli import GOLDEN_CASES

    ok = True
    for name, argv in GOLDEN_CASES:
        code1, out1 = _run_cli(argv)
        code2, out2 = _run_cli(argv)
        ok &= code1 == 0 and code2 == 0
        ok &= out1.encode() == out2.encode()
        ok &= (GOLDEN_DIR / f"{name}.txt").read_bytes() == out1.encode()
    report(10, "byte-identical CLI output across runs and against golden files", ok)
