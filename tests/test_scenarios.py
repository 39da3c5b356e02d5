import contextlib
import io
import json
from fractions import Fraction

import pytest

from conekit import cli, cohom, scenarios
from conekit.cohom import CohomReport, CohStatus
from conekit.scenarios import (
    SWEEP_MAX_WORK,
    sweep_rows,
    sweep_kvv,
    verify_bad_fano,
    verify_plt_nonnormal,
)


# Python reprs that must never leak into a rendered certificate value
REPRS = ("True", "False", "None", "Fraction(")


def valid_plt_parameters(d_max):
    for d in range(3, d_max + 1):
        for q in range(2, d - 1):
            if (2 * d - 4) % (q - 1) == 0:
                yield d, q


# --- plt ----------------------------------------------------------------------


def _values(report):
    return {c["claim"]: c["value"] for c in report["certificates"]}


def test_plt_flagship_case():
    report = verify_plt_nonnormal(5, 3)
    values = _values(report)
    assert values["m(Gamma)"] == "3"
    assert all(values[f"m(l_{i})"] == "2" == values[f"m(lp_{i})"] for i in range(1, 5))
    assert values["m(l_5)"] == "1" == values["m(lp_5)"]
    assert values["b"] == "1/2"
    assert values["h1(T,A-E_5)"] == "1"
    assert values["non_normal(E^Z)"] == "true"
    assert all(c["value"] != "unknown" for c in report["certificates"])


def test_plt_d8_q3():
    values = _values(verify_plt_nonnormal(8, 3))
    assert values["non_normal(E^Z)"] == "true"
    assert values["h1(T,A-E_5)"] == "1"


def test_plt_degenerate_boundary_coefficient():
    values = _values(verify_plt_nonnormal(5, 2))
    assert values["b"] == "0"
    assert values["B-coefficient"] == "0"
    assert values["non_normal(E^Z)"] == "true"


def test_plt_b_equals_closed_form_everywhere():
    for d, q in valid_plt_parameters(14):
        values = _values(verify_plt_nonnormal(d, q))
        assert values["b"] == str(Fraction(q - 2, q - 1)) == values["B-coefficient"]


def test_plt_verdict_true_on_all_valid_parameters_up_to_20():
    for d, q in valid_plt_parameters(20):
        report = verify_plt_nonnormal(d, q)
        assert _values(report)["non_normal(E^Z)"] == "true", (d, q)
        assert report["verdict"] is True, (d, q)
        assert all(c["value"] != "unknown" for c in report["certificates"]), (d, q)
        assert not any(
            r in c["value"] for c in report["certificates"] for r in REPRS
        ), (d, q)


@pytest.mark.parametrize(
    "wrong",
    [{"b": Fraction(1, 3)}, {"plt": False}],
    ids=["b-off-closed-form", "not-plt"],
)
def test_plt_verdict_includes_boundary_checks(monkeypatch, wrong):
    real = scenarios.plt_coefficient_b
    monkeypatch.setattr(
        scenarios,
        "plt_coefficient_b",
        lambda model, i: {**real(model, i), **wrong},
    )
    report = verify_plt_nonnormal(5, 3)
    assert _values(report)["non_normal(E^Z)"] == "true"
    assert report["verdict"] is False
    assert json.loads(json.dumps(report))["verdict"] is False
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["verify", "plt", "--d", "5", "--q", "3"]) == 1
    assert '"verdict": false' in out.getvalue()


def _tail_fails(monkeypatch, name):
    """Make the scenarios' uniform certificate `name` withdraw its tail claim."""
    real = getattr(scenarios, name)
    monkeypatch.setattr(
        scenarios,
        name,
        lambda *args, **kwargs: (False, real(*args, **kwargs)[1]),
    )


def _verify_cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(["verify", *argv])
    return code, out.getvalue()


def test_plt_unknown_when_h1_tail_fails(monkeypatch):
    _tail_fails(monkeypatch, "uniform_h1_chain_zero")
    report = verify_plt_nonnormal(5, 3)
    values = _values(report)
    for claim in ("h1(T,nA) for all n>=2", "R1g(O_Y)=0"):
        assert values[claim] == "unknown", claim
    assert values["R1g(O_Y(-E^Y))!=0"] == "true"
    assert values["non_normal(E^Z)"] == "unknown"
    assert report["verdict"] is None
    code, out = _verify_cli("plt", "--d", "5", "--q", "3")
    assert code == 1
    assert '"verdict": null' in out


def test_plt_unknown_when_h2_tail_fails(monkeypatch):
    _tail_fails(monkeypatch, "uniform_h2_chain_zero")
    report = verify_plt_nonnormal(5, 3)
    values = _values(report)
    for claim in ("h2(T,nA-E_5) for all n>=0", "R1g(O_Y(-E^Y))!=0", "non_normal(E^Z)"):
        assert values[claim] == "unknown", claim
    assert values["R1g(O_Y)=0"] == "true"
    assert report["verdict"] is None


def _h1_chain_replaced(monkeypatch, h1_at):
    """Replace h1 of the unsubtracted h1(nA) reports at the n in `h1_at`."""
    real = scenarios.cohomology_of_nA

    def patched(fam, n, subtract=None):
        report = real(fam, n, subtract=subtract)
        if subtract is None and n in h1_at:
            return CohomReport(
                report.h0, h1_at[n], report.h2, report.chi, report.certificates
            )
        return report

    monkeypatch.setattr(scenarios, "cohomology_of_nA", patched)


def test_plt_inexact_h1_entry_is_unknown_next_to_a_nonzero_one(monkeypatch):
    _h1_chain_replaced(monkeypatch, {1: CohStatus.exact(1), 2: CohStatus.unknown()})
    report = verify_plt_nonnormal(5, 3)
    assert _values(report)["R1g(O_Y)=0"] == "unknown"
    assert report["verdict"] is None


def test_plt_nonzero_h1_entry_is_false_even_without_the_tail(monkeypatch):
    _h1_chain_replaced(monkeypatch, {1: CohStatus.exact(1)})
    _tail_fails(monkeypatch, "uniform_h1_chain_zero")
    report = verify_plt_nonnormal(5, 3)
    values = _values(report)
    assert values["h1(T,1A)"] == "1"
    assert values["h1(T,nA) for all n>=2"] == "unknown"
    assert values["R1g(O_Y)=0"] == "false"
    assert values["non_normal(E^Z)"] == "false"
    assert report["verdict"] is False


def test_plt_h2_tail_reuses_the_n0_report(monkeypatch):
    """The uniform h2 certificate reads h2 of the n = 0 report instead of
    running its degree test again: one call per degree test, five in all."""
    calls = []
    real = cohom.h0_zero_by_degree

    def spy(psi, D):
        calls.append(D)
        return real(psi, D)

    monkeypatch.setattr(cohom, "h0_zero_by_degree", spy)
    assert verify_plt_nonnormal(5, 3)["verdict"] is True
    assert len(calls) == 5
    assert len(set(calls)) == 5


def test_plt_named_preconditions():
    # each message starts with the name of the failed precondition
    with pytest.raises(ValueError, match=r"^q>=2: q = 1$"):
        verify_plt_nonnormal(5, 1)
    with pytest.raises(ValueError, match=r"^d>=q\+2: \(d, q\) = \(4, 3\)$"):
        verify_plt_nonnormal(4, 3)
    with pytest.raises(
        ValueError,
        match=r"^\(q-1\)\|\(2d-4\): q - 1 = 3 does not divide 2d - 4 = 8$",
    ):
        verify_plt_nonnormal(6, 4)


def test_plt_report_shape():
    payload = verify_plt_nonnormal(5, 3)
    assert set(payload) == {"scenario", "params", "certificates", "verdict"}
    assert payload["verdict"] is True
    for cert in payload["certificates"]:
        assert set(cert) == {"claim", "value", "rule", "paper_ref"}


def test_plt_min_discrepancy():
    values = _values(verify_plt_nonnormal(12, 3))
    assert values["classification(psi)"] == "klt"
    assert values["min-discrepancy(psi)"] == str(-Fraction(12 - 3, 12 - 2))


# --- fano ---------------------------------------------------------------------


@pytest.mark.parametrize("q", range(1, 6))
def test_fano_family(q):
    report = verify_bad_fano(q)
    d = report["params"]["d"]
    assert d == 4 * q + 2
    values = _values(report)
    assert values["h2(Z,O_Z)"] == str(q - 1)
    assert values["not-cohen-macaulay(Z)"] == ("true" if q >= 2 else "false")
    assert values["m(Gamma)"] == "4"
    assert values["picard-chain"] == f"{2 + 2 * d},1,{3 + 2 * d},2,1"
    assert report["verdict"] is True
    assert not any(r in c["value"] for c in report["certificates"] for r in REPRS), q


def test_fano_unknown_when_tail_fails(monkeypatch):
    _tail_fails(monkeypatch, "uniform_h1_chain_zero")
    report = verify_bad_fano(2)
    values = _values(report)
    for claim in ("h1(T,nA) for all n>=2", "not-cohen-macaulay(Z)"):
        assert values[claim] == "unknown", claim
    assert values["h2(Z,O_Z)"] == "unknown"
    assert report["verdict"] is None
    code, out = _verify_cli("fano", "--q", "2")
    assert code == 1
    assert '"verdict": null' in out


def test_fano_rejects_nonpositive_q():
    with pytest.raises(ValueError, match=r"^q>=1: q = 0$"):
        verify_bad_fano(0)


def test_fano_report_shape():
    payload = verify_bad_fano(2)
    assert set(payload) == {"scenario", "params", "certificates", "verdict"}


# --- sweep ----------------------------------------------------------------------


def test_sweep_rows_from_quoted_cases():
    table = sweep_kvv(5, 5)
    rows = {(r["q1"], r["q2"]): r for r in table["rows"]}
    r = rows[(3, 2)]
    assert r["ample"] and r["h1"] == 1 and r["kvv_violation"]
    r = rows[(2, 2)]
    assert not r["ample"] and r["h1"] == 1 and not r["kvv_violation"]
    for (q1, q2), r in rows.items():
        if q2 == 0:
            assert r["h1"] == 0 and not r["kvv_violation"]


def test_sweep_has_violation_for_every_d_from_five():
    table = sweep_kvv(5, 12)
    for d in range(5, 13):
        assert any(r["kvv_violation"] for r in table["rows"] if r["d"] == d)


def test_sweep_row_ordering_and_count():
    table = sweep_kvv(3, 5)
    keys = [(r["d"], r["q1"], r["q2"]) for r in table["rows"]]
    assert keys == sorted(keys)
    assert len(table["rows"]) == sum(
        (d + 1) * (d + 2) // 2 for d in range(3, 6)
    )


def test_sweep_row_count_is_the_closed_form():
    for d_min in range(3, 13):
        for d_max in range(d_min, 13):
            assert sweep_rows(d_min, d_max) == len(sweep_kvv(d_min, d_max)["rows"])


@pytest.mark.parametrize("d", [10, 20])
def test_sweep_builds_a_constant_number_of_fractions_per_row(monkeypatch, d):
    # a deterministic counter, not a clock: a row carries integer numerators
    # from the family divisor to chi, and builds a Fraction only for the
    # values it compares (7 per row, whatever d is); T(d) is built outside
    # the count, once per d
    cohom.target_context(d)
    real_new = Fraction.__new__
    built = 0

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    rows = sweep_kvv(d, d)["rows"]
    monkeypatch.undo()
    assert len(rows) == sweep_rows(d, d)
    assert built <= 8 * len(rows)


class _FirstContraction(Exception):
    pass


def _first_contraction(d):
    raise _FirstContraction(d)


@pytest.mark.parametrize("d_min, d_max", [(3, 40), (3, 42), (80, 80), (6, 13)])
def test_sweep_budget_admits(monkeypatch, d_min, d_max):
    # the window gets past the budget to its first contraction
    monkeypatch.setattr(scenarios, "target_context", _first_contraction)
    with pytest.raises(_FirstContraction):
        sweep_kvv(d_min, d_max)


@pytest.mark.parametrize(
    "d_min, d_max, rows, work",
    [(3, 45, 17_286, 1_184_736), (100, 100, 5_151, 1_035_351), (171, 171, 14_878, 5_103_154)],
)
def test_sweep_budget_bounds_work_not_rows(monkeypatch, d_min, d_max, rows, work):
    # work is the sum over d of rows(d) * (2d+1); [171, 171] has fewer rows
    # than the admitted [3, 42] but five times its work
    monkeypatch.setattr(scenarios, "target_context", _first_contraction)
    assert sweep_rows(d_min, d_max) == rows
    with pytest.raises(ValueError) as err:
        sweep_kvv(d_min, d_max)
    assert str(err.value) == (
        f"work<=SWEEP_MAX_WORK: window [{d_min}, {d_max}] has {rows} rows and "
        f"{work} units of work, above the limit of {SWEEP_MAX_WORK}"
    )


def test_sweep_refuses_d_above_max_d_before_summing(monkeypatch):
    monkeypatch.setattr(scenarios, "target_context", _first_contraction)
    with pytest.raises(ValueError, match=r"^d must be <= 200, got 1000000000$"):
        sweep_kvv(3, 10**9)


def test_sweep_keeps_one_target_context():
    sweep_kvv(3, 8)
    info = cohom.target_context.cache_info()
    assert (info.maxsize, info.currsize) == (1, 1)


def test_sweep_rejects_bad_range():
    with pytest.raises(ValueError, match=r"^3<=d_min<=d_max: \(2, 5\)$"):
        sweep_kvv(2, 5)
    with pytest.raises(ValueError, match=r"^3<=d_min<=d_max: \(6, 5\)$"):
        sweep_kvv(6, 5)


def _sweep_csv(d_min, d_max):
    """The CSV that `conekit sweep` prints for the window."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["sweep", "--d-min", str(d_min), "--d-max", str(d_max)]) == 0
    return out.getvalue()


def test_sweep_csv_shape():
    text = _sweep_csv(3, 3)
    lines = text.strip().split("\n")
    assert lines[0] == "d,q1,q2,ample,h1,kvv_violation"
    assert lines[1] == "3,0,0,false,0,false"
    assert text.endswith("\n")


# --- determinism ------------------------------------------------------------------


def test_reports_are_byte_stable():
    a = json.dumps(verify_plt_nonnormal(5, 3))
    b = json.dumps(verify_plt_nonnormal(5, 3))
    assert a.encode() == b.encode()
    a = json.dumps(verify_bad_fano(2))
    b = json.dumps(verify_bad_fano(2))
    assert a.encode() == b.encode()
    assert _sweep_csv(3, 6).encode() == _sweep_csv(3, 6).encode()
