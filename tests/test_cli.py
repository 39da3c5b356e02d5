import ast
import contextlib
import errno
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import argparse

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conekit import cli, cohom, cone3fold, km_surface, scenarios
from conekit.cli import build_parser, main, parse_divisor
from conekit.cohom import CohStatus
from conekit.cone3fold import KVV_MAX_STEPS
from conekit.contract import Contraction
from conekit.km_surface import MAX_D
from conekit.qlattice import NamedDivisor, pair, pair_canonical
from conekit.scenarios import SWEEP_MAX_WORK

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN_CASES = [
    ("km_surface_d5_check", ["km-surface", "--d", "5", "--check"]),
    ("km_surface_d3_md", ["km-surface", "--d", "3", "--format", "md"]),
    (
        "km_surface_d3_check_md",
        ["km-surface", "--d", "3", "--check", "--format", "md"],
    ),
    ("contract_pullback", ["contract", "--d", "5", "--pullback", "E_1^T"]),
    (
        "contract_queries",
        ["contract", "--d", "5", "--pushforward", "1/2*Gamma+E_1",
         "--ample", "E_1+E_2-E_3", "--target-intersect", "E_1", "E_2"],
    ),
    (
        "contract_tables",
        ["contract", "--d", "5", "--discrepancies", "--classify", "--picard-rank"],
    ),
    (
        "contract_tables_md",
        ["contract", "--d", "5", "--discrepancies", "--classify", "--picard-rank",
         "--format", "md"],
    ),
    ("cohom_532", ["cohom", "--d", "5", "--q1", "3", "--q2", "2"]),
    (
        "cohom_532_md",
        ["cohom", "--d", "5", "--q1", "3", "--q2", "2", "--format", "md"],
    ),
    (
        "cohom_subtract_csv",
        ["cohom", "--d", "5", "--q1", "3", "--q2", "1", "--n", "1",
         "--subtract", "E_5", "--format", "csv"],
    ),
    ("cone_curve", ["cone", "--d", "5", "--q", "3", "--ledger", "curve"]),
    (
        "cone_curve_md",
        ["cone", "--d", "5", "--q", "3", "--ledger", "curve", "--format", "md"],
    ),
    ("cone_sections", ["cone", "--d", "5", "--q", "3", "--ledger", "sections"]),
    (
        "cone_sections_md",
        ["cone", "--d", "5", "--q", "3", "--ledger", "sections", "--format", "md"],
    ),
    ("cone_resolution", ["cone", "--d", "5", "--q", "3", "--ledger", "resolution"]),
    (
        "cone_resolution_md",
        ["cone", "--d", "5", "--q", "3", "--ledger", "resolution", "--format", "md"],
    ),
    ("cone_picard", ["cone", "--d", "5", "--q", "3", "--ledger", "picard"]),
    (
        "cone_picard_md",
        ["cone", "--d", "5", "--q", "3", "--ledger", "picard", "--format", "md"],
    ),
    ("cone_adjunction", ["cone", "--d", "5", "--q", "3", "--ledger", "adjunction"]),
    (
        "cone_adjunction_md",
        ["cone", "--d", "5", "--q", "3", "--ledger", "adjunction", "--format", "md"],
    ),
    (
        "kvv_schedule",
        ["kvv-schedule", "--e", "1,2", "--delta", "0,0", "--target", "3"],
    ),
    (
        "kvv_schedule_md",
        ["kvv-schedule", "--e", "1,2", "--delta", "0,0", "--target", "3",
         "--format", "md"],
    ),
    ("verify_plt_53", ["verify", "plt", "--d", "5", "--q", "3"]),
    ("verify_plt_53_md", ["verify", "plt", "--d", "5", "--q", "3", "--format", "md"]),
    ("verify_fano_2", ["verify", "fano", "--q", "2"]),
    ("verify_fano_2_md", ["verify", "fano", "--q", "2", "--format", "md"]),
    ("sweep_csv", ["sweep", "--d-min", "3", "--d-max", "5"]),
    ("sweep_md", ["sweep", "--d-min", "3", "--d-max", "5", "--format", "md"]),
    ("sweep_csv_full", ["sweep", "--d-min", "3", "--d-max", "12"]),
    ("sweep_json", ["sweep", "--d-min", "3", "--d-max", "4", "--format", "json"]),
]


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_cli_output_matches_golden_and_is_stable(name, argv):
    code1, out1 = run_cli(argv)
    code2, out2 = run_cli(argv)
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()
    golden = GOLDEN_DIR / f"{name}.txt"
    if os.environ.get("REGEN_GOLDEN"):
        golden.write_bytes(out1.encode())
    assert golden.read_bytes() == out1.encode()


def _format_choices(parser, path=()):
    """Yield (command path, --format choice) for every leaf of the parser tree."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _format_choices(child, path + (name,))
        elif action.dest == "format":
            for choice in action.choices:
                yield path, choice


def _command_path(args) -> tuple[str, ...]:
    scenario = getattr(args, "scenario", None)
    return (args.command,) if scenario is None else (args.command, scenario)


def test_every_command_and_format_has_a_golden():
    parser = build_parser()
    pinned = set()
    for _, argv in GOLDEN_CASES:
        args = parser.parse_args(argv)
        pinned.add((_command_path(args), args.format))
    expected = set(_format_choices(parser))
    assert expected, "parser exposes no --format option"
    assert expected - pinned == set()


def test_verify_exit_codes():
    code, _ = run_cli(["verify", "plt", "--d", "5", "--q", "3"])
    assert code == 0
    code, _ = run_cli(["verify", "fano", "--q", "1"])
    assert code == 0


def test_usage_error_exit_code_from_preconditions():
    code, _ = run_cli(["verify", "plt", "--d", "4", "--q", "3"])
    assert code == 2
    code, _ = run_cli(["km-surface", "--d", "2"])
    assert code == 2
    code, _ = run_cli(["cone", "--d", "6", "--q", "4"])  # unit-fraction failure
    assert code == 2


def test_kvv_schedule_over_the_step_budget_is_a_usage_error(capsys):
    assert main(["kvv-schedule", "--e", "1", "--target", "10000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: schedule needs 10000000 steps, above the limit of "
        f"{KVV_MAX_STEPS}\n"
    )


@pytest.mark.parametrize(
    "e, shown",
    [
        ("1.5", "1.5"), ("x", "x"), ("1,2.5", "1,2.5"), ("0", "(0,)"),
        ("2,,3", "2,,3"), ("2,3,", "2,3,"),
    ],
)
def test_kvv_schedule_bad_multiplicity_is_a_usage_error(capsys, e, shown):
    assert main(["kvv-schedule", "--e", e, "--target", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: multiplicities must be positive integers: {shown}\n"
    assert "invalid literal" not in captured.err
    assert "Fraction(" not in captured.err


def test_kvv_schedule_empty_delta_item_is_a_usage_error(capsys):
    # an empty item is a malformed rational, as "x" is, not a skipped one
    argv = ["kvv-schedule", "--e", "2,3", "--delta", "1/2,,0", "--target", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Invalid literal for Fraction: ''\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["contract", "--d", "5", "--pullback", "1/0*E_1"],
        ["kvv-schedule", "--e", "1", "--target", "1/0"],
        ["kvv-schedule", "--e", "1", "--delta", "1/0", "--target", "1"],
    ],
    ids=["pullback", "target", "delta"],
)
def test_zero_denominator_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: zero denominator in rational: '1/0'\n"


@pytest.mark.parametrize(
    "argv, literal",
    [
        (["kvv-schedule", "--e", "1", "--target", "1e30000000"], "1e30000000"),
        (["kvv-schedule", "--e", "1", "--delta", "1e400", "--target", "1"], "1e400"),
    ],
    ids=["target", "delta"],
)
def test_exponent_notation_is_a_usage_error(capsys, argv, literal):
    # refused before Fraction builds the power of ten
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: exponent notation in rational: {literal!r}\n"


@pytest.mark.parametrize(
    "argv, d",
    [
        (["km-surface", "--d", str(MAX_D + 1), "--check"], MAX_D + 1),
        (["verify", "plt", "--d", str(MAX_D + 1), "--q", "3"], MAX_D + 1),
        (["verify", "fano", "--q", "50"], 4 * 50 + 2),
        (["cohom", "--d", str(MAX_D + 1), "--q1", "1", "--q2", "0"], MAX_D + 1),
        (["cone", "--d", str(MAX_D + 1), "--q", "3", "--ledger", "sections"], MAX_D + 1),
        (["contract", "--d", str(MAX_D + 1), "--pullback", "E_1"], MAX_D + 1),
        # refused before the sweep sums the work of 10^9 values of d
        (["sweep", "--d-min", "3", "--d-max", "1000000000"], 1000000000),
    ],
    ids=["km-surface", "verify-plt", "verify-fano", "cohom", "cone", "contract", "sweep"],
)
def test_d_over_the_budget_is_refused_before_any_lattice(monkeypatch, capsys, argv, d):
    replayed = []
    monkeypatch.setattr(km_surface, "replay", lambda *args: replayed.append(args))
    assert d > MAX_D
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert replayed == []
    assert captured.out == ""
    assert captured.err == f"error: d must be <= {MAX_D}, got {d}\n"


def test_kvv_schedule_errors_render_rationals(capsys):
    argv = ["kvv-schedule", "--e", "1,1", "--delta", "1/2,1000", "--target", "1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: initial coefficients must lie in [0,1): [1/2, 1000]\n"
    )


def test_json_hook_renders_fractions_and_refuses_other_objects():
    assert cli._rat_json(Fraction(1, 2)) == "1/2"
    assert cli._rat_json(Fraction(3)) == "3"
    assert cli._json({"b": Fraction(1, 2), "m": 3}) == '{\n  "b": "1/2",\n  "m": 3\n}'
    # an object leaked into a payload fails loudly instead of printing its
    # repr; json.dumps would print the float and the tuple
    for leaked in (NamedDivisor.of({"E_1": 1}), CohStatus.exact(1), 0.5, (1, 2)):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            cli._rat_json(leaked)
        with pytest.raises(TypeError):
            cli._json({"value": [leaked]})
    with pytest.raises(TypeError):
        cli._json({1: "one"})
    # int-to-str digit limit: a usage error (exit 2), as for json.dumps
    with pytest.raises(ValueError):
        cli._json([10 ** (sys.get_int_max_str_digits() + 1)])


_JSON_TEXT = st.one_of(
    st.text(),
    st.sampled_from(
        ['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "é", "\U0001f600", "a\"b\\c\n"]
    ),
)
_JSON_LEAF = st.one_of(
    _JSON_TEXT,
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.booleans(),
    st.none(),
    st.fractions(),
)
_PAYLOADS = st.recursive(
    _JSON_LEAF,
    lambda inner: (
        st.lists(inner, max_size=5) | st.dictionaries(_JSON_TEXT, inner, max_size=5)
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_PAYLOADS)
def test_json_writer_matches_json_dumps(payload):
    assert cli._json(payload) == json.dumps(payload, indent=2, default=cli._rat_json)


def _payload_of(monkeypatch, argv):
    """The payload a command hands to ``_write``, with its exit code."""
    payloads = []
    monkeypatch.setattr(
        cli, "_write", lambda args, payload, **views: payloads.append(payload)
    )
    code = main(argv)
    assert len(payloads) == 1
    return code, payloads[0]


# every --format json leaf of the parser tree has a golden case
# (test_every_command_and_format_has_a_golden)
_JSON_CASES = [
    argv for _, argv in GOLDEN_CASES if build_parser().parse_args(argv).format == "json"
]


@pytest.mark.parametrize(
    "argv",
    [*_JSON_CASES, ["kvv-schedule", "--e", "2,4", "--delta", "1/2,0", "--target", "300"]],
    ids=lambda argv: "-".join(a.lstrip("-") for a in argv[:2] + argv[-1:]),
)
def test_json_writer_matches_json_dumps_on_command_payloads(monkeypatch, argv):
    code, payload = _payload_of(monkeypatch, argv)
    assert code == 0
    if argv[-1] == "300":
        assert len(payload["steps"]) == 1800
        assert any(step["mu"] == "0" for step in payload["steps"])  # tie steps
    assert cli._json(payload) == json.dumps(payload, indent=2, default=cli._rat_json)


@pytest.mark.parametrize(
    "path", sorted(Path(cli.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_source_has_no_second_json_serializer(path):
    # _json is the one writer; json.dumps stays in the tests, as its oracle
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            assert (node.value.id, node.attr) != ("json", "dumps"), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            assert "dumps" not in {alias.name for alias in node.names}, node.lineno


def _floats(value, path="payload"):
    """Paths of every float in a payload; ``json`` would print each one
    without passing it through the Fraction hook."""
    if isinstance(value, float):
        yield path
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _floats(item, f"{path}[{key!r}]")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _floats(item, f"{path}[{i}]")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "plt", "--d", "5", "--q", "3"],
        ["verify", "fano", "--q", "2"],
        ["sweep", "--d-min", "3", "--d-max", "6", "--format", "json"],
        *(
            ["cone", "--d", "7", "--q", "3", "--ledger", ledger]
            for ledger in ("curve", "sections", "resolution", "picard", "adjunction")
        ),
        ["contract", "--d", "7", "--pullback", "E_1+1/3*E_2-F", "--discrepancies",
         "--classify", "--boundary", "1/2*E_3", "--target-intersect", "E_1", "1/5*E_2"],
        ["cohom", "--d", "5", "--q1", "3", "--q2", "2", "--n", "2"],
    ],
    ids=lambda argv: "-".join(a.lstrip("-") for a in argv[:2] + argv[-1:]),
)
def test_payloads_hold_no_float(monkeypatch, argv):
    code, payload = _payload_of(monkeypatch, argv)
    assert code == 0
    assert list(_floats(payload)) == []


def test_lattice_results_are_fractions():
    # an int would print as -6 where the goldens have "-6"
    psi = cohom.target_context(7)
    reg = psi.registry
    entries = [x for row in psi.gram_inverse.values() for x in row.values()]
    pulled = psi.pullback(NamedDivisor.of({"E_1": 1, "E_2": Fraction(1, 3), "F": -1}))
    D = NamedDivisor.of({"E_1": 2, "l_1": 1})
    values = [
        *entries,
        *pulled.terms.values(),
        *psi.relative_canonical().values(),
        km_surface.build_km_surface(5).pairing("Gamma", "Gamma"),
        pair(reg, D, D),
        pair(reg, D, NamedDivisor.zero()),
        pair_canonical(reg, D),
        psi.degree(NamedDivisor.of({"E_1": 1})),
        psi.target_intersect(NamedDivisor.of({"E_1": 1}), NamedDivisor.of({"E_2": 1})),
    ]
    assert len(entries) == 2 * 7 + 1
    assert [type(x) for x in values] == [Fraction] * len(values)


def test_sweep_over_the_work_budget_is_refused_before_any_contraction(
    monkeypatch, capsys
):
    # one d = 171 has fewer rows than the admitted [3, 42], but more work
    built = []
    monkeypatch.setattr(scenarios, "target_context", built.append)
    assert main(["sweep", "--d-min", "171", "--d-max", "171"]) == 2
    captured = capsys.readouterr()
    assert built == []
    assert captured.out == ""
    rows = scenarios.sweep_rows(171, 171)
    assert captured.err == (
        f"error: work<=SWEEP_MAX_WORK: window [171, 171] has {rows} rows and "
        f"{rows * (2 * 171 + 1)} units of work, above the limit of {SWEEP_MAX_WORK}\n"
    )


@pytest.mark.parametrize("zeros", [4300, 4400])
def test_literal_over_the_digit_limit_is_a_usage_error(capsys, zeros):
    literal = "1" + "0" * zeros
    assert main(["kvv-schedule", "--e", "1", "--target", literal]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: rational literal has {zeros + 1} characters, above the limit of "
        f"{sys.get_int_max_str_digits()}\n"
    )


def test_step_count_too_long_for_decimal_is_shown_as_a_power_of_two(capsys):
    # 10^4299 steps: 4300 digits, within the literal limit
    literal = "1" + "0" * 4299
    assert main(["kvv-schedule", "--e", "1", "--target", literal]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    bits = (10**4299).bit_length()
    assert captured.err == (
        f"error: schedule needs at least 2^{bits - 1} steps, above the limit of "
        f"{KVV_MAX_STEPS}\n"
    )


@pytest.mark.parametrize(
    "e, zeros, target, den",
    [
        # a 4,300-character delta: D = lcm(10^4 * 10^4297) has 4,302 digits
        ("10000", 4297, "1", 10**4301),
        # D = 10^4297 fits, but lambda's numerators reach 1000 * D
        ("1", 4297, "1000", 10**4297),
    ],
    ids=["denominator", "numerators"],
)
def test_schedule_denominator_over_the_digit_limit_is_a_usage_error(
    capsys, e, zeros, target, den
):
    delta = "1/1" + "0" * zeros
    assert main(["kvv-schedule", "--e", e, "--delta", delta, "--target", target]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: schedule denominator is at least 2^{den.bit_length() - 1}: numbers "
        f"over it would exceed the limit of {sys.get_int_max_str_digits()} decimal "
        "digits\n"
    )


def _internal_check_fails(capsys, argv, message):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: internal check failed: {message}\n"


def test_wrong_cohom_closed_form_is_an_internal_failure(monkeypatch, capsys):
    # t = floor((q1-q2)/(2d-4)) one too high: the closed forms disagree with
    # the lattice (t = 1 for 0 gives square -9 for -5 and dot -3 for 1)
    real = cohom._family_shift
    monkeypatch.setattr(cohom, "_family_shift", lambda fam: real(fam) + 1)
    _internal_check_fails(
        capsys,
        ["cohom", "--d", "5", "--q1", "3", "--q2", "2"],
        "floor-pullback closed forms disagree with the lattice at "
        "FamilyDescriptor(d=5, q1=3, q2=2): square -5 vs -9, dot 1 vs -3",
    )


def test_wrong_riemann_roch_is_an_internal_failure(monkeypatch, capsys):
    # Riemann-Roch one too high: chi of the floor no longer meets the closed form
    real = cohom._riemann_roch
    monkeypatch.setattr(cohom, "_riemann_roch", lambda x: real(x) + 1)
    _internal_check_fails(
        capsys,
        ["cohom", "--d", "5", "--q1", "3", "--q2", "2"],
        "chi closed form -1 != Riemann-Roch 0 at FamilyDescriptor(d=5, q1=3, q2=2)",
    )


def test_inconsistent_family_table_is_an_internal_failure(monkeypatch, capsys):
    # h0 = h2 = 1 where the table certifies 0: 1 - 0 + 1 != chi = 0
    monkeypatch.setattr(CohStatus, "zero", staticmethod(lambda: CohStatus.exact(1)))
    _internal_check_fails(
        capsys,
        ["cohom", "--d", "6", "--q1", "4", "--q2", "1"],
        "Euler consistency failed at FamilyDescriptor(d=6, q1=4, q2=1): "
        "CohomReport(h0=CohStatus(kind='exact', value=1), "
        "h1=CohStatus(kind='exact', value=0), "
        "h2=CohStatus(kind='exact', value=1), chi=0, "
        "certificates=('chi:closed-form', 'chi:riemann-roch-on-floor-pullback', "
        "'h0:no-sections-by-fibre-restriction', 'h2:duality-to-no-sections', "
        "'h1:rank-one-family-table(q1>=q2>0)'))",
    )


def test_euler_failure_prints_a_lower_bound_entry(monkeypatch, capsys):
    # the q2 = 0 < q1 row holds h0 >= 1, whose record has no value
    monkeypatch.setattr(cohom.CohomReport, "euler_consistent", lambda self: False)
    _internal_check_fails(
        capsys,
        ["cohom", "--d", "5", "--q1", "2", "--q2", "0"],
        "Euler consistency failed at FamilyDescriptor(d=5, q1=2, q2=0): "
        "CohomReport(h0=CohStatus(kind='at_least_one', value=None), "
        "h1=CohStatus(kind='exact', value=0), "
        "h2=CohStatus(kind='exact', value=0), chi=1, "
        "certificates=('chi:closed-form', 'chi:riemann-roch-on-floor-pullback', "
        "'h0:effective-floor', 'h2:duality-to-no-sections', "
        "'h1:rank-one-family-table(q2=0)'))",
    )


def test_wrong_cone_closed_form_is_an_internal_failure(monkeypatch, capsys):
    # c_C = (-C^2 - m_C)/(-C^2), without the factor 2: the uniform crepant
    # sum at i = 1 is c_Gamma/m_Gamma = (1/2)/3, the printed form
    # 0 + (1-2)/2 + (1-2)/2 with m = 3, 2, 2 for Gamma, l_1, lp_1
    def crepant(self):
        return {
            name: Fraction(-self.surface.pairing(name, name) - self.mc[name],
                           -self.surface.pairing(name, name))
            for name in self.psi.contracted
        }

    monkeypatch.setattr(cone3fold.ConeModel, "crepant_coefficients", property(crepant))
    _internal_check_fails(
        capsys,
        ["cone", "--d", "5", "--q", "3", "--ledger", "adjunction"],
        "crepant sum mismatch at i=1: uniform 1/6 vs printed -1",
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["cone", "--d", "25", "--q", "3", "--ledger", "sections"],
        ["verify", "plt", "--d", "25", "--q", "3"],
    ],
    ids=["cone-sections", "verify-plt"],
)
def test_surface_classification_runs_once_per_command(monkeypatch, argv):
    calls = []
    real = Contraction.classify_singularities

    def spy(self, boundary=None):
        calls.append(boundary)
        return real(self, boundary)

    monkeypatch.setattr(Contraction, "classify_singularities", spy)
    code, _ = run_cli(argv)
    assert code == 0
    assert calls == [None]


def test_argparse_usage_error():
    with pytest.raises(SystemExit) as err:
        run_cli(["verify", "plt", "--d", "5"])
    assert err.value.code == 2


def test_sweep_out_writes_file(tmp_path):
    out = tmp_path / "sweep.csv"
    code, text = run_cli(["sweep", "--d-min", "3", "--d-max", "4", "--out", str(out)])
    assert code == 0
    assert text == ""
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "d,q1,q2,ample,h1,kvv_violation"
    assert len(lines) == 1 + 10 + 15


@pytest.mark.parametrize(
    "target, reason",
    [("missing/sweep.csv", errno.ENOENT), (".", errno.EISDIR)],
    ids=["missing-directory", "directory"],
)
def test_sweep_out_unwritable_is_a_usage_error(tmp_path, capsys, target, reason):
    out = tmp_path / target
    assert main(["sweep", "--d-min", "3", "--d-max", "3", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out}: {os.strerror(reason)}\n"


class _FullStdout(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_stdout_unwritable_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    argv = ["kvv-schedule", "--e", "1,7,10", "--delta", "2/3,2/5,5/6"]
    assert main([*argv, "--target", "278"]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ["kvv-schedule", "--e", "1,7,10", "--delta", "2/3,2/5,5/6", "--target", "278"],
        ["verify", "plt", "--d", "5", "--q", "3"],
    ],
    ids=["kvv-schedule", "verify-plt"],
)
def test_full_device_on_stdout_exits_2_without_traceback(argv):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "conekit.cli", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


def test_parse_divisor():
    assert parse_divisor("E_1+E_2-E_4") == NamedDivisor.of(
        {"E_1": 1, "E_2": 1, "E_4": -1}
    )
    assert parse_divisor("2*E_1") == NamedDivisor.of({"E_1": 2})
    assert parse_divisor("1/2*l_3-Gamma") == NamedDivisor.of(
        {"l_3": Fraction(1, 2), "Gamma": -1}
    )
    assert parse_divisor("E_1^T") == NamedDivisor.of({"E_1": 1})
    assert parse_divisor("0").is_zero()
    with pytest.raises(ValueError):
        parse_divisor("E_1++")
