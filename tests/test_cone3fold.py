from fractions import Fraction
from math import ceil

import pytest

from conekit.cohom import FamilyDescriptor, family_divisor, target_context
from conekit import cli, cone3fold, qlattice
from conekit.cone3fold import (
    KVV_MAX_STEPS,
    ConeModel,
    adjunction_consistency,
    cone_curve_numbers,
    kvv_schedule,
    picard_chain,
    plt_coefficient_b,
    resolution_ledger,
    section_numbers,
    validate_assumption_a,
)
from conekit.qlattice import (
    InvariantError,
    NamedDivisor,
    class_of,
    intersect,
)


def plt_model(d: int, q: int) -> ConeModel:
    return ConeModel.build(target_context(d), family_divisor(FamilyDescriptor(d, q, 1)))


def fano_model(q: int) -> ConeModel:
    d = 4 * q + 2
    return ConeModel.build(
        target_context(d), family_divisor(FamilyDescriptor(d, 3 * q, q))
    )


M53 = plt_model(5, 3)


# --- assumption validation ------------------------------------------------------


def test_m_table_plt_d5_q3():
    expected = {"Gamma": 3}
    for i in range(1, 5):
        expected[f"l_{i}"] = 2
        expected[f"lp_{i}"] = 2
    expected["l_5"] = 1
    expected["lp_5"] = 1
    assert M53.mc == expected


def test_m_gamma_bad_fano_is_four():
    for q in (1, 2, 3):
        assert fano_model(q).mc["Gamma"] == 4


def test_m_table_for_doubled_single_curve():
    psi = target_context(5)
    table = validate_assumption_a(psi, psi.pullback(NamedDivisor.of({"E_1": 2})))
    assert table["Gamma"] == 3  # fractional coefficient 2/6 = 1/3
    assert table["l_1"] == 1  # coefficient 1 after doubling
    assert table["l_2"] == 1


def test_assumption_violation_reports_curve():
    A = family_divisor(FamilyDescriptor(6, 4, 1))  # Gamma coefficient 3/8
    with pytest.raises(
        ValueError, match=r"^fractional coefficient of Gamma is 3/8, not a unit fraction$"
    ):
        validate_assumption_a(target_context(6), target_context(6).pullback(A))


def test_unit_fraction_acceptance_tracks_divisibility():
    # accepted exactly when q-1 divides 2d-4
    for d, q in ((5, 3), (8, 3), (5, 4), (12, 6)):
        assert (2 * d - 4) % (q - 1) == 0
        plt_model(d, q)
    for d, q, coefficient in ((6, 4, "3/8"), (7, 5, "2/5")):
        assert (2 * d - 4) % (q - 1) != 0
        with pytest.raises(
            ValueError,
            match=rf"^fractional coefficient of Gamma is {coefficient}, not a unit fraction$",
        ):
            plt_model(d, q)


def test_non_ample_polarization_rejected():
    with pytest.raises(ValueError, match=r"^polarization is not ample: 0$"):
        ConeModel.build(target_context(5), NamedDivisor.zero())


# --- curve ledger ---------------------------------------------------------------


def test_k_dot_section_curves():
    assert cone_curve_numbers(M53, "Gamma")["k_dot_section_curve"] == Fraction(6 - 6, 3)
    assert cone_curve_numbers(M53, "l_1")["k_dot_section_curve"] == Fraction(2 - 4, 2)
    assert cone_curve_numbers(M53, "l_5")["k_dot_section_curve"] == 0


def test_section_curve_squares_and_disjointness():
    for name in M53.psi.contracted:
        rec = cone_curve_numbers(M53, name)
        assert rec["section_curve_square_in_fibre"] == 0
        assert rec["section_dot_section_curve"] == 0


def test_curve_ledger_rejects_uncontracted():
    with pytest.raises(ValueError, match=r"^E_1 is not contracted$"):
        cone_curve_numbers(M53, "E_1")


def test_crepant_coefficients():
    crepant = M53.crepant_coefficients
    assert crepant["Gamma"] == 0
    assert crepant["l_1"] == -1
    assert crepant["l_5"] == 0


def test_fibre_divisor_discrepancy_over_contracted_threefold_is_klt():
    # log discrepancy 1 - c_C = 2 m_C / (-C^2) stays positive everywhere
    for model in (M53, plt_model(8, 3), fano_model(1), fano_model(2)):
        for name, c in model.crepant_coefficients.items():
            assert 1 - c > 0
            assert 1 - c == Fraction(2 * model.mc[name], -model.surface.pairing(name, name))


# --- section ledger -------------------------------------------------------------


def test_fibre_degree_constant_over_grid():
    for model in (plt_model(5, 3), plt_model(8, 3), plt_model(12, 3), fano_model(1), fano_model(2)):
        d = model.d
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                rec = section_numbers(model, i, j)
                assert rec["e_y_dot_f_e"] == Fraction(1, 2 * d - 4)


def test_section_polarization_degrees():
    rec = section_numbers(M53, 5, 5)
    assert rec["polarization_dot_e_i"] == Fraction(1, 3)
    assert rec["s_plus_dot_e_plus_j"] == Fraction(1, 3)
    assert rec["s_minus_dot_e_minus_j"] == Fraction(-1, 3)


def test_k_x_section_sum_rule():
    # the polarization parts cancel in the +/- sum
    for i in range(1, 6):
        rec = section_numbers(M53, i, i)
        defects = (
            Fraction(M53.mc["Gamma"] - 1, M53.mc["Gamma"])
            + Fraction(M53.mc[f"l_{i}"] - 1, M53.mc[f"l_{i}"])
            + Fraction(M53.mc[f"lp_{i}"] - 1, M53.mc[f"lp_{i}"])
        )
        assert rec["k_x_dot_e_plus"] + rec["k_x_dot_e_minus"] == 2 * (defects - 1)


def test_polarization_dot_e_pairs_once_per_index(monkeypatch):
    model = plt_model(8, 3)
    pulled = model.psi.pullback(model.polarization)
    paired = []
    real = qlattice.pair

    def spy(reg, D1, D2):
        if D2 == pulled:
            paired.append(D1)
        return real(reg, D1, D2)

    # cone3fold reads pair from its lazy qlattice handle at each call
    monkeypatch.setattr(qlattice, "pair", spy)
    adjunction_consistency(model)
    for i in range(1, model.d + 1):
        section_numbers(model, i, i)
        plt_coefficient_b(model, i)
    expected = [NamedDivisor.of({f"E_{i}": 1}) for i in range(1, model.d + 1)]
    assert paired == expected
    # an index outside 1..d raises on every call; nothing is cached for it
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^unknown curve name: 'E_9'$"):
            model.polarization_dot_e(model.d + 1)


def test_section_index_out_of_range():
    with pytest.raises(ValueError, match=r"^section indices out of range 1\.\.5: \(0, 1\)$"):
        section_numbers(M53, 0, 1)
    with pytest.raises(ValueError, match=r"^section indices out of range 1\.\.5: \(1, 6\)$"):
        section_numbers(M53, 1, 6)


# --- boundary coefficient -------------------------------------------------------


def test_b_for_plt_d5_q3():
    got = plt_coefficient_b(M53, 5)
    assert got["b"] == Fraction(1, 2)
    assert got["plt"]


def test_b_closed_form_for_fresh_indices():
    for d, q in ((5, 3), (8, 3), (5, 4), (12, 6)):
        model = plt_model(d, q)
        for i in range(q + 2, d + 1):
            assert plt_coefficient_b(model, i)["b"] == Fraction(q - 2, q - 1)


def test_b_degenerates_to_zero():
    model = ConeModel.build(target_context(5), NamedDivisor.of({"E_1": 1}))
    # pullback(A).E_5 = 1/(2d-4) exactly, so the numerator vanishes
    assert model.polarization_dot_e(5) == Fraction(1, 6)
    assert plt_coefficient_b(model, 5)["b"] == 0


# --- resolution ledger ----------------------------------------------------------


def test_resolution_m3():
    rec = next(r for r in resolution_ledger(M53) if r["curve"] == "Gamma")
    assert rec["m"] == 3
    assert rec["f_plus_discrepancy"] == Fraction(1, 3)
    assert rec["mu_s_plus_coeff"] == Fraction(1, 3)
    assert rec["mu_s_minus_chain"] == [Fraction(2, 3), Fraction(1, 3)]
    assert rec["mu_r_f_plus"] == Fraction(1, 3)
    assert rec["mu_r_minus_chain"] == [Fraction(1, 3), Fraction(2, 3)]
    assert rec["dual_graph"] == "S~^- - F^-_1 - F^-_2 - R~_Gamma"


def test_resolution_m2():
    rec = next(r for r in resolution_ledger(M53) if r["curve"] == "l_1")
    assert rec["f_plus_discrepancy"] == 0
    assert rec["mu_s_minus_chain"] == [Fraction(1, 2)]
    assert rec["mu_r_minus_chain"] == [Fraction(1, 2)]
    assert rec["dual_graph"] == "S~^- - F^-_1 - R~_l_1"


def test_resolution_m4():
    model = fano_model(1)
    rec = next(r for r in resolution_ledger(model) if r["curve"] == "Gamma")
    assert rec["m"] == 4
    assert rec["f_plus_discrepancy"] == Fraction(1, 2)
    assert rec["mu_s_minus_chain"] == [Fraction(3, 4), Fraction(1, 2), Fraction(1, 4)]
    assert rec["mu_r_minus_chain"] == [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]


def test_resolution_skips_multiplicity_one():
    names = {r["curve"] for r in resolution_ledger(M53)}
    assert "l_5" not in names and "lp_5" not in names


# --- adjunction and ranks -------------------------------------------------------


def test_adjunction_consistency_plt_and_fano():
    for model in (M53, plt_model(8, 3), plt_model(12, 3), fano_model(1), fano_model(2)):
        report = adjunction_consistency(model)
        assert report["all_pass"], [c for c in report["checks"] if not c["pass"]]
        assert len(report["checks"]) == 2 * model.d + len(model.psi.contracted)


@pytest.mark.parametrize(
    "build",
    [lambda: plt_model(25, 3), lambda: plt_model(45, 3), lambda: fano_model(8)],
    ids=["plt-25-3", "plt-45-3", "fano-8"],
)
def test_ledger_pairings_match_dense_route(build):
    # the ledger reads the named pairing table; the dense class vectors of the
    # pulled-back divisors are the oracle
    model = build()
    psi, reg = model.psi, model.surface.registry
    lat = reg.lattice

    def dense(D, name):
        return intersect(lat, psi.pullback_class(D), reg.class_vector(name))

    for i in range(1, model.d + 1):
        e_i = NamedDivisor.of({f"E_{i}": 1})
        assert model.polarization_dot_e(i) == dense(model.polarization, f"E_{i}")
        assert section_numbers(model, i, i)["e_y_dot_f_e"] == dense(e_i, f"E_{i}")
    for name in psi.contracted:
        cls = reg.class_vector(name)
        assert model.surface.pairing(name, name) == intersect(lat, cls, cls)
    boundary = NamedDivisor.of({n: Fraction(m - 1, m) for n, m in model.mc.items()})
    adjoint = tuple(k + b for k, b in zip(lat.canonical, class_of(reg, boundary)))
    report = adjunction_consistency(model)
    assert len(report["checks"]) == 2 * model.d + len(psi.contracted)
    for check in report["checks"]:
        curve = check["name"].split(":")[1].split("^")[0]
        assert check["rhs"] == intersect(lat, adjoint, reg.class_vector(curve))


def test_picard_chain_values():
    assert tuple(picard_chain(M53).values()) == (12, 1, 13, 2, 1)
    model3 = ConeModel.build(target_context(3), NamedDivisor.of({"E_1": 1}))
    assert tuple(picard_chain(model3).values()) == (8, 1, 9, 2, 1)


def test_picard_chain_inconsistency_is_an_internal_failure(monkeypatch):
    monkeypatch.setattr(type(M53.psi), "picard_rank_after", lambda self: 2)
    with pytest.raises(
        InvariantError, match=r"^Picard chain inconsistent: \(12, 2, 13, 2, 1\)$"
    ):
        picard_chain(M53)


def test_rho_y_minus_rho_z_is_one():
    for model in (M53, fano_model(1)):
        chain = picard_chain(model)
        assert chain["rho_y"] - chain["rho_z"] == 1


# --- schedule -------------------------------------------------------------------


def _steps(trace):
    """(mu, chosen, lambda, delta) of every step, each rational read as
    Fraction(numerator, trace.den)."""
    den = trace.den
    return [
        (Fraction(mu, den), chosen, Fraction(lam, den),
         tuple(Fraction(x, den) for x in delta))
        for chosen, mu, lam, delta in trace.steps
    ]


def test_schedule_single_divisor():
    trace = kvv_schedule([1], [0], 3)
    assert [(mu, lam) for mu, _, lam, _ in _steps(trace)] == [
        (Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(2)),
        (Fraction(1), Fraction(3)),
    ]


def test_schedule_two_divisors_hand_iteration():
    trace = kvv_schedule([1, 2], [0, 0], 2)
    got = _steps(trace)
    half = Fraction(1, 2)
    assert got == [
        (half, 2, half, (half, Fraction(0))),
        (half, 1, Fraction(1), (Fraction(0), Fraction(1))),
        (Fraction(0), 2, Fraction(1), (Fraction(0), Fraction(0))),
        (half, 2, Fraction(3, 2), (half, Fraction(0))),
        (half, 1, Fraction(2), (Fraction(0), Fraction(1))),
    ]


def test_schedule_periodic_state_advances_lambda():
    trace = kvv_schedule([1, 2], [0, 0], 5)
    # one unit of lambda per period of three steps
    steps = _steps(trace)
    for k, (_, _, lam, delta) in enumerate(steps):
        _, _, base_lam, base_delta = steps[k % 3]
        assert lam == base_lam + k // 3
        assert delta == base_delta


def test_schedule_near_saturated_start():
    steps = _steps(kvv_schedule([2, 3], [Fraction(9, 10), Fraction(0)], 2))
    assert steps[0][0] == Fraction(1, 20)
    assert steps[-1][2] >= 2
    for _, _, _, delta in steps:
        assert all(0 <= x <= 1 for x in delta)


def test_schedule_reaches_target_on_acceptance_vectors():
    for e in ((1,), (1, 2), (1, 2, 3), (3, 3, 3)):
        steps = _steps(kvv_schedule(e, [0] * len(e), 10))
        assert steps[-1][2] >= 10
        for _, _, _, delta in steps:
            assert all(0 <= x <= 1 for x in delta)


def test_schedule_is_deterministic():
    a = kvv_schedule([1, 2, 3], [0, 0, 0], 10)
    b = kvv_schedule([1, 2, 3], [0, 0, 0], 10)
    assert a.to_json_dict() == b.to_json_dict()


def test_schedule_rejects_bad_inputs():
    with pytest.raises(ValueError, match=r"^multiplicities must be positive integers: \[0\]$"):
        kvv_schedule([0], [0], 1)
    with pytest.raises(ValueError, match=r"^initial coefficients must lie in \[0,1\): \[1\]$"):
        kvv_schedule([1], [1], 1)
    with pytest.raises(ValueError, match=r"^delta0 and multiplicities must have equal length$"):
        kvv_schedule([1, 2], [0], 1)
    # a non-integral multiplicity is refused, not truncated to an integer
    for e, shown in (([Fraction(3, 2)], "3/2"), ([1.5], "1.5"), ([2, Fraction(7, 3)], "2, 7/3")):
        with pytest.raises(ValueError) as err:
            kvv_schedule(e, [0] * len(e), 1)
        assert str(err.value) == f"multiplicities must be positive integers: [{shown}]"


def test_schedule_invariant_failure_renders_rationals(monkeypatch):
    # a heap that never advances fires index 2 again at the same lambda, so
    # its coefficient drops below zero within the first period (three steps)
    # and the invariant check reports it
    monkeypatch.setattr(cone3fold.heapq, "heapreplace", lambda heap, item: heap[0])
    with pytest.raises(InvariantError, match=r"^coefficient left") as err:
        kvv_schedule([1, 2], [0, Fraction(1, 2)], 2)
    assert str(err.value) == "coefficient left [0,1] at step 2: [1/4, -1]"


def test_schedule_period_certificate_catches_a_fault_inside_the_unit_interval(
    monkeypatch, capsys
):
    # a heap that advances each index two units at a time keeps the two steps
    # of the period inside [0,1], but the state after them is not the start
    # shifted by one: the period certificate refuses to shift it
    real = cone3fold.heapq.heapreplace
    monkeypatch.setattr(
        cone3fold.heapq,
        "heapreplace",
        lambda heap, item: real(heap, (2 * item[0] - heap[0][0], item[1])),
    )
    with pytest.raises(InvariantError) as err:
        kvv_schedule([1, 1], [0, 0], 3)
    assert str(err.value) == "schedule did not repeat after 2 steps"
    assert cli.main(["kvv-schedule", "--e", "1,1", "--target", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: internal check failed: schedule did not repeat after 2 steps\n"
    )


KM_E, KM_DELTA = [9, 9, 12, 6], [Fraction(2, 5), Fraction(1, 3), Fraction(4, 5), Fraction(4, 5)]


@pytest.mark.parametrize(
    "e, delta0, target, calls",
    [
        ([1, 2], [0, 0], 3, 3),  # the golden request: 8 steps
        (KM_E, KM_DELTA, 333, 36),  # 11,989 steps
        (KM_E, KM_DELTA, Fraction(1, 4), 10),  # 10 steps
    ],
    ids=["golden", "multi-period", "part-period"],
)
def test_schedule_runs_the_heap_for_one_period_at_most(
    monkeypatch, e, delta0, target, calls
):
    real = cone3fold.heapq.heapreplace
    seen = []

    def spy(heap, item):
        seen.append(item)
        return real(heap, item)

    monkeypatch.setattr(cone3fold.heapq, "heapreplace", spy)
    trace = kvv_schedule(e, delta0, target)
    assert len(seen) == calls == min(sum(e), len(trace.steps))


def test_schedule_refuses_an_over_budget_request_before_its_first_step(monkeypatch):
    def no_step(*args):
        raise AssertionError("a step was built")

    # the first step advances the heap (the heap runs for one period)
    monkeypatch.setattr(cone3fold.heapq, "heapreplace", no_step)
    # e = (1,) and target T take 1 + (ceil(T) - 1) = T steps
    with pytest.raises(ValueError, match=r"^schedule needs ") as err:
        kvv_schedule([1], [0], KVV_MAX_STEPS + 1)
    assert str(err.value) == (
        f"schedule needs {KVV_MAX_STEPS + 1} steps, above the limit of {KVV_MAX_STEPS}"
    )
    # at the limit the request is accepted and runs
    with pytest.raises(AssertionError, match="a step was built"):
        kvv_schedule([1], [0], KVV_MAX_STEPS)


def test_schedule_tiny_first_step_still_diverges():
    # a coefficient just below one forces a tiny first step
    steps = _steps(kvv_schedule([1, 1], [Fraction(999, 1000), Fraction(0)], 3))
    assert steps[0][0] == Fraction(1, 1000)
    assert steps[-1][2] >= 3


from hypothesis import given, settings
from hypothesis import strategies as st


@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_schedule_invariants_on_random_inputs(e, data):
    delta0 = [
        data.draw(st.fractions(min_value=0, max_value=Fraction(7, 8), max_denominator=8))
        for _ in e
    ]
    steps = _steps(kvv_schedule(e, delta0, 10))
    assert steps[-1][2] >= 10
    prev = Fraction(0)
    for mu, chosen, lam, delta in steps:
        assert mu >= 0
        assert lam >= prev  # lambda is nondecreasing
        prev = lam
        assert all(0 <= x <= 1 for x in delta)
        assert delta[chosen - 1] == 0  # the chosen coefficient resets


# --- schedule oracle ------------------------------------------------------------


def _stepwise_schedule(e, delta0, target):
    """The schedule by direct iteration in ``Fraction``s, independent of the
    closed form: raise every coefficient at rate e_i until one reaches 1 (the
    lowest index on ties), drop it by one, and stop once lambda >= target.
    Returns the (mu, chosen, lambda, delta) of every step."""
    delta = [Fraction(x) for x in delta0]
    lam = Fraction(0)
    steps = []
    while lam < target:
        mu = min((1 - dv) / ev for dv, ev in zip(delta, e))
        chosen = next(
            idx for idx, (dv, ev) in enumerate(zip(delta, e)) if (1 - dv) / ev == mu
        )
        delta = [dv + mu * ev for dv, ev in zip(delta, e)]
        assert all(0 <= dv <= 1 for dv in delta)
        delta[chosen] -= 1
        lam += mu
        steps.append((mu, chosen + 1, lam, tuple(delta)))
    return steps


def _stepwise_json(e, delta0, target, steps):
    return {
        "multiplicities": list(e),
        "delta0": [str(Fraction(x)) for x in delta0],
        "target": str(target),
        "steps": [
            {
                "j": j,
                "mu": str(mu),
                "chosen": chosen,
                "lambda": str(lam),
                "delta": [str(x) for x in delta],
            }
            for j, (mu, chosen, lam, delta) in enumerate(steps)
        ],
    }


def _closed_form_count(e, delta0, target):
    if target == 0:
        return 0
    return 1 + sum(ceil(target * ev + Fraction(dv)) - 1 for ev, dv in zip(e, delta0))


@given(
    st.lists(st.integers(min_value=1, max_value=13), min_size=1, max_size=5),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_schedule_matches_stepwise_oracle(e, data):
    # small denominators make coefficients reach 1 together (mu = 0 steps)
    delta0 = []
    for _ in e:
        p = data.draw(st.integers(min_value=1, max_value=6))
        delta0.append(Fraction(data.draw(st.integers(min_value=0, max_value=p - 1)), p))
    target = data.draw(
        st.fractions(min_value=0, max_value=12, max_denominator=6), label="target"
    )
    trace = kvv_schedule(e, delta0, target)
    expected = _stepwise_schedule(e, delta0, target)
    assert _steps(trace) == expected
    assert trace.to_json_dict() == _stepwise_json(e, delta0, target, expected)
    assert len(trace.steps) == _closed_form_count(e, delta0, target)


@pytest.mark.parametrize(
    "e, delta0, target, steps",
    [
        # 333 periods of 36 steps and one part period
        (KM_E, KM_DELTA, 333, 11989),
        # no period completes: 10 steps of a 36-step period
        (KM_E, KM_DELTA, Fraction(1, 4), 10),
        # every index fires at lambda = 1, 2, 3: the last three steps of each
        # 11-step period are at one lambda (two with mu = 0), and step 33
        # starts a fourth period at lambda 19/6
        ([2, 3, 6], [0, 0, 0], Fraction(7, 2), 37),
    ],
    ids=["multi-period", "part-period", "ties-at-one"],
)
def test_schedule_matches_stepwise_oracle_across_periods(e, delta0, target, steps):
    trace = kvv_schedule(e, delta0, target)
    expected = _stepwise_schedule(e, delta0, target)
    assert len(trace.steps) == len(expected) == steps
    assert _steps(trace) == expected
    payload = trace.to_json_dict()
    assert payload == _stepwise_json(e, delta0, target, expected)
    # a step one period on shares its coefficient tuple, and its payload
    # shares the delta list
    cycle = sum(e)
    for j in range(cycle, len(trace.steps)):
        assert trace.steps[j][3] is trace.steps[j - cycle][3]
        assert payload["steps"][j]["delta"] is payload["steps"][j - cycle]["delta"]


@pytest.mark.parametrize(
    "route, shown",
    [
        ("_period_steps", "schedule period gives 12001 steps, its closed form 12000"),
        ("_closed_form_steps", "schedule period gives 12000 steps, its closed form 12001"),
    ],
    ids=["period", "closed-form"],
)
def test_schedule_step_count_routes_must_agree(monkeypatch, capsys, route, shown):
    # the count from the period's numerators and the closed form by index
    # are independent: one step off on either side is an internal failure,
    # raised before any output
    real = getattr(cone3fold, route)
    monkeypatch.setattr(cone3fold, route, lambda *args: real(*args) + 1)
    with pytest.raises(InvariantError) as err:
        kvv_schedule([2, 4], [Fraction(1, 2), 0], 2000)
    assert str(err.value) == shown
    argv = ["kvv-schedule", "--e", "2,4", "--delta", "1/2,0", "--target", "2000"]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: internal check failed: {shown}\n"


def test_schedule_step_count_is_the_closed_form():
    # the golden request: 1 + (ceil(3*1) - 1) + (ceil(3*2) - 1)
    assert len(kvv_schedule([1, 2], [0, 0], 3).steps) == 8
    assert len(kvv_schedule([1], [0], 0).steps) == 0
    trace = kvv_schedule(KM_E, KM_DELTA, 7)
    assert len(trace.steps) == _closed_form_count(KM_E, KM_DELTA, 7)
