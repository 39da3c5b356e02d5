from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from test_qlattice import lattices_with_subsets, registry_of, vec

from conekit.cli import main as cli_main
from conekit.contract import Contraction, km_psi
from conekit.km_surface import KMSurface, build_km_surface, replay, BlowupStep
from conekit.qlattice import (
    IntersectionLattice,
    NamedDivisor,
    _eliminate,
    class_of,
    curve_sort_key,
    gram_block,
    intersect,
    is_negative_definite,
    solve_linear,
)

S5 = build_km_surface(5)
PSI5 = km_psi(S5)

target_names = ["F"] + [f"E_{i}" for i in range(1, 6)]
small_rats = st.fractions(min_value=-3, max_value=3, max_denominator=4)


# --- pullback ----------------------------------------------------------------


def test_pullback_of_minus_one_curve():
    for d in (3, 5, 8):
        psi = km_psi(build_km_surface(d))
        got = psi.pullback(NamedDivisor.of({"E_2": 1}))
        assert got == NamedDivisor.of(
            {
                "E_2": 1,
                "l_2": Fraction(1, 2),
                "lp_2": Fraction(1, 2),
                "Gamma": Fraction(1, 2 * d - 4),
            }
        )


def test_pullback_of_zero():
    assert PSI5.pullback(NamedDivisor.zero()).is_zero()


def test_pullback_family_gamma_coefficient():
    A = NamedDivisor.of({"E_1": 1, "E_2": 1, "E_3": 1, "E_4": -1})
    assert PSI5.pullback(A).terms["Gamma"] == Fraction(1, 3)


def test_pullback_rejects_contracted_names():
    with pytest.raises(ValueError, match=r"^divisor mentions contracted curves: Gamma$"):
        PSI5.pullback(NamedDivisor.of({"Gamma": 1}))


@pytest.mark.parametrize("names", [("Gamma", "E_1"), ("E_1", "Gamma")], ids=["first", "second"])
def test_target_intersect_refuses_contracted_names(names, capsys):
    D1, D2 = (NamedDivisor.of({n: 1}) for n in names)
    with pytest.raises(ValueError, match=r"^divisor mentions contracted curves: Gamma$"):
        PSI5.target_intersect(D1, D2)
    assert cli_main(["contract", "--d", "5", "--target-intersect", *names]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: divisor mentions contracted curves: Gamma\n"


def test_pullback_keeps_no_per_divisor_state():
    # the per-curve correction table is the only state a pullback adds
    psi = km_psi(S5)
    attributes = set(vars(psi))
    for k in range(1, 201):
        psi.pullback(NamedDivisor.of({f"E_{1 + k % 5}": k, "F": Fraction(1, k)}))
    assert set(vars(psi)) == attributes
    assert len(psi._corrections) <= len(psi.registry.names())


@given(
    st.dictionaries(st.sampled_from(target_names), small_rats, min_size=0, max_size=4)
)
@settings(max_examples=60)
def test_pullback_orthogonal_to_contracted(terms):
    D = NamedDivisor.of(terms)
    pulled = class_of(PSI5.registry, PSI5.pullback(D))
    for name in PSI5.contracted:
        assert intersect(PSI5.lattice, pulled, PSI5.registry.class_vector(name)) == 0


def _dense_pullback(ctr, D):
    """D + sum_i x_i C_i with x = G^{-1}(-D.C_j), solved from class vectors
    and the dense Gram block: the oracle for the per-curve correction cache."""
    lat, reg = ctr.lattice, ctr.registry
    classes = [reg.class_vector(n) for n in ctr.contracted]
    cls = class_of(reg, D)
    xs = solve_linear(gram_block(lat, classes), [-intersect(lat, cls, c) for c in classes])
    return D + NamedDivisor.of(dict(zip(ctr.contracted, xs)))


@st.composite
def contractions_with_divisors(draw):
    """A contraction of S(d) (all of Gamma, l_i, lp_i; or the non-orthogonal
    pair E_1, l_1) or of the A_2 chain, with two divisors on its target."""
    d = draw(st.sampled_from([3, 5, 8]))
    ctr = draw(
        st.sampled_from(
            [
                km_psi(build_km_surface(d)),
                Contraction(build_km_surface(d), ("E_1", "l_1")),
                _a2_chain(),
            ]
        )
    )
    names = [n for n in ctr.registry.names() if n not in ctr.contracted]
    D1, D2 = (
        NamedDivisor.of(draw(st.dictionaries(st.sampled_from(names), small_rats, max_size=4)))
        for _ in range(2)
    )
    return ctr, D1, D2


@given(contractions_with_divisors())
@settings(max_examples=80)
def test_pullback_matches_dense_solve(case):
    ctr, D1, D2 = case
    P1, P2 = _dense_pullback(ctr, D1), _dense_pullback(ctr, D2)
    assert ctr.pullback(D1) == P1
    assert ctr.target_intersect(D1, D2) == intersect(
        ctr.lattice, class_of(ctr.registry, P1), class_of(ctr.registry, P2)
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["--pullback", "X_9"],
        ["--pushforward", "X_9"],
        ["--target-intersect", "X_9", "E_1"],
        ["--target-intersect", "E_1", "X_9"],
    ],
    ids=["pullback", "pushforward", "target-intersect", "target-intersect-second"],
)
def test_unknown_curve_name_at_the_cli(argv, capsys):
    assert cli_main(["contract", "--d", "5", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown curve name: 'X_9'\n"


# --- pushforward -------------------------------------------------------------


def test_pushforward_of_contracted_curve_is_zero():
    assert PSI5.pushforward(NamedDivisor.of({"Gamma": 1})).is_zero()


def test_pushforward_of_floored_pullback():
    from conekit.qlattice import floor_divisor

    A = NamedDivisor.of({"E_1": 1, "E_2": 1, "E_3": 1, "E_4": -1})
    floored = floor_divisor(PSI5.pullback(A))
    assert PSI5.pushforward(floored) == A


@given(
    st.dictionaries(st.sampled_from(target_names), small_rats, min_size=0, max_size=4)
)
@settings(max_examples=60)
def test_pushforward_pullback_round_trip(terms):
    D = NamedDivisor.of(terms)
    assert PSI5.pushforward(PSI5.pullback(D)) == D


# --- relative canonical ------------------------------------------------------


def test_gamma_discrepancy():
    for d in (4, 5, 10, 20):
        psi = km_psi(build_km_surface(d))
        table = psi.relative_canonical()
        assert table["Gamma"] == -Fraction(d - 3, d - 2)


def test_minus_two_curves_have_zero_discrepancy():
    table = PSI5.relative_canonical()
    for i in range(1, 6):
        assert table[f"l_{i}"] == 0
        assert table[f"lp_{i}"] == 0


def test_d3_gamma_discrepancy_vanishes():
    psi = km_psi(build_km_surface(3))
    assert psi.relative_canonical()["Gamma"] == 0


def test_relative_canonical_orthogonality():
    for d in (3, 5, 12):
        psi = km_psi(build_km_surface(d))
        assert psi.residual_checks()


# --- singularity classification ----------------------------------------------


def test_psi_is_klt_for_all_d():
    for d in [*range(3, 21), 40, 80]:
        psi = km_psi(build_km_surface(d))
        got = psi.classify_singularities()
        assert got["klt"]
        # d = 3 is crepant, the finest label upgrades to canonical
        assert got["classification"] == ("canonical" if d == 3 else "klt")
        assert got["min_discrepancy"] == -Fraction(d - 3, d - 2)
        assert got["min_discrepancy"] > -1
        assert psi.residual_checks()


def _one_point_blowup() -> KMSurface:
    return KMSurface(
        d=3, registry=replay({}, (BlowupStep(exceptional="e1", register="E"),))
    )


def _a2_chain_surface():
    """P^2 blown up three times along a chain: E1 and E2 become (-2)-curves
    meeting once, E3 is the last (-1)-curve, meeting E2."""
    registry = replay(
        {},
        (
            BlowupStep(exceptional="e1", register="E1"),
            BlowupStep(exceptional="e2", through=(("E1", 1),), register="E2"),
            BlowupStep(exceptional="e3", through=(("E2", 1),), register="E3"),
        ),
    )
    return SimpleNamespace(registry=registry)


def _a2_chain():
    return Contraction(surface=_a2_chain_surface(), contracted=("E1", "E2"))


def test_a2_chain_contraction():
    ctr = _a2_chain()
    third = Fraction(1, 3)
    assert ctr.gram_inverse == {
        "E1": {"E1": -2 * third, "E2": -third},
        "E2": {"E1": -third, "E2": -2 * third},
    }
    assert ctr.pullback(NamedDivisor.of({"E3": 1})) == NamedDivisor.of(
        {"E1": third, "E2": 2 * third, "E3": 1}
    )
    assert ctr.relative_canonical() == {"E1": 0, "E2": 0}
    assert ctr.residual_checks()
    assert ctr.classify_singularities()["classification"] == "canonical"


def _swap_block_surface():
    """Two curves with Gram block [[0, -1], [-1, -1]], H - E_1 and -E_1 on the
    plane blown up once: elimination swaps rows, both pivots are then -1, yet
    the block is indefinite."""
    lat = IntersectionLattice(("H", "E_1"))
    registry = registry_of(lat, {"b0": vec(1, -1), "b1": vec(0, -1)})
    return SimpleNamespace(lattice=lat, registry=registry)


@pytest.mark.parametrize(
    "surface,names",
    [
        (S5, ("Gamma", "l_1", "lp_1")),  # negative definite
        (S5, ("E_1", "l_1", "lp_1", "F")),  # dependent: F = 2E_1 + l_1 + lp_1
        (S5, ("Gamma", "F")),  # indefinite
        (S5, ("F",)),  # square zero
        (_swap_block_surface(), ("b0", "b1")),
    ],
    ids=["definite", "dependent", "indefinite", "square-zero", "swap"],
)
def test_contraction_is_possible_iff_negative_definite(surface, names):
    classes = [surface.registry.class_vector(n) for n in names]
    try:
        definite = is_negative_definite(surface.lattice, classes)
    except ValueError as exc:
        if str(exc) != "subset is linearly dependent":
            raise
        definite = False
    if definite:
        assert len(Contraction(surface=surface, contracted=names).gram_inverse) == len(names)
    else:
        with pytest.raises(
            ValueError, match=r"^contracted Gram block is not negative definite$"
        ):
            Contraction(surface=surface, contracted=names)


def _dense_gram_inverse(surface, names):
    """Oracle: one elimination of the whole dense [G | I], G paired on class
    vectors; None when G is not negative definite (a swap, a missing or a
    nonnegative pivot)."""
    ordered = sorted(names, key=curve_sort_key)
    classes = [surface.registry.class_vector(n) for n in ordered]
    k = len(classes)
    rows = [
        row + [Fraction(int(i == j)) for j in range(k)]
        for i, row in enumerate(gram_block(surface.registry.lattice, classes))
    ]
    pivots, swaps = _eliminate(rows, k)
    if swaps or len(pivots) < k or any(p >= 0 for p in pivots):
        return None
    return {
        a: {b: x for b, x in zip(ordered, row[k:]) if x} for a, row in zip(ordered, rows)
    }


def _check_block_inverse_against_dense(surface, names) -> str:
    """The block-wise inverse equals the dense one entry for entry, in the
    same curve order, and both accept or both refuse; returns which."""
    expected = _dense_gram_inverse(surface, names)
    if expected is None:
        with pytest.raises(
            ValueError, match=r"^contracted Gram block is not negative definite$"
        ):
            Contraction(surface=surface, contracted=names)
        return "refused"
    got = Contraction(surface=surface, contracted=names).gram_inverse
    assert got == expected
    assert list(got) == list(expected)
    coupled = any(len(row) > 1 for row in got.values())
    return "accepted, non-diagonal" if coupled else "accepted, diagonal"


@given(lattices_with_subsets())
@settings(max_examples=200)
def test_block_inverse_matches_dense_oracle_on_random_lattices(case):
    lat, subset = case
    registry = registry_of(lat, {f"c_{i}": v for i, v in enumerate(subset)})
    surface = SimpleNamespace(registry=registry)
    event(_check_block_inverse_against_dense(surface, registry.names()))


@pytest.mark.parametrize(
    "surface,names,outcome",
    [
        (_a2_chain_surface(), ("E1", "E2"), "accepted, non-diagonal"),
        # the whole chain blows down to a smooth point
        (_a2_chain_surface(), ("E1", "E2", "E3"), "accepted, non-diagonal"),
        (_swap_block_surface(), ("b0", "b1"), "refused"),
        (S5, S5.exceptional_names(), "accepted, diagonal"),
        (S5, ("E_1", "l_1", "Gamma", "l_2"), "accepted, non-diagonal"),
        # F = 2E_1 + l_1 + lp_1 lies in the span and F^2 = 0
        (S5, ("E_1", "l_1", "lp_1", "l_2"), "refused"),
        (S5, ("E_1", "l_1", "lp_1", "F"), "refused"),
    ],
    ids=[
        "a2-chain", "a2-chain-and-minus-one", "swap", "s5", "s5-star",
        "s5-fibre", "s5-dependent",
    ],
)
def test_block_inverse_matches_dense_oracle(surface, names, outcome):
    assert _check_block_inverse_against_dense(surface, names) == outcome


def test_contracted_curves_are_kept_in_curve_order():
    # every table read from a contraction lists its curves in this one order
    ctr = Contraction(build_km_surface(12), ("lp_2", "l_10", "Gamma", "l_2"))
    order = ["Gamma", "l_2", "l_10", "lp_2"]
    assert list(ctr.contracted) == order
    assert list(ctr.relative_canonical()) == order
    assert list(ctr.classify_singularities()["discrepancies"]) == order


def test_blowdown_of_minus_one_curve_is_terminal():
    ctr = Contraction(surface=_one_point_blowup(), contracted=("E",))
    got = ctr.classify_singularities()
    assert got["classification"] == "terminal"
    assert got["discrepancies"] == {"E": 1}


def test_pair_with_boundary_through_gamma():
    got = PSI5.classify_singularities(NamedDivisor.of({"E_5": 1}))
    table = got["discrepancies"]
    # boundary transform meets Gamma: its pullback coefficient 1/6 lowers a_Gamma
    assert table["Gamma"] == Fraction(-2, 3) - Fraction(1, 6)
    assert got["min_discrepancy"] == Fraction(-5, 6)
    # coefficient-one boundary: the klt label is unavailable, depths stay > -1
    assert got["classification"] == "plt"
    assert not got["klt"]


def test_fractional_boundary_keeps_klt():
    got = PSI5.classify_singularities(NamedDivisor.of({"E_5": Fraction(1, 2)}))
    assert got["classification"] == "klt"


def test_boundary_out_of_range_rejected():
    with pytest.raises(ValueError, match=r"^boundary coefficient of E_5 outside \[0,1\]: 2$"):
        PSI5.classify_singularities(NamedDivisor.of({"E_5": 2}))


# --- target intersections ----------------------------------------------------


def test_target_self_intersection_of_e():
    for d in (3, 5, 9):
        psi = km_psi(build_km_surface(d))
        e = NamedDivisor.of({"E_1": 1})
        assert psi.target_intersect(e, e) == Fraction(1, 2 * d - 4)


def test_target_canonical_square():
    for d in (3, 5, 9):
        psi = km_psi(build_km_surface(d))
        k = psi.target_canonical()
        assert psi.target_intersect(k, k) == Fraction(4, 2 * d - 4)


def test_anticanonical_degree_of_family():
    A = NamedDivisor.of({"E_1": 1, "E_2": 1, "E_3": 1, "E_4": -1})
    assert PSI5.degree(A) == (3 - 1) * Fraction(2, 2 * 5 - 4)


def test_canonical_proportional_to_minus_two_e():
    # -K on the target is numerically 2 E_i for every i
    k = PSI5.target_canonical()
    for i in range(1, 6):
        e = NamedDivisor.of({f"E_{i}": 1})
        for other in (NamedDivisor.of({"E_3": 1}), NamedDivisor.of({"F": 1})):
            assert PSI5.target_intersect(k, other) == -2 * PSI5.target_intersect(e, other)


# --- ampleness and rank ------------------------------------------------------


def test_family_is_ample_for_q_at_least_two():
    for q in (2, 3):
        terms = {f"E_{i}": 1 for i in range(1, q + 1)}
        terms[f"E_{q + 1}"] = -1
        assert PSI5.is_ample_rho1(NamedDivisor.of(terms))


def test_balanced_family_is_not_ample():
    A = NamedDivisor.of({"E_1": 1, "E_2": 1, "E_3": -1, "E_4": -1})
    assert not PSI5.is_ample_rho1(A)


def test_anticanonical_is_ample():
    assert PSI5.is_ample_rho1(PSI5.minus_k_target())


def test_ampleness_requires_rank_one_flag():
    ctr = Contraction(surface=S5, contracted=("l_1",))
    with pytest.raises(
        ValueError,
        match=r"^target is not of Picard rank one with -K nonzero and effective$",
    ):
        ctr.is_ample_rho1(NamedDivisor.of({"E_1": 1}))


@pytest.mark.parametrize(
    "minus_k",
    [NamedDivisor.zero(), NamedDivisor.of({"F": 1, "E_1": -1})],
    ids=["zero", "negative-coefficient"],
)
def test_ampleness_requires_effective_minus_k(monkeypatch, minus_k):
    # rank one alone does not make the degree test sound: -K_T must also be
    # nonzero and effective
    monkeypatch.setattr(Contraction, "minus_k_target", lambda self: minus_k)
    psi = km_psi(build_km_surface(5))
    assert psi.picard_rank_after() == 1
    with pytest.raises(
        ValueError,
        match=r"^target is not of Picard rank one with -K nonzero and effective$",
    ):
        psi.is_ample_rho1(NamedDivisor.of({"E_1": 1}))


def test_rank_one_targets_are_accepted_for_ampleness():
    for d in range(3, 13):
        psi = km_psi(build_km_surface(d))
        assert psi.minus_k_target() == NamedDivisor.of({"F": 1})
        assert psi.is_ample_rho1(NamedDivisor.of({"E_1": 1}))


def test_picard_rank_after_full_contraction():
    for d in (3, 5, 12):
        psi = km_psi(build_km_surface(d))
        assert psi.picard_rank_after() == (2 + 2 * d) - (2 * d + 1) == 1


def test_picard_rank_after_empty_contraction():
    ctr = Contraction(surface=S5, contracted=())
    assert ctr.picard_rank_after() == S5.lattice.rank


def test_threefold_side_rank_arithmetic():
    # rank above the tower: (rho(S)+1) - (2d+1) = 2
    for d in (3, 5, 12):
        s = build_km_surface(d)
        assert (s.lattice.rank + 1) - (2 * d + 1) == 2
