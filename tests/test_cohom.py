from collections import Counter
from fractions import Fraction
from functools import cache
from math import floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conekit import cohom
from conekit.cohom import (
    CohomReport,
    CohStatus,
    FamilyDescriptor,
    FloorWalk,
    chi_rr,
    cohomology_of_nA,
    effective_ample_rewrite,
    family_divisor,
    family_report,
    floor_pullback_stats,
    h0_zero_by_degree,
    h1_vanish_eff_nef_big,
    km_family_cohomology,
    target_context,
    uniform_h1_chain_zero,
    uniform_h2_chain_zero,
    walk_families,
)
from conekit.qlattice import (
    InvariantError,
    NamedDivisor,
    floor_divisor,
    pair,
    pair_canonical,
)

PSI5 = target_context(5)
FAM531 = FamilyDescriptor(5, 3, 1)


def grid(d_lo, d_hi):
    for d in range(d_lo, d_hi + 1):
        for q1 in range(0, d + 1):
            for q2 in range(0, d - q1 + 1):
                yield FamilyDescriptor(d, q1, q2)


# --- chi ----------------------------------------------------------------------


def test_chi_of_trivial_divisor():
    assert chi_rr(FloorWalk(PSI5)) == 1 == _from_scratch(FAM531, 0)[3]


def test_chi_of_floored_pullback_531():
    _, square, dot = floor_pullback_stats(FAM531)
    assert square == -4
    assert dot == 2
    assert chi_rr(cohom._walk_to(FAM531)) == 1 + (-4 + 2) // 2
    assert _from_scratch(FAM531)[3] == 1 + (-4 + 2) // 2


def test_chi_of_floored_pullback_532():
    fam = FamilyDescriptor(5, 3, 2)
    assert chi_rr(cohom._walk_to(fam)) == -1 == _from_scratch(fam)[3]


def test_chi_rejects_an_odd_riemann_roch_numerator():
    # F.F + F.(-K) is even on every floor; an odd sum is an internal error
    walk = FloorWalk(PSI5)
    walk.square = 1
    with pytest.raises(
        InvariantError, match=r"^Riemann-Roch value is not an integer: 3/2$"
    ):
        chi_rr(walk)


def test_floor_stats_with_deep_negative_floor():
    _, square, dot = floor_pullback_stats(FamilyDescriptor(3, 0, 3))
    assert floor(Fraction(0 - 3, 2 * 3 - 4)) == -2
    assert square == 1
    assert dot == -3


def test_floor_stats_trivial_family():
    floored, square, dot = floor_pullback_stats(FamilyDescriptor(6, 0, 0))
    assert floored.is_zero()
    assert square == 0
    assert dot == 0


@cache
def _canonical_degree(d):
    """deg(K_T) = K_T . (-K_T) on T(d), from the contraction's own degree."""
    psi = target_context(d)
    return psi.degree(psi.target_canonical())


def _from_scratch(fam, n=1, subtract=None):
    """The oracle for the walk: pull back the whole twist D = nA - E_subtract,
    floor it, and pair the floor F with itself and with K; with chi(F) =
    1 + F.(F - K)/2 as a Fraction, and the degrees of D and of its Serre
    dual K - D on the target, the latter deg(K_T) - deg(D) as degree is
    linear."""
    psi = target_context(fam.d)
    reg = psi.registry
    divisor = family_divisor(fam).scale(n)
    if subtract is not None:
        divisor -= NamedDivisor.of({f"E_{subtract}": 1})
    floored = floor_divisor(psi.pullback(divisor))
    square, dot = pair(reg, floored, floored), -pair_canonical(reg, floored)
    degree = psi.degree(divisor)
    return (
        floored,
        square,
        dot,
        1 + (square + dot) / 2,
        degree,
        _canonical_degree(fam.d) - degree,
    )


def _walk_equals_the_oracle(walk, fam, n=1, subtract=None):
    """Compare one walk with the from-scratch oracle: the floor, in the name
    order the printed divisor follows, its square, its degree against -K,
    chi, and the degrees that the h0 test and the Serre dual read; returns
    the oracle's floor, square, dot and degree."""
    psi = walk.psi
    floored, square, dot, chi, degree, dual_degree = _from_scratch(fam, n, subtract)
    walked = walk.floored()
    case = (fam, n, subtract)
    assert (walked, walk.square, walk.dot) == (floored, square, dot), case
    assert list(walked.nums.items()) == list(floored.nums.items()), case
    assert chi_rr(walk) == chi, case
    den = psi.inverse_den
    assert Fraction(walk.degree, den) == degree, case
    assert -Fraction(walk.degree + cohom._minus_k_degree(psi), den) == dual_degree, case
    return floored, square, dot, degree


def _walks_equal_the_oracle(d_lo, d_hi):
    """Compare, on every family with d_lo <= d <= d_hi, the sweep's walk and
    the single-row route with the from-scratch oracle, and run the family
    engine on the walk, which raises on any mismatch of chi, the floor's
    square or its degree with their closed forms; the number of families."""
    rows = 0
    for d in range(d_lo, d_hi + 1):
        for fam, walk in walk_families(target_context(d)):
            floored, square, dot, degree = _walk_equals_the_oracle(walk, fam)
            assert walk.ample == (degree > 0), fam
            assert floor_pullback_stats(fam) == (floored, square, dot), fam
            family_report(fam, walk)
            rows += 1
    return rows


def _twists_equal_the_oracle(d_hi, subtracts):
    """Compare the walk to nA - E_j with the from-scratch oracle for every
    family with d <= d_hi, n = 0..3 and j in ``subtracts(fam)``; the number
    of cases."""
    cases = 0
    for fam in grid(3, d_hi):
        for n in range(4):
            for j in subtracts(fam):
                _walk_equals_the_oracle(cohom._walk_to(fam, n, j), fam, n, j)
                cases += 1
    return cases


def test_walk_equals_the_from_scratch_route_on_small_grid():
    assert _walks_equal_the_oracle(3, 12) == len(list(grid(3, 12)))


def test_every_twist_walk_equals_the_from_scratch_route():
    # every n = 0..3 and every subtracted curve, none included, for d <= 10
    def subtracts(fam):
        return [None, *range(1, fam.d + 1)]

    assert _twists_equal_the_oracle(10, subtracts) == 9_624


@pytest.mark.slow
def test_chi_closed_form_equals_riemann_roch_on_grid():
    # the whole d <= 60 grid of families, then the twists for d <= 20: nothing,
    # the first curve or the first fresh one subtracted
    assert _walks_equal_the_oracle(3, 60) == 39_701

    def subtracts(fam):
        fresh = fam.q1 + fam.q2 + 1
        return [None, 1] + ([fresh] if fresh <= fam.d else [])

    assert _twists_equal_the_oracle(20, subtracts) == 20_232


# --- family table ---------------------------------------------------------------


def test_family_values_from_quoted_cases():
    assert km_family_cohomology(FamilyDescriptor(5, 3, 2)).h1 == CohStatus.exact(1)
    assert km_family_cohomology(FamilyDescriptor(5, 3, 0)).h1 == CohStatus.exact(0)
    report33 = km_family_cohomology(FamilyDescriptor(3, 0, 3))
    assert report33.h1 == CohStatus.exact(0)
    assert report33.chi == 0
    assert km_family_cohomology(FamilyDescriptor(14, 9, 3)).h1 == CohStatus.exact(2)


def test_family_h1_classification_on_grid():
    for fam in grid(3, 12):
        h1 = km_family_cohomology(fam).h1
        if fam.q2 == 0:
            assert h1 == CohStatus.exact(0)
        elif fam.q1 >= fam.q2:
            assert h1 == CohStatus.exact(fam.q2 - 1)
        else:
            assert h1 == CohStatus.exact(fam.q1)


def test_family_h0_statuses():
    assert km_family_cohomology(FamilyDescriptor(5, 3, 1)).h0 == CohStatus.exact(0)
    assert km_family_cohomology(FamilyDescriptor(5, 3, 0)).h0 == CohStatus.at_least_one()
    assert km_family_cohomology(FamilyDescriptor(5, 0, 0)).h0 == CohStatus.exact(1)


def test_family_euler_consistency_on_grid():
    for fam in grid(3, 10):
        assert km_family_cohomology(fam).euler_consistent()


def test_descriptor_invariants():
    with pytest.raises(ValueError, match=r"^q1 \+ q2 = 6 exceeds d = 5$"):
        FamilyDescriptor(5, 4, 2)
    with pytest.raises(ValueError, match=r"^d must be >= 3, got 2$"):
        FamilyDescriptor(2, 0, 0)
    with pytest.raises(ValueError, match=r"^q1 and q2 must be nonnegative$"):
        FamilyDescriptor(5, -1, 0)


# --- duality and degree rules ---------------------------------------------------


def test_h0_zero_for_twisted_dual():
    twist = family_divisor(FAM531) - NamedDivisor.of({"E_5": 1})
    dual = PSI5.target_canonical() - twist
    assert PSI5.degree(dual) < 0
    assert h0_zero_by_degree(PSI5.degree(dual)) == CohStatus.zero()


def test_h0_rule_on_trivial_divisor_is_unknown():
    assert h0_zero_by_degree(PSI5.degree(NamedDivisor.zero())) == CohStatus.unknown()


def test_h0_rule_on_negative_curve():
    degree = PSI5.degree(NamedDivisor.of({"E_1": -1}))
    assert h0_zero_by_degree(degree) == CohStatus.zero()


@given(st.sampled_from((3, 5, 8)), st.data())
@settings(max_examples=40, deadline=None)
def test_degree_zero_divisors_pull_back_to_zero(d, data):
    # the dense pullback class is the oracle for the rank-one argument behind
    # h0_zero_by_degree: degree zero on T(d) forces a trivial pullback
    psi = target_context(d)
    names = [f"E_{i}" for i in range(1, d + 1)] + ["F"]
    coeffs = data.draw(
        st.lists(st.integers(-3, 3), min_size=len(names), max_size=len(names))
    )
    D = NamedDivisor.of(zip(names, coeffs))
    # move the degree onto E_1 so that D has degree zero
    e_1 = NamedDivisor.of({"E_1": 1})
    D = D - e_1.scale(psi.degree(D) / psi.degree(e_1))
    assert psi.degree(D) == 0
    assert not any(psi.pullback_class(D))
    assert h0_zero_by_degree(psi.degree(D)) == CohStatus.unknown()


# --- pair-shift rewriting -------------------------------------------------------


def _rewrite_reachable(D, rep):
    """Oracle: rep differs from D by pair shifts iff the difference has even
    coefficients summing to zero."""
    diff = rep - D
    return all(c.denominator == 1 and c % 2 == 0 for _, c in diff.entries) and sum(
        c for _, c in diff.entries
    ) == 0


def test_rewrite_double_family():
    for q in (2, 3):
        psi = target_context(q + 3)
        terms = {f"E_{i}": 1 for i in range(1, q + 1)}
        terms[f"E_{q + 1}"] = -1
        a = NamedDivisor.of(terms)
        rep = effective_ample_rewrite(psi, a.scale(2))
        assert rep == NamedDivisor.of({f"E_{q + 1}": 2 * (q - 1)})
        assert _rewrite_reachable(a.scale(2), rep)


def test_rewrite_triple_family():
    a = family_divisor(FAM531)
    rep = effective_ample_rewrite(PSI5, a.scale(3))
    expected = {f"E_{i}": 1 for i in range(1, 4)}
    expected["E_4"] = 2 * 3 - 3
    assert rep == NamedDivisor.of(expected)
    assert _rewrite_reachable(a.scale(3), rep)


def test_rewrite_negative_curve_has_no_representative():
    assert effective_ample_rewrite(PSI5, NamedDivisor.of({"E_1": -1})) is None


def test_rewrite_rejects_non_e_support():
    with pytest.raises(
        ValueError, match=r"^rewrite needs support on the E curves, got F$"
    ):
        effective_ample_rewrite(PSI5, NamedDivisor.of({"F": 1}))


# --- vanishing rule -------------------------------------------------------------


def test_vanishing_rule_on_family_multiples():
    a = family_divisor(FAM531)
    minus_k = NamedDivisor.of({"E_5": 2})
    for n in (2, 3, 5):
        shifted = a.scale(n) + minus_k
        assert PSI5.degree(shifted) > 0
        assert h1_vanish_eff_nef_big(PSI5, shifted, PSI5.degree(shifted)) is True


def test_vanishing_rule_not_applicable_to_zero():
    assert h1_vanish_eff_nef_big(PSI5, NamedDivisor.zero(), 0) is False


# --- dispatch -------------------------------------------------------------------


def test_dispatch_structure_sheaf():
    report = cohomology_of_nA(FAM531, 0)
    assert (report.h0, report.h1, report.h2) == (
        CohStatus.exact(1),
        CohStatus.zero(),
        CohStatus.zero(),
    )
    assert report.chi == 1


def test_dispatch_n1_with_fresh_subtract():
    report = cohomology_of_nA(FAM531, 1, subtract=5)
    assert report.h1 == CohStatus.exact(1)
    assert report.h0 == CohStatus.zero()
    assert report.h2 == CohStatus.zero()


def test_dispatch_n2_plt_family():
    report = cohomology_of_nA(FAM531, 2)
    assert report.h1 == CohStatus.zero()
    assert report.h2 == CohStatus.zero()


def test_dispatch_gap_when_family_not_ample():
    fam = FamilyDescriptor(5, 2, 2)
    report = cohomology_of_nA(fam, 2)
    assert report.h1 == CohStatus.unknown()
    assert "coverage:family-not-ample" in report.certificates


def test_dispatch_gap_for_non_fresh_subtract():
    report = cohomology_of_nA(FAM531, 1, subtract=2)
    assert report.h1 == CohStatus.unknown()
    assert "coverage:subtracted-curve-not-fresh" in report.certificates


def test_certified_entries_always_carry_tokens():
    cases = [
        (0, None), (1, None), (2, None), (3, None),
        (0, 5), (1, 5), (2, 5),
    ]
    for n, sub in cases:
        report = cohomology_of_nA(FAM531, n, subtract=sub)
        joined = ";".join(report.certificates)
        if report.h1.is_exact:
            assert "h1" in joined
        if report.h0.kind != "unknown":
            assert "h0" in joined
        if report.h2.is_exact:
            assert "h2" in joined or "rational-surface" in joined


def test_coverage_counter():
    # the entry kinds of cohomology_of_nA over d <= 20, every family and
    # n = 0..3; a change that certifies more entries restates this pin, its
    # old and new values
    kinds = Counter()
    for fam in grid(3, 20):
        for n in range(4):
            report = cohomology_of_nA(fam, n)
            kinds.update(entry.kind for entry in (report.h0, report.h1, report.h2))
    assert kinds == {"exact": 13_524, "at_least_one": 1_677, "unknown": 5_931}
    assert kinds.total() == 21_132


# --- uniform chain certificates --------------------------------------------------


def test_uniform_h1_certificate_holds_for_plt_family():
    holds, tokens = uniform_h1_chain_zero(FAM531, cohomology_of_nA(FAM531, 2))
    assert holds is True
    assert any(t.startswith("uniform") for t in tokens)


def test_uniform_h1_refuses_non_ample_family():
    fam = FamilyDescriptor(5, 2, 2)
    holds, _ = uniform_h1_chain_zero(fam, cohomology_of_nA(fam, 2))
    assert holds is None


def test_uniform_h2_certificate_holds_from_zero():
    holds, _ = uniform_h2_chain_zero(FAM531, cohomology_of_nA(FAM531, 0, subtract=5))
    assert holds is True


def test_uniform_h2_certificate_is_unknown_without_negative_degree():
    # a certificate that does not hold is unknown (None), never False
    at_zero = cohomology_of_nA(FAM531, 0, subtract=5)
    unknown_h2 = CohomReport(
        at_zero.h0, at_zero.h1, CohStatus.unknown(), at_zero.chi, at_zero.certificates
    )
    assert uniform_h2_chain_zero(FAM531, unknown_h2) == (
        None, ("coverage:degree-not-negative",)
    )


def test_is_exact_zero_is_three_valued():
    # a certified nonzero entry (exact or a lower bound) is False, and an
    # unknown one None, so no caller reads "not certified" as "nonzero"
    assert CohStatus.zero().is_exact_zero is True
    assert CohStatus.exact(2).is_exact_zero is False
    assert CohStatus.at_least_one().is_exact_zero is False
    assert CohStatus.unknown().is_exact_zero is None
