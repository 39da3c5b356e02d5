from fractions import Fraction
from math import floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conekit.cohom import (
    CohStatus,
    FamilyDescriptor,
    chi_rr,
    cohomology_of_nA,
    effective_ample_rewrite,
    family_divisor,
    floor_pullback_stats,
    h0_zero_by_degree,
    h1_vanish_eff_nef_big,
    km_family_cohomology,
    serre_dual,
    target_context,
    uniform_h1_chain_zero,
    uniform_h2_chain_zero,
)
from conekit.qlattice import NamedDivisor, floor_divisor

PSI5 = target_context(5)
FAM531 = FamilyDescriptor(5, 3, 1)


def grid(d_lo, d_hi):
    for d in range(d_lo, d_hi + 1):
        for q1 in range(0, d + 1):
            for q2 in range(0, d - q1 + 1):
                yield FamilyDescriptor(d, q1, q2)


# --- chi ----------------------------------------------------------------------


def test_chi_of_trivial_divisor():
    assert chi_rr(PSI5.surface, NamedDivisor.zero()) == 1


def test_chi_of_floored_pullback_531():
    floored, square, dot = floor_pullback_stats(FAM531)
    assert square == -4
    assert dot == 2
    assert chi_rr(PSI5.surface, floored) == 1 + (-4 + 2) // 2


def test_chi_of_floored_pullback_532():
    fam = FamilyDescriptor(5, 3, 2)
    assert chi_rr(PSI5.surface, floor_pullback_stats(fam)[0]) == -1


def test_chi_rejects_fractional_divisor():
    with pytest.raises(ValueError, match=r"^divisor is not integral: 1/2\*E_1$"):
        chi_rr(PSI5.surface, NamedDivisor.of({"E_1": Fraction(1, 2)}))


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


@pytest.mark.slow
def test_chi_closed_form_equals_riemann_roch_on_grid():
    # the family engine raises on any mismatch of chi, the floor's square or
    # its degree with their closed forms; run it on the whole d <= 60 grid
    rows = 0
    for fam in grid(3, 60):
        km_family_cohomology(fam)
        rows += 1
    assert rows == 39_701


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


def test_serre_dual_of_canonical_and_zero():
    k = PSI5.target_canonical()
    assert serre_dual(PSI5, k).is_zero()
    assert serre_dual(PSI5, NamedDivisor.zero()) == k


def test_h0_zero_for_twisted_dual():
    dual = serre_dual(PSI5, family_divisor(FAM531) - NamedDivisor.of({"E_5": 1}))
    assert PSI5.degree(dual) < 0
    assert h0_zero_by_degree(PSI5, dual) == CohStatus.zero()


def test_h0_rule_on_trivial_divisor_is_unknown():
    assert h0_zero_by_degree(PSI5, NamedDivisor.zero()) == CohStatus.unknown()


def test_h0_rule_on_negative_curve():
    assert h0_zero_by_degree(PSI5, NamedDivisor.of({"E_1": -1})) == CohStatus.zero()


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
    assert h0_zero_by_degree(psi, D) == CohStatus.unknown()


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
        assert h1_vanish_eff_nef_big(PSI5, shifted) is True
        assert PSI5.degree(shifted) > 0


def test_vanishing_rule_not_applicable_to_zero():
    assert h1_vanish_eff_nef_big(PSI5, NamedDivisor.zero()) is False


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


# --- uniform chain certificates --------------------------------------------------


def test_uniform_h1_certificate_holds_for_plt_family():
    holds, tokens = uniform_h1_chain_zero(FAM531, cohomology_of_nA(FAM531, 2))
    assert holds
    assert any(t.startswith("uniform") for t in tokens)


def test_uniform_h1_refuses_non_ample_family():
    fam = FamilyDescriptor(5, 2, 2)
    holds, _ = uniform_h1_chain_zero(fam, cohomology_of_nA(fam, 2))
    assert not holds


def test_uniform_h2_certificate_holds_from_zero():
    holds, _ = uniform_h2_chain_zero(FAM531, cohomology_of_nA(FAM531, 0, subtract=5))
    assert holds
