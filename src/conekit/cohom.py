"""Euler characteristics and certified cohomology rules on the rank-one target.

The engine never guesses a cohomology number.  Every entry of a
:class:`CohomReport` is either exact with a rule token explaining it, a
certified lower bound, or ``Unknown``.  The rules implemented are:

* Riemann-Roch on the source surface: chi(D) = 1 + D.(D-K)/2, exact.
* The rank-one family table for divisors sum E_i - sum E_j: h0/h1/h2 as a
  function of (d, q1, q2), cross-checked against Riemann-Roch.
* Serre duality h^i(D) = h^{2-i}(K - D).
* Degree vanishing: on a rank-one target with ample -K, a divisor of negative
  degree has no sections.
* The pair-shift rewriting 2E_i ~ 2E_j, used to exhibit effective ample
  representatives, feeding the vanishing rule for effective nef and big
  divisors (h1(-D) = 0 and h1(K+D) = 0).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .contract import Contraction, km_psi
from .km_surface import MIN_D, build_km_surface
from .qlattice import (
    InvariantError,
    NamedDivisor,
    Rat,
    floor_divisor,
    pair,
    pair_canonical,
)


class CohStatus:
    """A certified cohomology dimension: exact, a lower bound, or unknown."""

    def __init__(self, kind: str, value: int | None = None) -> None:
        self.kind = kind  # "exact" | "at_least_one" | "unknown"
        self.value = value

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.value) == (other.kind, other.value)

    def __hash__(self) -> int:
        return hash((self.kind, self.value))

    def __repr__(self) -> str:
        return f"CohStatus(kind={self.kind!r}, value={self.value!r})"

    @staticmethod
    def exact(n: int) -> "CohStatus":
        return CohStatus("exact", n)

    @staticmethod
    def zero() -> "CohStatus":
        return CohStatus.exact(0)

    @staticmethod
    def at_least_one() -> "CohStatus":
        return CohStatus("at_least_one")

    @staticmethod
    def unknown() -> "CohStatus":
        return CohStatus("unknown")

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    @property
    def is_exact_zero(self) -> bool:
        return self.kind == "exact" and self.value == 0

    def __str__(self) -> str:
        if self.kind == "exact":
            return str(self.value)
        if self.kind == "at_least_one":
            return ">=1"
        return "?"


class CohomReport:
    def __init__(
        self,
        h0: CohStatus,
        h1: CohStatus,
        h2: CohStatus,
        chi: int,
        certificates: tuple[str, ...],
    ) -> None:
        self.h0 = h0
        self.h1 = h1
        self.h2 = h2
        self.chi = chi
        self.certificates = certificates

    def __repr__(self) -> str:
        return (
            f"CohomReport(h0={self.h0!r}, h1={self.h1!r}, h2={self.h2!r}, "
            f"chi={self.chi!r}, certificates={self.certificates!r})"
        )

    def euler_consistent(self) -> bool:
        """h0 - h1 + h2 == chi whenever all three entries are exact."""
        if not (self.h0.is_exact and self.h1.is_exact and self.h2.is_exact):
            return True
        return self.h0.value - self.h1.value + self.h2.value == self.chi

    def to_json_dict(self) -> dict:
        return {
            "h0": str(self.h0),
            "h1": str(self.h1),
            "h2": str(self.h2),
            "chi": self.chi,
            "certificates": list(self.certificates),
        }


class FamilyDescriptor:
    """Parameters of the divisor sum_{i<=q1} E_i - sum_{q1<j<=q1+q2} E_j on T(d)."""

    def __init__(self, d: int, q1: int, q2: int) -> None:
        if d < MIN_D:
            raise ValueError(f"d must be >= {MIN_D}, got {d}")
        if q1 < 0 or q2 < 0:
            raise ValueError("q1 and q2 must be nonnegative")
        if q1 + q2 > d:
            raise ValueError(f"q1 + q2 = {q1 + q2} exceeds d = {d}")
        self.d = d
        self.q1 = q1
        self.q2 = q2

    def __repr__(self) -> str:
        return f"FamilyDescriptor(d={self.d!r}, q1={self.q1!r}, q2={self.q2!r})"


@lru_cache(maxsize=1)
def target_context(d: int) -> Contraction:
    """The contraction of S(d) to the rank-one target T(d).  Only the last d
    is kept: a command works on one d, and ``sweep`` visits each d once."""
    return km_psi(build_km_surface(d))


def _minus_e(d: int, subtract: int | None) -> NamedDivisor:
    """-E_subtract on T(d), or zero when no curve is subtracted."""
    if subtract is None:
        return NamedDivisor.zero()
    if not 1 <= subtract <= d:
        raise ValueError(f"subtract index out of range 1..{d}: {subtract}")
    return NamedDivisor.of({f"E_{subtract}": -1})


def family_divisor(fam: FamilyDescriptor) -> NamedDivisor:
    """sum_{i<=q1} E_i - sum_{q1<j<=q1+q2} E_j, built from its numerators: the
    names E_1, E_2, ... are already in ``curve_sort_key`` order."""
    q1 = fam.q1
    return NamedDivisor(
        1, {f"E_{i}": 1 if i <= q1 else -1 for i in range(1, q1 + fam.q2 + 1)}
    )


def _family_shift(fam: FamilyDescriptor) -> int:
    """t = floor((q1-q2)/(2d-4)), the one shift in every family closed form."""
    return (fam.q1 - fam.q2) // (2 * fam.d - 4)


def chi_rr(surface, D: NamedDivisor) -> int:
    """Riemann-Roch Euler characteristic of an integral divisor, exact.

    chi(D) = 1 + D.(D - K)/2; a non-integral result means the divisor or the
    lattice is invalid and is reported as an error, never rounded.
    """
    if not D.is_integral():
        raise ValueError(f"divisor is not integral: {D}")
    reg = surface.registry
    return _riemann_roch(pair(reg, D, D) - pair_canonical(reg, D))


def _riemann_roch(d_dot_d_minus_k: Rat) -> int:
    """1 + D.(D - K)/2, raising unless it is an integer: chi(O) = 1 on every
    surface here, a blow-up of the plane."""
    value = 1 + Fraction(d_dot_d_minus_k, 2)
    if value.denominator != 1:
        raise InvariantError(f"Riemann-Roch value is not an integer: {value}")
    return int(value)


def floor_pullback_stats(fam: FamilyDescriptor) -> tuple[NamedDivisor, Rat, Rat]:
    """``(floored, square, dot)``: the floor of the pulled-back family
    divisor, its square, and its degree against -K on the source,
    cross-checked against the closed forms.

    With t = floor((q1-q2)/(2d-4)):
      square = -(q1+q2) + 2(q1-q2) t + t^2 (4-2d)
      dot    = (6-2d) t + (q1-q2)
    A mismatch between lattice arithmetic and the closed form is an internal
    error.
    """
    psi = target_context(fam.d)
    floored = floor_divisor(psi.pullback(family_divisor(fam)))
    square = pair(psi.registry, floored, floored)
    dot = -pair_canonical(psi.registry, floored)

    d, q1, q2 = fam.d, fam.q1, fam.q2
    t = _family_shift(fam)
    square_closed = -(q1 + q2) + 2 * (q1 - q2) * t + t * t * (4 - 2 * d)
    dot_closed = (6 - 2 * d) * t + (q1 - q2)
    if square != square_closed or dot != dot_closed:
        raise InvariantError(
            f"floor-pullback closed forms disagree with the lattice at {fam}: "
            f"square {square} vs {square_closed}, dot {dot} vs {dot_closed}"
        )
    return floored, square, dot


def km_family_cohomology(fam: FamilyDescriptor) -> CohomReport:
    """h^i of the family divisor on the rank-one target.

    chi is computed twice, from the closed form and from Riemann-Roch on the
    floored pullback; disagreement raises.  h2 is always zero (its Serre dual
    is a divisor without sections); h0 is zero for q2 > 0, exact 1 for the
    trivial divisor, and only bounded below when q2 = 0 < q1; h1 follows the
    rank-one family table.
    """
    d, q1, q2 = fam.d, fam.q1, fam.q2
    t = _family_shift(fam)
    chi_closed = 1 - q2 + (q1 - q2 - d + 3) * t - t * t * (d - 2)
    # Riemann-Roch on the floor D: D.(D - K) = D.D + D.(-K)
    _, square, dot = floor_pullback_stats(fam)
    chi_lattice = _riemann_roch(square + dot)
    if chi_closed != chi_lattice:
        raise InvariantError(
            f"chi closed form {chi_closed} != Riemann-Roch {chi_lattice} at {fam}"
        )

    certificates = ["chi:closed-form", "chi:riemann-roch-on-floor-pullback"]

    if q2 > 0:
        h0 = CohStatus.zero()
        certificates.append("h0:no-sections-by-fibre-restriction")
    elif q1 > 0:
        h0 = CohStatus.at_least_one()
        certificates.append("h0:effective-floor")
    else:
        h0 = CohStatus.exact(1)
        certificates.append("h0:trivial-divisor")

    h2 = CohStatus.zero()
    certificates.append("h2:duality-to-no-sections")

    if q2 == 0:
        h1 = CohStatus.zero()
        certificates.append("h1:rank-one-family-table(q2=0)")
    elif q1 >= q2:
        h1 = CohStatus.exact(q2 - 1)
        certificates.append("h1:rank-one-family-table(q1>=q2>0)")
    else:
        h1 = CohStatus.exact(q1)
        certificates.append("h1:rank-one-family-table(q2>q1)")

    report = CohomReport(
        h0=h0, h1=h1, h2=h2, chi=chi_closed, certificates=tuple(certificates)
    )
    if not report.euler_consistent():
        raise InvariantError(f"Euler consistency failed at {fam}: {report}")
    return report


def serre_dual(psi: Contraction, D: NamedDivisor) -> NamedDivisor:
    """K - D on the target; callers pair it with h^i(D) = h^{2-i}(K - D)."""
    return psi.target_canonical() - D


def h0_zero_by_degree(psi: Contraction, D: NamedDivisor) -> CohStatus:
    """No-sections test by degree sign on the rank-one target.

    Negative degree has no sections.  Zero degree concludes nothing: the
    pullback of D is orthogonal to every contracted curve, so on the
    nondegenerate lattice it lies on the line of pullback(-K), whose square
    is positive, and degree zero makes it numerically trivial.
    """
    return CohStatus.zero() if psi.degree(D) < 0 else CohStatus.unknown()


def _e_index(name: str) -> int:
    return int(name.split("_", 1)[1])


def effective_ample_rewrite(
    psi: Contraction, D: NamedDivisor
) -> NamedDivisor | None:
    """Effective representative of D under the pair shifts 2E_i ~ 2E_j, if any.

    Shifting a pair of 2's between components preserves the coefficient sum
    and every coefficient's parity, and reaches every vector with the same
    sum and parities.  So an effective representative exists iff the sum is
    at least the number of odd coefficients; the representative returned puts
    the surplus on the highest-indexed curve in the support.
    """
    if not D.is_integral():
        raise ValueError(f"rewrite needs an integral divisor: {D}")
    for name in D.support():
        if not name.startswith("E_"):
            raise ValueError(f"rewrite needs support on the E curves, got {name}")
        _e_index_check = _e_index(name)
        if not 1 <= _e_index_check <= psi.surface.d:
            raise ValueError(f"curve index out of range: {name}")
    coeffs = D.nums  # integral: den is 1
    total = sum(coeffs.values())
    parities = {n: c % 2 for n, c in coeffs.items()}
    needed = sum(parities.values())
    if total < needed:
        return None
    rep = {n: p for n, p in parities.items() if p}
    surplus = total - needed
    if surplus:
        anchor = max(coeffs, key=_e_index)
        rep[anchor] = rep.get(anchor, 0) + surplus
    return NamedDivisor.of(rep)


def h1_vanish_eff_nef_big(psi: Contraction, D: NamedDivisor) -> bool:
    """Vanishing rule for divisors with an effective representative and
    positive degree: True when it certifies h1(-D) = 0 and h1(K+D) = 0,
    through the pair-shift rewrite and the vanishing for effective nef and
    big divisors."""
    rep = effective_ample_rewrite(psi, D)
    return rep is not None and not rep.is_zero() and psi.degree(D) > 0


def _minus_k_as_e(d: int) -> NamedDivisor:
    """-K on the target rewritten with support on the E curves: 2 E_d."""
    return NamedDivisor.of({f"E_{d}": 2})


def cohomology_of_nA(
    fam: FamilyDescriptor, n: int, subtract: int | None = None
) -> CohomReport:
    """Certified h^i of n.A (optionally minus one E curve) on the target.

    Dispatch: n = 0 is the structure sheaf (possibly minus a curve); n = 1 is
    the family table, with a subtracted fresh curve absorbed into the
    negative block; n >= 2 uses the effective-nef-big vanishing route for h1
    and degree vanishing of the Serre dual for h2.  Anything outside rule
    coverage is reported Unknown, never guessed.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 1 and subtract is None:
        return km_family_cohomology(fam)
    divisor = family_divisor(fam).scale(n) + _minus_e(fam.d, subtract)

    psi = target_context(fam.d)
    chi = chi_rr(psi.surface, floor_divisor(psi.pullback(divisor)))
    certs = ["chi:riemann-roch-on-floor-pullback"]

    if n == 0 and subtract is None:
        return CohomReport(
            h0=CohStatus.exact(1),
            h1=CohStatus.zero(),
            h2=CohStatus.zero(),
            chi=chi,
            certificates=tuple(
                certs + ["h0:trivial-divisor", "h1:rational-surface", "h2:rational-surface"]
            ),
        )

    if n == 0:
        h0 = h0_zero_by_degree(psi, divisor)
        if h0.is_exact_zero:
            certs.append("h0:negative-degree")
        h2 = h0_zero_by_degree(psi, serre_dual(psi, divisor))
        if h2.is_exact_zero:
            certs.append("h2:duality+negative-degree")
        return CohomReport(
            h0=h0, h1=CohStatus.unknown(), h2=h2, chi=chi,
            certificates=tuple(certs),
        )

    if n == 1:
        if subtract > fam.q1 + fam.q2:
            # fresh curve: A - E_j is the (q1, q2+1) family up to reindexing
            report = km_family_cohomology(
                FamilyDescriptor(fam.d, fam.q1, fam.q2 + 1)
            )
            if report.chi != chi:
                raise InvariantError(
                    f"absorbed family chi {report.chi} != divisor chi {chi}"
                )
            return CohomReport(
                report.h0,
                report.h1,
                report.h2,
                report.chi,
                report.certificates + ("subtract:absorbed-into-negative-block",),
            )
        return CohomReport(
            h0=CohStatus.unknown(),
            h1=CohStatus.unknown(),
            h2=CohStatus.unknown(),
            chi=chi,
            certificates=tuple(certs + ["coverage:subtracted-curve-not-fresh"]),
        )

    # n >= 2
    if fam.q1 <= fam.q2:
        return CohomReport(
            h0=CohStatus.unknown(),
            h1=CohStatus.unknown(),
            h2=CohStatus.unknown(),
            chi=chi,
            certificates=tuple(certs + ["coverage:family-not-ample"]),
        )

    h1 = CohStatus.unknown()
    shifted = divisor + _minus_k_as_e(fam.d)  # divisor - K, with -K ~ 2 E_d
    if h1_vanish_eff_nef_big(psi, shifted):
        # h1(K + (divisor - K)) = h1(divisor) = 0
        h1 = CohStatus.zero()
        certs += [
            "rewrite:pair-shifts",
            "h1:vanishing-effective-nef-big",
            "h1:applied-to-divisor-minus-canonical",
        ]

    dual = serre_dual(psi, divisor)
    h2 = h0_zero_by_degree(psi, dual)
    if h2.is_exact_zero:
        certs.append("h2:duality+negative-degree")

    h0 = CohStatus.unknown()
    rep = effective_ample_rewrite(psi, divisor)
    if rep is not None:
        h0 = CohStatus.at_least_one() if not rep.is_zero() else CohStatus.exact(1)
        certs.append("h0:effective-rewrite")
    else:
        by_degree = h0_zero_by_degree(psi, divisor)
        if by_degree.is_exact_zero:
            h0 = by_degree
            certs.append("h0:negative-degree")

    return CohomReport(h0=h0, h1=h1, h2=h2, chi=chi, certificates=tuple(certs))


def uniform_h1_chain_zero(
    fam: FamilyDescriptor, at_two: CohomReport
) -> tuple[bool, tuple[str, ...]]:
    """``(holds, tokens)``: one certificate covering h1(nA) = 0 for all
    n >= 2, given the report ``at_two = cohomology_of_nA(fam, 2)`` the caller
    already holds; the verifier that prints it names the claim.

    Validity rests on a finite check plus monotonicity: feasibility of the
    pair-shift rewrite depends on the coefficient sum (strictly increasing in
    n when the family has positive degree) and the parity pattern (period two
    in n), so checking one even and one odd n certifies the whole tail.
    """
    if fam.q1 <= fam.q2:
        return False, ("coverage:family-not-ample",)
    for n in (2, 3):  # one even and one odd case; the sum grows with n
        report = at_two if n == 2 else cohomology_of_nA(fam, n)
        if not report.h1.is_exact_zero:
            return False, (f"coverage:gap-at-n={n}",)
    return True, (
        "rewrite:pair-shifts",
        "h1:vanishing-effective-nef-big",
        "uniform:even-odd-cases+monotone-coefficient-sum",
    )


def uniform_h2_chain_zero(
    fam: FamilyDescriptor, at_zero: CohomReport
) -> tuple[bool, tuple[str, ...]]:
    """``(holds, tokens)``: one certificate covering h2(nA - E) = 0 for all
    n >= 0, given the report ``at_zero = cohomology_of_nA(fam, 0,
    subtract=j)`` the caller already holds, E = E_j.

    The Serre dual K - nA + E has degree strictly decreasing in n (the family
    divisor has positive degree), so the negative degree that certifies
    h2(-E) = 0 at n = 0 certifies every larger n.
    """
    if target_context(fam.d).degree(family_divisor(fam)) <= 0:
        return False, ("coverage:family-not-ample",)
    if at_zero.h2.is_exact_zero:
        return True, ("h2:duality+negative-degree", "uniform:degree-strictly-decreasing")
    return False, ("coverage:degree-not-negative",)
