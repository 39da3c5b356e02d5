"""Euler characteristics and certified cohomology rules on the rank-one target.

The engine never guesses a cohomology number.  Every entry of a
:class:`CohomReport` is either exact with a rule token explaining it, a
certified lower bound, or ``Unknown``.  The rules implemented are:

* Riemann-Roch on the source surface: chi(D) = 1 + D.(D-K)/2, exact, on
  the floor of the pulled-back divisor, which a :class:`FloorWalk` reaches
  one E_i at a time: every twist nA - E_j is walked to, and the sweep moves
  one walk from family to family.
* The rank-one family table for divisors sum E_i - sum E_j: h0/h1/h2 as a
  function of (d, q1, q2), cross-checked against Riemann-Roch on the floor.
* Serre duality h^i(D) = h^{2-i}(K - D), through the degree of K - D.
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
from .qlattice import InvariantError, NamedDivisor, Rat, curve_sort_key


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
    def is_exact_zero(self) -> bool | None:
        """True for an exact 0, False for a certified nonzero, None if unknown."""
        return None if self.kind == "unknown" else self.value == 0

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


@lru_cache(maxsize=1)
def _steps(psi: Contraction) -> dict[int, tuple]:
    """The steps of the walks on the target of ``psi``, by index i, each
    built by :meth:`FloorWalk.move` the first time E_i is moved: one
    pullback per index, for the last contraction walked on, so a walk to
    one family costs q1 + q2 pullbacks, and a new ``target_context``
    starts afresh, as a fresh process does."""
    return {}


@lru_cache(maxsize=1)
def _minus_k_degree(psi: Contraction) -> int:
    """deg(-K_T), through K on the lattice, as a numerator over N =
    ``psi.inverse_den``, the denominator of every walk's degree."""
    degree = psi.degree(psi.minus_k_target()) * psi.inverse_den
    if degree.denominator != 1:
        raise InvariantError(
            f"deg(-K_T) = {degree}/{psi.inverse_den} is not an integer over N"
        )
    return degree.numerator


class FloorWalk:
    """The floor F of pullback(D) for D = sum c_i E_i on the target of
    ``psi``, with F.F, F.(-K) and the degree D.pullback(-K_T), moved one E_i
    at a time.

    Pullback is linear, so ``move(i, c)`` adds c times the numerators of
    pullback(E_i) over N = ``psi.inverse_den``; for each curve C whose floor
    moves by delta it updates F.F += 2 delta (F.C) + delta^2 (C.C), reading
    F.C from C's row of the pairing table, and F.(-K) -= delta (K.C).  The
    degree of E_i is -K.pullback(E_i): pullback(-K_T) is -K plus contracted
    curves, to which pullback(E_i) is orthogonal, so it is summed once per
    step from the same K.C column.  All of it is ints: F.F and F.(-K) are
    integers, and the degree is a numerator over N, so its sign is the
    degree's.  A move costs the rows of the curves whose floor moves:
    Gamma's row has d + 2 entries, the others at most four."""

    __slots__ = ("psi", "den", "steps", "nums", "square", "dot", "degree")

    def __init__(self, psi: Contraction) -> None:
        self.psi = psi
        self.den = psi.inverse_den
        self.steps = _steps(psi)
        self.nums: dict[str, int] = {}  # of pullback(D), over den
        self.square = 0
        self.dot = 0
        self.degree = 0

    def copy(self) -> "FloorWalk":
        other = FloorWalk(self.psi)
        other.nums = dict(self.nums)
        other.square, other.dot, other.degree = self.square, self.dot, self.degree
        return other

    def move(self, i: int, c: int) -> None:
        """D += c E_i.  The step of E_i is built on its first move: the
        numerators of pullback(E_i) over den, as ``(name, numerator, pairing
        row, K.C)`` per curve C of its support, and deg(E_i) over den."""
        nums, den = self.nums, self.den
        if i not in self.steps:
            reg = self.psi.registry
            pulled = self.psi.pullback(NamedDivisor(1, {f"E_{i}": 1}))
            pulls = tuple(
                (n, x * (den // pulled.den), reg.pairing_row(n), reg.canonical_dot(n))
                for n, x in pulled.nums.items()
            )
            self.steps[i] = pulls, -sum(x * k for _, x, _, k in pulls)
        pulls, degree = self.steps[i]
        for name, x, row, k_dot in pulls:
            old = nums.get(name, 0)
            new = old + c * x
            delta = new // den - old // den
            if delta:
                f_dot_c = sum(nums[o] // den * y for o, y in row.items() if o in nums)
                self.square += delta * (2 * f_dot_c + delta * row.get(name, 0))
                self.dot -= delta * k_dot
            nums[name] = new
        self.degree += c * degree

    @property
    def ample(self) -> bool:
        """Ampleness of D on the target: positive degree, where
        ``Contraction.is_ample_rho1`` allows it (it raises otherwise)."""
        self.psi.require_rank_one()
        return self.degree > 0

    def floored(self) -> NamedDivisor:
        """F, names in ``curve_sort_key`` order."""
        den, nums = self.den, self.nums
        return NamedDivisor(1, {
            n: f for n in sorted(nums, key=curve_sort_key) if (f := nums[n] // den)
        })


def chi_rr(walk: FloorWalk) -> int:
    """Riemann-Roch Euler characteristic of the walk's floor F, exact:
    chi(F) = 1 + F.(F - K)/2 = 1 + (F.F + F.(-K))/2, raising unless it is
    an integer, since chi(O) = 1 on every surface here, a blow-up of the
    plane.  It builds no ``Fraction`` unless it raises."""
    d_dot_d_minus_k = walk.square + walk.dot
    half, odd = divmod(d_dot_d_minus_k, 2)
    if odd:
        value = 1 + Fraction(d_dot_d_minus_k, 2)
        raise InvariantError(f"Riemann-Roch value is not an integer: {value}")
    return 1 + half


def _walk_to(
    fam: FamilyDescriptor, n: int = 1, subtract: int | None = None
) -> FloorWalk:
    """The walk at n times the family divisor minus E_subtract, ``subtract``
    in 1..d: n up on each of E_1..E_q1, n down on the next q2, one down on
    E_subtract."""
    walk = FloorWalk(target_context(fam.d))
    if n:
        q1 = fam.q1
        for i in range(1, q1 + 1):
            walk.move(i, n)
        for j in range(q1 + 1, q1 + fam.q2 + 1):
            walk.move(j, -n)
    if subtract is not None:
        walk.move(subtract, -1)
    return walk


def walk_families(psi: Contraction):
    """``(fam, walk)`` for every family on T(d) = the target of ``psi``,
    q1 + q2 <= d, in lexicographic order of (q1, q2), the walk standing at
    the family divisor until the next pair is drawn: one step from (q1, q2)
    to (q1, q2 + 1), and one from (q1, 0) to (q1 + 1, 0) on a copy kept at
    (q1, 0)."""
    d = psi.surface.d
    base = FloorWalk(psi)
    for q1 in range(d + 1):
        if q1:
            base.move(q1, 1)
        walk = base.copy()
        for q2 in range(d - q1 + 1):
            if q2:
                walk.move(q1 + q2, -1)
            yield FamilyDescriptor(d, q1, q2), walk


def _checked_floor(fam: FamilyDescriptor, walk: FloorWalk) -> tuple[int, int]:
    """The walk's (F.F, F.(-K)) at ``fam``, cross-checked against the closed
    forms; a mismatch is an internal error.

    With t = floor((q1-q2)/(2d-4)):
      square = -(q1+q2) + 2(q1-q2) t + t^2 (4-2d)
      dot    = (6-2d) t + (q1-q2)
    """
    square, dot = walk.square, walk.dot
    d, q1, q2 = fam.d, fam.q1, fam.q2
    t = _family_shift(fam)
    square_closed = -(q1 + q2) + 2 * (q1 - q2) * t + t * t * (4 - 2 * d)
    dot_closed = (6 - 2 * d) * t + (q1 - q2)
    if square != square_closed or dot != dot_closed:
        raise InvariantError(
            f"floor-pullback closed forms disagree with the lattice at {fam}: "
            f"square {square} vs {square_closed}, dot {dot} vs {dot_closed}"
        )
    return square, dot


def floor_pullback_stats(fam: FamilyDescriptor) -> tuple[NamedDivisor, Rat, Rat]:
    """``(floored, square, dot)``: the floor of the pulled-back family
    divisor, its square, and its degree against -K on the source, from
    :func:`_walk_to`, cross-checked against the closed forms."""
    walk = _walk_to(fam)
    square, dot = _checked_floor(fam, walk)
    return walk.floored(), Fraction(square), Fraction(dot)


def family_report(fam: FamilyDescriptor, walk: FloorWalk) -> CohomReport:
    """h^i of the family divisor on the rank-one target, with ``walk``
    standing at it.

    chi is computed twice, from the closed form and from Riemann-Roch on the
    floored pullback; disagreement raises.  h2 is always zero (its Serre dual
    is a divisor without sections); h0 is zero for q2 > 0, exact 1 for the
    trivial divisor, and only bounded below when q2 = 0 < q1; h1 follows the
    rank-one family table.
    """
    d, q1, q2 = fam.d, fam.q1, fam.q2
    t = _family_shift(fam)
    chi_closed = 1 - q2 + (q1 - q2 - d + 3) * t - t * t * (d - 2)
    _checked_floor(fam, walk)
    chi_lattice = chi_rr(walk)
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


def km_family_cohomology(fam: FamilyDescriptor) -> CohomReport:
    """:func:`family_report` for one family, walked to by :func:`_walk_to`."""
    return family_report(fam, _walk_to(fam))


def h0_zero_by_degree(degree: Rat) -> CohStatus:
    """No-sections test by the sign of a degree on the rank-one target.

    Negative degree has no sections.  Zero degree concludes nothing: the
    pullback of D is orthogonal to every contracted curve, so on the
    nondegenerate lattice it lies on the line of pullback(-K), whose square
    is positive, and degree zero makes it numerically trivial.
    """
    return CohStatus.zero() if degree < 0 else CohStatus.unknown()


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
    for name in D.nums:
        if not name.startswith("E_"):
            raise ValueError(f"rewrite needs support on the E curves, got {name}")
        index = _e_index(name)
        if not 1 <= index <= psi.surface.d:
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


def h1_vanish_eff_nef_big(psi: Contraction, D: NamedDivisor, degree: Rat) -> bool:
    """Vanishing rule for divisors with an effective representative and
    positive degree, the sign of ``degree``: True when it certifies
    h1(-D) = 0 and h1(K+D) = 0, through the pair-shift rewrite and the
    vanishing for effective nef and big divisors."""
    rep = effective_ample_rewrite(psi, D)
    return rep is not None and not rep.is_zero() and degree > 0


def cohomology_of_nA(
    fam: FamilyDescriptor, n: int, subtract: int | None = None
) -> CohomReport:
    """Certified h^i of n.A (optionally minus one E curve) on the target.

    Dispatch: n = 0 is the structure sheaf (possibly minus a curve); n = 1 is
    the family table, with a subtracted fresh curve absorbed into the
    negative block; n >= 2 uses the effective-nef-big vanishing route for h1
    and degree vanishing of the Serre dual for h2.  Anything outside rule
    coverage is reported Unknown, never guessed.  chi and every degree are
    read from the walk to nA - E_j.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 1 and subtract is None:
        return km_family_cohomology(fam)
    minus_e = _minus_e(fam.d, subtract)  # raises before the walk moves
    walk = _walk_to(fam, n, subtract)
    chi = chi_rr(walk)
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

    psi = walk.psi
    degree_minus_k = walk.degree + _minus_k_degree(psi)  # deg(D - K)
    if n == 0:
        h0 = h0_zero_by_degree(walk.degree)
        if h0.is_exact_zero:
            certs.append("h0:negative-degree")
        h2 = h0_zero_by_degree(-degree_minus_k)  # h2(D) = h0(K - D)
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
        unknown = CohStatus.unknown()
        certs.append("coverage:subtracted-curve-not-fresh")
        return CohomReport(unknown, unknown, unknown, chi, tuple(certs))

    # n >= 2
    if fam.q1 <= fam.q2:
        unknown = CohStatus.unknown()
        certs.append("coverage:family-not-ample")
        return CohomReport(unknown, unknown, unknown, chi, tuple(certs))

    divisor = family_divisor(fam).scale(n) + minus_e
    h1 = CohStatus.unknown()
    # divisor - K with -K ~ 2 E_d, on the E curves for the pair-shift rewrite
    shifted = divisor + NamedDivisor.of({f"E_{fam.d}": 2})
    if h1_vanish_eff_nef_big(psi, shifted, degree_minus_k):
        # h1(K + (divisor - K)) = h1(divisor) = 0
        h1 = CohStatus.zero()
        certs += [
            "rewrite:pair-shifts",
            "h1:vanishing-effective-nef-big",
            "h1:applied-to-divisor-minus-canonical",
        ]

    h2 = h0_zero_by_degree(-degree_minus_k)  # h2(D) = h0(K - D)
    if h2.is_exact_zero:
        certs.append("h2:duality+negative-degree")

    h0 = CohStatus.unknown()
    rep = effective_ample_rewrite(psi, divisor)
    if rep is not None:
        h0 = CohStatus.at_least_one() if not rep.is_zero() else CohStatus.exact(1)
        certs.append("h0:effective-rewrite")
    else:
        by_degree = h0_zero_by_degree(walk.degree)
        if by_degree.is_exact_zero:
            h0 = by_degree
            certs.append("h0:negative-degree")

    return CohomReport(h0=h0, h1=h1, h2=h2, chi=chi, certificates=tuple(certs))


def uniform_h1_chain_zero(
    fam: FamilyDescriptor, at_two: CohomReport
) -> tuple[bool | None, tuple[str, ...]]:
    """``(holds, tokens)``: one certificate covering h1(nA) = 0 for all
    n >= 2, given the report ``at_two = cohomology_of_nA(fam, 2)`` the caller
    already holds; the verifier that prints it names the claim.  ``holds``
    is True when certified and None (unknown) otherwise, never False.

    Validity rests on a finite check plus monotonicity: feasibility of the
    pair-shift rewrite depends on the coefficient sum (strictly increasing in
    n when the family has positive degree) and the parity pattern (period two
    in n), so checking one even and one odd n certifies the whole tail.
    """
    if fam.q1 <= fam.q2:
        return None, ("coverage:family-not-ample",)
    for n in (2, 3):  # one even and one odd case; the sum grows with n
        report = at_two if n == 2 else cohomology_of_nA(fam, n)
        if not report.h1.is_exact_zero:
            return None, (f"coverage:gap-at-n={n}",)
    return True, (
        "rewrite:pair-shifts",
        "h1:vanishing-effective-nef-big",
        "uniform:even-odd-cases+monotone-coefficient-sum",
    )


def uniform_h2_chain_zero(
    fam: FamilyDescriptor, at_zero: CohomReport
) -> tuple[bool | None, tuple[str, ...]]:
    """``(holds, tokens)``: one certificate covering h2(nA - E) = 0 for all
    n >= 0, given the report ``at_zero = cohomology_of_nA(fam, 0,
    subtract=j)`` the caller already holds, E = E_j; ``holds`` is True or
    None, as for :func:`uniform_h1_chain_zero`.

    The Serre dual K - nA + E has degree strictly decreasing in n (the family
    divisor has positive degree), so the negative degree that certifies
    h2(-E) = 0 at n = 0 certifies every larger n.
    """
    if target_context(fam.d).degree(family_divisor(fam)) <= 0:
        return None, ("coverage:family-not-ample",)
    if at_zero.h2.is_exact_zero:
        return True, ("h2:duality+negative-degree", "uniform:degree-strictly-decreasing")
    return None, ("coverage:degree-not-negative",)
