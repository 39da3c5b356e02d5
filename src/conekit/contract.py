"""Birational contractions of curve sets on a lattice surface.

A :class:`Contraction` collapses a negative-definite set of named curves.
Divisors on the target are written through proper transforms, i.e. as named
divisors avoiding the contracted names; the numerical pullback is the unique
extension orthogonal to every contracted curve.  Discrepancies, pair
singularity classes, and all target intersection numbers derive from that one
solve.  Pullback is linear, so the solve runs once per curve name, on that
curve's row of the registry's named pairing table.  Ampleness on the target
is a degree sign, used only where the contraction itself shows that the target
has Picard rank one and that -K_T is nonzero and effective, hence ample.

The discrepancies and the singularity classification are returned as the
plain dicts the CLI prints, with exact ``Fraction`` values;
:meth:`Contraction.residual_checks` re-checks the discrepancy solve on dense
class vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .km_surface import KMSurface
from .qlattice import (
    ClassVector,
    NamedDivisor,
    Rat,
    _eliminate,
    class_of,
    curve_sort_key,
    floor_divisor,
    format_rat,
    intersect,
    pair,
)


class ContractionError(ValueError):
    pass


@dataclass(frozen=True)
class Contraction:
    """Contraction of ``contracted`` (curve names) on ``surface``, kept in
    ``curve_sort_key`` order, the order of every table read from it.

    >>> from .km_surface import build_km_surface
    >>> psi = km_psi(build_km_surface(5))
    >>> print(psi.pullback(NamedDivisor.of({"E_1": 1})))
    E_1 + 1/6*Gamma + 1/2*l_1 + 1/2*lp_1
    >>> psi.relative_canonical()["Gamma"]
    Fraction(-2, 3)
    """

    surface: object  # anything with .registry (e.g. KMSurface)
    contracted: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.contracted)) != len(self.contracted):
            raise ContractionError("contracted curve names must be distinct")
        ordered = tuple(sorted(self.contracted, key=curve_sort_key))
        object.__setattr__(self, "contracted", ordered)
        self.gram_inverse  # raises unless the Gram block is negative definite

    @property
    def lattice(self):
        return self.registry.lattice

    @property
    def registry(self):
        return self.surface.registry

    @cached_property
    def contracted_classes(self) -> tuple[ClassVector, ...]:
        return tuple(self.registry.class_vector(n) for n in self.contracted)

    @cached_property
    def gram_inverse(self) -> tuple[tuple[Rat, ...], ...]:
        """Inverse of the contracted Gram block, computed once and reused by
        every pullback/discrepancy solve.

        The block is read from the registry's named pairing table.  One
        elimination of [G | I] also certifies the contraction (read by
        construction): as in ``is_negative_definite``, G is negative definite
        iff the elimination makes no row swap and all k pivots are negative.
        A linearly dependent set has a singular G and fails too.
        """
        k = len(self.contracted)
        rows = []
        for i, name in enumerate(self.contracted):
            row = self.registry.pairing_row(name)
            rows.append(
                [row.get(other, Fraction(0)) for other in self.contracted]
                + [Fraction(int(i == j)) for j in range(k)]
            )
        pivots, swaps = _eliminate(rows, k)
        if swaps or len(pivots) < k or any(p >= 0 for p in pivots):
            raise ContractionError("contracted Gram block is not negative definite")
        return tuple(tuple(row[k:]) for row in rows)

    def _solve(self, dots: list[Rat]) -> NamedDivisor:
        """The combination x of contracted curves with (D + x).C_j = 0 for
        every contracted C_j, given dots[j] = D.C_j: x = -G^{-1}(D.C_j).

        Zero right-hand-side entries are skipped, and so are zero entries of
        the inverse (G^{-1} is symmetric, so its row j is its column j).
        """
        acc: dict[str, Rat] = {}
        for dot, inverse_row in zip(dots, self.gram_inverse):
            if dot:
                for name, g in zip(self.contracted, inverse_row):
                    if g:
                        acc[name] = acc.get(name, 0) - g * dot
        return NamedDivisor.of(acc)

    @cached_property
    def _corrections(self) -> dict[str, NamedDivisor]:
        return {}

    def _correction(self, name: str) -> NamedDivisor:
        """Exceptional part of the pullback of one named curve, solved once
        from that curve's row of the named pairing table."""
        memo = self._corrections
        hit = memo.get(name)
        if hit is None:
            row = self.registry.pairing_row(name)
            hit = memo[name] = self._solve(
                [row.get(other, 0) for other in self.contracted]
            )
        return hit

    def _refuse_contracted(self, D: NamedDivisor) -> None:
        bad = [n for n in D.support() if n in self.contracted]
        if bad:
            raise ContractionError(
                f"divisor mentions contracted curves: {', '.join(bad)}"
            )

    def pullback(self, D: NamedDivisor) -> NamedDivisor:
        """Numerical pullback of a target divisor given via proper transforms:
        D plus the sum of c * (the correction of C) over the terms c*C of D."""
        self._refuse_contracted(D)
        terms = list(D.entries)
        for name, c in D.entries:
            terms.extend((other, c * x) for other, x in self._correction(name).entries)
        return NamedDivisor.of(terms)

    def pushforward(self, D: NamedDivisor) -> NamedDivisor:
        """Drop the contracted-curve terms."""
        return D.drop(self.contracted)

    def pullback_class(self, D: NamedDivisor) -> ClassVector:
        return class_of(self.registry, self.pullback(D))

    def target_intersect(self, D1: NamedDivisor, D2: NamedDivisor) -> Rat:
        """Intersection number on the target, computed as D1 . pullback(D2):
        the exceptional part of pullback(D1) is orthogonal to pullback(D2)."""
        self._refuse_contracted(D1)
        self.registry.check_names(D1.terms.keys())  # report D1's errors first
        return pair(self.registry, D1, self.pullback(D2))

    def target_canonical(self) -> NamedDivisor:
        """K of the target through proper transforms (needs K named on the source)."""
        return self.pushforward(self.surface.canonical_named)

    def minus_k_target(self) -> NamedDivisor:
        return -self.target_canonical()

    def degree(self, D: NamedDivisor) -> Rat:
        """D . (-K) on the target."""
        return self.target_intersect(D, self.minus_k_target())

    @cached_property
    def _minus_k_target_ample(self) -> bool:
        """Picard rank one and -K_T nonzero and effective, hence ample: on a
        projective surface of Picard rank one a nonzero effective divisor is."""
        if self.picard_rank_after() != 1:
            return False
        minus_k = self.minus_k_target().entries
        return bool(minus_k) and all(c > 0 for _, c in minus_k)

    def is_ample_rho1(self, D: NamedDivisor) -> bool:
        """Ampleness on a rank-one target with ample -K: positive degree."""
        if not self._minus_k_target_ample:
            raise ContractionError(
                "target is not of Picard rank one with -K nonzero and effective"
            )
        return self.degree(D) > 0

    @cached_property
    def _canonical_correction(self) -> NamedDivisor:
        return self._solve([self.registry.canonical_dot(n) for n in self.contracted])

    def relative_canonical(self) -> dict[str, Rat]:
        """Discrepancies {C: a_C} with K_source = pullback(K_target) + sum a_C C."""
        correction = self._canonical_correction.terms
        return {name: -correction.get(name, Fraction(0)) for name in self.contracted}

    def residual_checks(self) -> bool:
        """(K_source - sum a_C C) . C' == 0 for every contracted C', exactly,
        on dense class vectors: the check of the discrepancy solve."""
        correction = class_of(
            self.registry,
            NamedDivisor.of({n: -a for n, a in self.relative_canonical().items()}),
        )
        relative = self.lattice.canonical + correction
        return all(
            intersect(self.lattice, relative, c) == 0 for c in self.contracted_classes
        )

    def classify_singularities(self, boundary: NamedDivisor | None = None) -> dict:
        """Classify the target pair (target, boundary) along this contraction.

        Uses the minimal-resolution criterion: only the discrepancies of the
        curves contracted by this map are inspected, with the boundary given
        on the target by proper-transform names and folded in through its
        pullback coefficients.  ``classification`` is the finest label
        (terminal < canonical < klt < plt < lc); ``klt`` is the coarser
        membership, e.g. a crepant contraction is canonical, hence also klt.
        """
        boundary = boundary if boundary is not None else NamedDivisor.zero()
        for name, c in boundary.entries:
            if c < 0 or c > 1:
                raise ContractionError(
                    f"boundary coefficient of {name} outside [0,1]: {format_rat(c)}"
                )
        boundary_pull = self.pullback(boundary).terms
        table = {
            name: a - boundary_pull.get(name, Fraction(0))
            for name, a in self.relative_canonical().items()
        }
        lowest = min(table.values())
        boundary_floor_zero = floor_divisor(boundary).is_zero()
        if lowest > 0:
            label = "terminal"
        elif lowest >= 0:
            label = "canonical"
        elif lowest > -1 and boundary_floor_zero:
            label = "klt"
        elif lowest > -1:
            label = "plt"
        elif lowest >= -1:
            label = "lc"
        else:
            label = "not-lc"
        return {
            "classification": label,
            "klt": lowest > -1 and boundary_floor_zero,
            "min_discrepancy": lowest,
            "discrepancies": table,
            "certificate": "minimal-resolution criterion",
        }

    def picard_rank_after(self) -> int:
        return self.lattice.rank - len(self.contracted)


def km_psi(surface: KMSurface) -> Contraction:
    """The contraction of Gamma and all fibre (-2)-curves on S(d), onto a
    target of Picard rank one with -K_T = F."""
    return Contraction(surface=surface, contracted=surface.exceptional_names())
