"""Birational contractions of curve sets on a lattice surface.

A :class:`Contraction` collapses a negative-definite set of named curves.
Divisors on the target are written through proper transforms, i.e. as named
divisors avoiding the contracted names; the numerical pullback is the unique
extension orthogonal to every contracted curve.  Discrepancies, pair
singularity classes, and all target intersection numbers derive from that one
solve.  Pullback is linear, so the solve runs once per curve name, on that
curve's row of the registry's named pairing table, as ints over the common
denominator N of the block-wise Gram inverse; a pulled-back divisor is
returned as its integer numerators over den(D) * N, and no step from the
divisor to its degree builds a ``Fraction`` per term.  pullback(-K_T) is
built once.
Ampleness on the target is a degree sign, used only where the contraction
itself shows that the target has Picard rank one and that -K_T is nonzero and
effective, hence ample.

The discrepancies and the singularity classification are returned as the
plain dicts the CLI prints, with exact ``Fraction`` values;
:meth:`Contraction.residual_checks` re-checks the discrepancy solve on dense
classes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm

from .km_surface import KMSurface
from .qlattice import (
    NamedDivisor,
    Rat,
    _eliminate,
    class_of,
    curve_sort_key,
    floor_divisor,
    intersect,
    pair,
)


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

    def __init__(self, surface, contracted: tuple[str, ...]) -> None:
        if len(set(contracted)) != len(contracted):
            raise ValueError("contracted curve names must be distinct")
        self.surface = surface  # anything with .registry (e.g. KMSurface)
        self.contracted = tuple(sorted(contracted, key=curve_sort_key))
        self._contracted_set = frozenset(contracted)
        self._corrections: dict[str, dict[str, int]] = {}  # by _correction
        self._inverse_den  # reads gram_inverse: raises unless G is negative definite

    @property
    def lattice(self):
        return self.registry.lattice

    @property
    def registry(self):
        return self.surface.registry

    @cached_property
    def contracted_classes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.registry.class_vector(n) for n in self.contracted)

    @cached_property
    def gram_inverse(self) -> dict[str, dict[str, Rat]]:
        """Inverse of the contracted Gram block G as sparse rows keyed by curve
        name, in contraction order.  G, read from the named pairing table, has
        one block per connected component of the curves' intersection graph
        (S(d) has 2d+1 one-curve blocks), each inverted by one elimination of
        [G_b | I] over ``Fraction`` that also certifies it: G is negative
        definite iff no elimination swaps rows or has a pivot >= 0.  A linearly
        dependent set has a singular block and fails too."""
        rows_of = {name: self.registry.pairing_row(name) for name in self.contracted}
        inverse: dict[str, dict[str, Rat]] = {}
        for start in self.contracted:
            if start in inverse:
                continue
            block = [start]
            for a in block:  # breadth-first: the block grows while it is read
                block.extend(o for o in rows_of[a] if o in rows_of and o not in block)
            block.sort(key=curve_sort_key)
            k = len(block)
            rows = [
                [Fraction(rows_of[a].get(b, 0)) for b in block]
                + [Fraction(int(a == b)) for b in block]
                for a in block
            ]
            pivots, swaps = _eliminate(rows, k)
            if swaps or len(pivots) < k or any(p >= 0 for p in pivots):
                raise ValueError("contracted Gram block is not negative definite")
            for a, row in zip(block, rows):
                inverse[a] = {b: x for b, x in zip(block, row[k:]) if x}
        return {name: inverse[name] for name in self.contracted}

    @cached_property
    def _inverse_den(self) -> int:
        """N, the common denominator of G^{-1}; corrections are ints over N."""
        rows = self.gram_inverse.values()
        return lcm(*(x.denominator for row in rows for x in row.values()))

    def _solve(self, dots: dict[str, int]) -> dict[str, int]:
        """Numerators over N of x = -G^{-1}(D.C_j), the combination of
        contracted curves with (D + x).C_j = 0 for every C_j, given
        dots[C_j] = D.C_j (G^{-1} is symmetric: row C_j is column C_j)."""
        den = self._inverse_den
        acc: dict[str, int] = {}
        for j, dot in dots.items():
            for name, g in self.gram_inverse[j].items():
                g_num = g.numerator * (den // g.denominator)
                acc[name] = acc.get(name, 0) - g_num * dot
        return {name: x for name, x in acc.items() if x}

    def _correction(self, name: str) -> dict[str, int]:
        """Exceptional part of the pullback of one named curve, as numerators
        over N, solved once from that curve's row of the named pairing table."""
        memo = self._corrections
        if name not in memo:
            inverse, row = self.gram_inverse, self.registry.pairing_row(name)
            memo[name] = self._solve({o: x for o, x in row.items() if o in inverse})
        return memo[name]

    def _refuse_contracted(self, D: NamedDivisor) -> None:
        bad = [n for n in D.nums if n in self._contracted_set]
        if bad:
            raise ValueError(
                f"divisor mentions contracted curves: {', '.join(bad)}"
            )

    def pullback(self, D: NamedDivisor) -> NamedDivisor:
        """Numerical pullback of a target divisor given via proper transforms:
        D plus the sum of c * (the correction of C) over the terms c*C of D,
        returned as its integer numerators over den(D) * N."""
        self._refuse_contracted(D)
        n_den = self._inverse_den
        acc = {name: a * n_den for name, a in D.nums.items()}
        for name, a in D.nums.items():
            for other, x in self._correction(name).items():
                acc[other] = acc.get(other, 0) + a * x
        return NamedDivisor.reduced(
            D.den * n_den, {n: acc[n] for n in sorted(acc, key=curve_sort_key)}
        )

    def pushforward(self, D: NamedDivisor) -> NamedDivisor:
        """Drop the contracted-curve terms; an unknown curve name raises."""
        self.registry.check_names(D.nums.keys())
        return D.drop(self.contracted)

    def pullback_class(self, D: NamedDivisor) -> tuple[Rat, ...]:
        return class_of(self.registry, self.pullback(D))

    def target_intersect(self, D1: NamedDivisor, D2: NamedDivisor) -> Rat:
        """Intersection number on the target, computed as D1 . pullback(D2):
        the exceptional part of pullback(D1) is orthogonal to pullback(D2)."""
        self._refuse_contracted(D1)
        self.registry.check_names(D1.nums.keys())  # report D1's errors first
        return pair(self.registry, D1, self.pullback(D2))

    def target_canonical(self) -> NamedDivisor:
        """K of the target through proper transforms (needs K named on the source)."""
        return self.pushforward(self.surface.canonical_named)

    def minus_k_target(self) -> NamedDivisor:
        return -self.target_canonical()

    @cached_property
    def _minus_k_pullback(self) -> NamedDivisor:
        return self.pullback(self.minus_k_target())

    def degree(self, D: NamedDivisor) -> Rat:
        """D . (-K) on the target, against the one cached pullback(-K_T)."""
        self._refuse_contracted(D)
        return pair(self.registry, D, self._minus_k_pullback)

    @cached_property
    def _minus_k_target_ample(self) -> bool:
        """Picard rank one and -K_T nonzero and effective, hence ample: on a
        projective surface of Picard rank one a nonzero effective divisor is."""
        if self.picard_rank_after() != 1:
            return False
        minus_k = self.minus_k_target().nums
        return bool(minus_k) and all(x > 0 for x in minus_k.values())

    def is_ample_rho1(self, D: NamedDivisor) -> bool:
        """Ampleness on a rank-one target with ample -K: positive degree."""
        if not self._minus_k_target_ample:
            raise ValueError(
                "target is not of Picard rank one with -K nonzero and effective"
            )
        return self.degree(D) > 0

    @cached_property
    def _canonical_correction(self) -> dict[str, int]:
        return self._solve({n: self.registry.canonical_dot(n) for n in self.contracted})

    def relative_canonical(self) -> dict[str, Rat]:
        """Discrepancies {C: a_C} with K_source = pullback(K_target) + sum a_C C."""
        correction, den = self._canonical_correction, self._inverse_den
        return {n: Fraction(-correction.get(n, 0), den) for n in self.contracted}

    def residual_checks(self) -> bool:
        """(K_source - sum a_C C) . C' == 0 for every contracted C', exactly,
        on dense classes: the check of the discrepancy solve."""
        correction = class_of(
            self.registry,
            NamedDivisor.of({n: -a for n, a in self.relative_canonical().items()}),
        )
        relative = tuple(k + c for k, c in zip(self.lattice.canonical, correction))
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
                raise ValueError(
                    f"boundary coefficient of {name} outside [0,1]: {c}"
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
