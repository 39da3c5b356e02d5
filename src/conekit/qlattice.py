"""Exact rational divisor-class lattices.

Everything here is exact: coefficients are `fractions.Fraction` (exported as
``Rat``), intersection numbers come from a symmetric rational Gram matrix, and
every elimination is the fraction-exact Gauss-Jordan :func:`_eliminate`, with
which ``Contraction.gram_inverse`` certifies negative definiteness.  The dense
:func:`determinant`, :func:`solve_linear`, :func:`is_negative_definite`,
:func:`gram_block` and ``Contraction.pullback_class`` remain for the benchmark
tracer and the test oracles.  No floating point is used anywhere.

Two distinct representations of a divisor coexist:

* :class:`ClassVector` -- coordinates in a fixed lattice basis.  Intersection
  numbers live here.
* :class:`NamedDivisor` -- a finite formal sum of *named* irreducible curves.
  Rounding operations (:func:`floor_divisor`, :func:`frac_divisor`) act on
  this representation only, because floors are basis-dependent and the
  geometry floors in the curve basis.

A :class:`CurveRegistry` links the two.  It maps curve names to their classes
(:func:`class_of` builds the class of a named divisor), and it holds the
named pairing table: the nonzero C.C' over its curves plus a K.C column,
built once as a sparse product.  :func:`pair` and :func:`pair_canonical` read
intersection numbers of named divisors from that table without building a
class vector; the dense route through :func:`class_of` and :func:`intersect`
gives the same numbers.  Above this module the table is the one pairing
route, and the dense one runs only as a check or a reference:
``Contraction.residual_checks``, the K.C column itself, the two
class identities of ``km_sanity``, the functions the benchmark tracer names,
and the test oracles.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import floor, prod
from typing import Iterable, KeysView, Mapping, Sequence

Rat = Fraction


class LatticeError(ValueError):
    """Base class for exact-lattice failures."""


class RankMismatchError(LatticeError):
    """A class vector does not have the rank of the lattice using it."""


class DependentSubsetError(LatticeError):
    """A curve subset expected to be linearly independent is not."""


class SingularBlockError(LatticeError):
    """A Gram block expected to be invertible is singular."""


class UnknownCurveError(LatticeError):
    """A divisor mentions a curve name the registry does not know."""


def format_rat(x: Rat) -> str:
    """Serialize a rational as ``p/q`` (plain ``p`` when q == 1)."""
    return str(Fraction(x))


_NAME_SPLIT = re.compile(r"(\d+)")


def curve_sort_key(name: str) -> tuple:
    """Deterministic name ordering with numeric suffixes compared as numbers.

    Sorts ``l_2`` before ``l_10``; purely lexicographic order would not.
    """
    return tuple(int(p) if p.isdigit() else p for p in _NAME_SPLIT.split(name))


@dataclass(frozen=True)
class ClassVector:
    """A divisor class: rational coordinates in an ordered lattice basis."""

    coeffs: tuple[Rat, ...]

    @staticmethod
    def of(values: Iterable) -> "ClassVector":
        return ClassVector(tuple(Fraction(v) for v in values))

    @staticmethod
    def zero(rank: int) -> "ClassVector":
        return ClassVector((Fraction(0),) * rank)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __add__(self, other: "ClassVector") -> "ClassVector":
        if len(self) != len(other):
            raise RankMismatchError(
                f"rank mismatch: {len(self)} vs {len(other)}"
            )
        return ClassVector(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "ClassVector") -> "ClassVector":
        return self + (-other)

    def __neg__(self) -> "ClassVector":
        return ClassVector(tuple(-a for a in self.coeffs))

    def scale(self, c) -> "ClassVector":
        c = Fraction(c)
        return ClassVector(tuple(c * a for a in self.coeffs))

    def __rmul__(self, c) -> "ClassVector":
        return self.scale(c)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def __str__(self) -> str:
        return "(" + ", ".join(format_rat(a) for a in self.coeffs) + ")"


@dataclass(frozen=True)
class IntersectionLattice:
    """Ordered divisor-class basis with a symmetric rational Gram matrix;
    ``canonical`` is the class of the canonical divisor K."""

    basis_names: tuple[str, ...]
    gram: tuple[tuple[Rat, ...], ...]
    canonical: ClassVector

    @cached_property
    def _gram_support(self) -> tuple[tuple[int, ...], ...]:
        """Nonzero column indices per Gram row; the pairing loop skips the
        rest (the blow-up lattices here are diagonal)."""
        return tuple(
            tuple(j for j, x in enumerate(row) if x) for row in self.gram
        )

    def __post_init__(self):
        n = len(self.basis_names)
        if len(self.gram) != n or any(len(row) != n for row in self.gram):
            raise LatticeError("Gram matrix shape does not match basis")
        for i in range(n):
            for j in range(i):
                if self.gram[i][j] != self.gram[j][i]:
                    raise LatticeError("Gram matrix is not symmetric")
        if len(self.canonical) != n:
            raise RankMismatchError("canonical class has wrong rank")

    @property
    def rank(self) -> int:
        return len(self.basis_names)

    def check_rank(self, v: ClassVector) -> None:
        if len(v) != self.rank:
            raise RankMismatchError(
                f"vector has length {len(v)}, lattice rank is {self.rank}"
            )


def intersect(lattice: IntersectionLattice, v: ClassVector, w: ClassVector) -> Rat:
    """Intersection number v.w, i.e. the Gram pairing, exact."""
    lattice.check_rank(v)
    lattice.check_rank(w)
    support = lattice._gram_support
    wc = w.coeffs
    total = Fraction(0)
    for i, a in enumerate(v.coeffs):
        if a == 0:
            continue
        row = lattice.gram[i]
        for j in support[i]:
            b = wc[j]
            if b:
                total += a * b * row[j]
    return total


def gram_block(
    lattice: IntersectionLattice, subset: Sequence[ClassVector]
) -> list[list[Rat]]:
    return [[intersect(lattice, v, w) for w in subset] for v in subset]


def _eliminate(rows: list[list[Rat]], n_cols: int) -> tuple[list[Rat], int]:
    """Fraction-exact Gauss-Jordan elimination of ``rows``, in place.

    Pivots come from the first ``n_cols`` columns only, each from the first
    nonzero row at or below the current rank; later columns (an augmented
    right-hand side) are carried along.  Returns the pivot values in column
    order and the number of row swaps; the rank is ``len(pivots)``.
    """
    n_rows = len(rows)
    pivots: list[Rat] = []
    swaps = 0
    for col in range(n_cols):
        rank = len(pivots)
        if rank == n_rows:
            break
        pivot = next((r for r in range(rank, n_rows) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            swaps += 1
        pivot_value = rows[rank][col]
        pivots.append(pivot_value)
        inv = 1 / pivot_value
        rows[rank] = [inv * x if x else x for x in rows[rank]]
        for r in range(n_rows):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [
                    x - factor * y if y else x for x, y in zip(rows[r], rows[rank])
                ]
    return pivots, swaps


def solve_linear(matrix: Sequence[Sequence[Rat]], rhs: Sequence[Rat]) -> list[Rat]:
    """Solve M x = b exactly; raises SingularBlockError when M is singular."""
    n = len(matrix)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    if len(_eliminate(aug, n)[0]) < n:
        raise SingularBlockError("singular linear system")
    return [row[n] for row in aug]


def determinant(matrix: Sequence[Sequence[Rat]]) -> Rat:
    """Exact determinant: the signed product of the elimination pivots."""
    n = len(matrix)
    pivots, swaps = _eliminate([list(r) for r in matrix], n)
    if len(pivots) < n:
        return Fraction(0)
    return (-1) ** swaps * prod(pivots, start=Fraction(1))


def is_negative_definite(
    lattice: IntersectionLattice, subset: Sequence[ClassVector]
) -> bool:
    """True iff the Gram pairing restricted to ``subset`` is negative definite.

    Checked exactly by one elimination of the Gram block (Sylvester's
    criterion): the block is negative definite iff the elimination needs no
    row swap and every pivot is negative, since the k-th pivot is the ratio
    of the k-th and (k-1)-th leading principal minors.  A linearly dependent
    subset is rejected with :class:`DependentSubsetError` instead of
    returning False.
    """
    if not subset:
        raise LatticeError("empty subset")
    for v in subset:
        lattice.check_rank(v)
    k = len(subset)
    pivots, swaps = _eliminate(gram_block(lattice, subset), k)
    if swaps == 0 and len(pivots) == k and all(p < 0 for p in pivots):
        return True  # a nonsingular Gram block already proves independence
    coords = [list(v.coeffs) for v in subset]
    if len(_eliminate(coords, lattice.rank)[0]) < k:
        raise DependentSubsetError("subset is linearly dependent")
    return False


@dataclass(frozen=True)
class NamedDivisor:
    """Finite formal rational combination of named irreducible curves.

    Terms are kept sorted by curve name (numeric-aware) with no zero
    coefficients, so equal divisors compare and serialize identically.

    >>> D = NamedDivisor.of({"E_1": 1, "l_2": Fraction(-1, 2)})
    >>> print(D)
    E_1 - 1/2*l_2
    >>> print(D + NamedDivisor.of({"E_1": -1}))
    -1/2*l_2
    >>> print(floor_divisor(D))
    E_1 - l_2
    >>> print(frac_divisor(D))
    1/2*l_2
    """

    entries: tuple[tuple[str, Rat], ...]

    @staticmethod
    def of(terms: Mapping[str, object] | Iterable[tuple[str, object]]) -> "NamedDivisor":
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[str, Fraction] = {}
        for name, coeff in items:
            acc[name] = acc.get(name, Fraction(0)) + Fraction(coeff)
        cleaned = [(n, c) for n, c in acc.items() if c != 0]
        cleaned.sort(key=lambda item: curve_sort_key(item[0]))
        return NamedDivisor(tuple(cleaned))

    @staticmethod
    def zero() -> "NamedDivisor":
        return NamedDivisor(())

    @cached_property
    def terms(self) -> dict[str, Rat]:
        return dict(self.entries)

    def coefficient(self, name: str) -> Rat:
        for n, c in self.entries:
            if n == name:
                return c
        return Fraction(0)

    def support(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for _, c in self.entries)

    def __add__(self, other: "NamedDivisor") -> "NamedDivisor":
        return NamedDivisor.of(list(self.entries) + list(other.entries))

    def __sub__(self, other: "NamedDivisor") -> "NamedDivisor":
        return self + other.scale(-1)

    def __neg__(self) -> "NamedDivisor":
        return self.scale(-1)

    def scale(self, c) -> "NamedDivisor":
        c = Fraction(c)
        if c == 0:
            return NamedDivisor.zero()
        return NamedDivisor(tuple((n, c * a) for n, a in self.entries))

    def __rmul__(self, c) -> "NamedDivisor":
        return self.scale(c)

    def drop(self, names: Iterable[str]) -> "NamedDivisor":
        omit = set(names)
        return NamedDivisor(tuple((n, c) for n, c in self.entries if n not in omit))

    def __str__(self) -> str:
        if not self.entries:
            return "0"
        parts = []
        for name, c in self.entries:
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            body = name if mag == 1 else f"{format_rat(mag)}*{name}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out


def _map_coeffs(D: NamedDivisor, fn) -> NamedDivisor:
    return NamedDivisor.of({n: Fraction(fn(c)) for n, c in D.entries})


def floor_divisor(D: NamedDivisor) -> NamedDivisor:
    """Componentwise floor of the named-curve coefficients."""
    return _map_coeffs(D, floor)


def frac_divisor(D: NamedDivisor) -> NamedDivisor:
    """Componentwise fractional part; floor_divisor(D) + frac_divisor(D) == D."""
    return _map_coeffs(D, lambda c: c - floor(c))


@dataclass(frozen=True)
class CurveRegistry:
    """Curve name -> class table; all classes share one lattice."""

    lattice: IntersectionLattice
    entries: tuple[tuple[str, ClassVector], ...]

    @staticmethod
    def of(
        lattice: IntersectionLattice, entries: Mapping[str, ClassVector]
    ) -> "CurveRegistry":
        ordered = sorted(entries.items(), key=lambda item: curve_sort_key(item[0]))
        for _, cls in ordered:
            lattice.check_rank(cls)
        return CurveRegistry(lattice, tuple(ordered))

    @cached_property
    def _by_name(self) -> dict[str, ClassVector]:
        return dict(self.entries)

    @cached_property
    def _pairing_rows(self) -> dict[str, dict[str, Rat]]:
        """Nonzero C.C' per named curve C, keyed by the name of C'.

        A sparse product: each nonzero coordinate of C is carried through the
        Gram support to the coordinates it meets, and from there through an
        index to the curves with a nonzero coefficient on them, so a pair of
        curves that share no coordinate costs nothing.
        """
        lat = self.lattice
        coords = {
            name: [(i, a) for i, a in enumerate(cls.coeffs) if a]
            for name, cls in self.entries
        }
        touching: dict[int, list[tuple[str, Rat]]] = {}
        for name, nonzero in coords.items():
            for j, b in nonzero:
                touching.setdefault(j, []).append((name, b))
        rows = {}
        for name, nonzero in coords.items():
            row: dict[str, Rat] = {}
            for i, a in nonzero:
                for j in lat._gram_support[i]:
                    ag = a * lat.gram[i][j]
                    for other, b in touching.get(j, ()):
                        row[other] = row.get(other, 0) + ag * b
            rows[name] = {other: x for other, x in row.items() if x}
        return rows

    @cached_property
    def _canonical_dots(self) -> dict[str, Rat]:
        """K.C per named curve C, read from the lattice's canonical class."""
        lat = self.lattice
        return {
            name: intersect(lat, lat.canonical, cls) for name, cls in self.entries
        }

    @staticmethod
    def _lookup(table: dict, name: str):
        value = table.get(name)
        if value is None:
            raise UnknownCurveError(f"unknown curve name: {name!r}")
        return value

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.entries)

    def class_vector(self, name: str) -> ClassVector:
        return self._lookup(self._by_name, name)

    def pairing_row(self, name: str) -> dict[str, Rat]:
        """The nonzero C.C' of the named curve C, keyed by the name of C'."""
        return self._lookup(self._pairing_rows, name)

    def check_names(self, names: KeysView[str]) -> None:
        """Raise on the first of ``names`` the registry does not know."""
        known = self._pairing_rows
        if not names <= known.keys():
            self._lookup(known, next(n for n in names if n not in known))

    def canonical_dot(self, name: str) -> Rat:
        """K.C for the named curve C."""
        return self._lookup(self._canonical_dots, name)


def class_of(registry: CurveRegistry, D: NamedDivisor) -> ClassVector:
    """The class of a named divisor: the matching combination of curve classes."""
    out = ClassVector.zero(registry.lattice.rank)
    for name, coeff in D.entries:
        out = out + registry.class_vector(name).scale(coeff)
    return out


def pair(registry: CurveRegistry, D1: NamedDivisor, D2: NamedDivisor) -> Rat:
    """Intersection number D1.D2 read from the named pairing table, exact.

    Equal to ``intersect(lattice, class_of(registry, D1), class_of(registry,
    D2))`` without building either class vector; an unknown curve name
    raises as in :func:`class_of`.
    """
    rows = [(c, registry.pairing_row(name)) for name, c in D1.entries]
    coeffs = D2.terms
    registry.check_names(coeffs.keys())
    total = Fraction(0)
    for c, row in rows:
        for name, x in row.items():
            b = coeffs.get(name)
            if b:
                total += c * b * x
    return total


def pair_canonical(registry: CurveRegistry, D: NamedDivisor) -> Rat:
    """K.D read from the K.C column of the named pairing table, exact."""
    return sum(
        (c * registry.canonical_dot(name) for name, c in D.entries), Fraction(0)
    )
