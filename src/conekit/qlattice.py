"""Exact rational divisor-class lattices.

Everything here is exact: coefficients are `fractions.Fraction` (exported as
``Rat``) at the API and Python ints inside where they can be, intersection
numbers come from the diagonal form of the blown-up plane (H^2 = 1, E_k^2 =
-1, see :class:`IntersectionLattice`), and every elimination is the
fraction-exact Gauss-Jordan :func:`_eliminate`, with which
``Contraction.gram_inverse`` certifies negative definiteness.  The dense
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
named pairing table: the nonzero C.C' of its curves plus a K.C column, as ints
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
from collections.abc import Iterable, KeysView, Mapping, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache
from math import floor, lcm, prod

Rat = Fraction


class InvariantError(Exception):
    """The engine disagrees with itself: two independent routes to one number
    (a closed form and the lattice, say) gave different answers.  Not a
    ValueError, which every usage or precondition failure raises."""


def format_rat(x: Rat) -> str:
    """Serialize a rational as ``p/q`` (plain ``p`` when q == 1)."""
    return str(Fraction(x))


_NAME_SPLIT = re.compile(r"(\d+)")


@lru_cache(maxsize=4096)  # bounded: names can come from the command line
def curve_sort_key(name: str) -> tuple:
    """Deterministic name ordering with numeric suffixes compared as numbers.

    Sorts ``l_2`` before ``l_10``; purely lexicographic order would not.
    """
    return tuple(int(p) if p.isdigit() else p for p in _NAME_SPLIT.split(name))


class ClassVector:
    """A divisor class: rational coordinates in an ordered lattice basis."""

    def __init__(self, coeffs: tuple[Rat, ...]) -> None:
        self.coeffs = coeffs

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.coeffs,))

    @staticmethod
    def of(values: Iterable) -> "ClassVector":
        return ClassVector(tuple(Fraction(v) for v in values))

    def __len__(self) -> int:
        return len(self.coeffs)

    def __add__(self, other: "ClassVector") -> "ClassVector":
        if len(self) != len(other):
            raise ValueError(f"rank mismatch: {len(self)} vs {len(other)}")
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


class IntersectionLattice:
    """The Picard lattice of the plane blown up ``rank - 1`` times, in the
    orthogonal basis (H, E_1, ..., E_{rank-1}) that ``basis_names`` names:
    H^2 = 1, E_k^2 = -1 and all other products 0."""

    def __init__(self, basis_names: tuple[str, ...]) -> None:
        self.basis_names = basis_names

    @property
    def rank(self) -> int:
        return len(self.basis_names)

    @cached_property
    def canonical(self) -> ClassVector:
        """The canonical class K = -3H + sum_k E_k."""
        return ClassVector((Fraction(-3),) + (Fraction(1),) * (self.rank - 1))

    def check_rank(self, v: ClassVector) -> None:
        if len(v) != self.rank:
            raise ValueError(
                f"vector has length {len(v)}, lattice rank is {self.rank}"
            )


def intersect(lattice: IntersectionLattice, v: ClassVector, w: ClassVector) -> Rat:
    """Intersection number v.w = v_0 w_0 - sum_{k>=1} v_k w_k, exact."""
    lattice.check_rank(v)
    lattice.check_rank(w)
    exceptional = sum(
        (a * b for a, b in zip(v.coeffs[1:], w.coeffs[1:]) if a and b), Fraction(0)
    )
    return v.coeffs[0] * w.coeffs[0] - exceptional


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
    """Solve M x = b exactly; raises ValueError when M is singular."""
    n = len(matrix)
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    if len(_eliminate(aug, n)[0]) < n:
        raise ValueError("singular linear system")
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
    subset is rejected with a ValueError instead of returning False.
    """
    if not subset:
        raise ValueError("empty subset")
    for v in subset:
        lattice.check_rank(v)
    k = len(subset)
    pivots, swaps = _eliminate(gram_block(lattice, subset), k)
    if swaps == 0 and len(pivots) == k and all(p < 0 for p in pivots):
        return True  # a nonsingular Gram block already proves independence
    coords = [list(v.coeffs) for v in subset]
    if len(_eliminate(coords, lattice.rank)[0]) < k:
        raise ValueError("subset is linearly dependent")
    return False


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

    def __init__(self, entries: tuple[tuple[str, Rat], ...]) -> None:
        self.entries = entries

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.entries,))

    @staticmethod
    def of(terms: Mapping[str, object] | Iterable[tuple[str, object]]) -> "NamedDivisor":
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[str, Fraction] = {}
        for name, coeff in items:
            coeff = Fraction(coeff)
            acc[name] = acc[name] + coeff if name in acc else coeff
        cleaned = [(n, c) for n, c in acc.items() if c != 0]
        cleaned.sort(key=lambda item: curve_sort_key(item[0]))
        return NamedDivisor(tuple(cleaned))

    @staticmethod
    def zero() -> "NamedDivisor":
        return NamedDivisor(())

    @cached_property
    def terms(self) -> dict[str, Rat]:
        return dict(self.entries)

    @cached_property
    def numerators(self) -> tuple[int, dict[str, int]]:
        """``(den, {name: c * den})``, den the coefficients' lcm denominator."""
        den = lcm(*(c.denominator for _, c in self.entries))
        return den, {n: c.numerator * (den // c.denominator) for n, c in self.entries}

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
    return NamedDivisor.of((n, fn(c)) for n, c in D.entries)


def floor_divisor(D: NamedDivisor) -> NamedDivisor:
    """Componentwise floor of the named-curve coefficients."""
    return _map_coeffs(D, floor)


def frac_divisor(D: NamedDivisor) -> NamedDivisor:
    """Componentwise fractional part; floor_divisor(D) + frac_divisor(D) == D."""
    return _map_coeffs(D, lambda c: c - floor(c))


class CurveRegistry:
    """Curve name -> class table; the classes are integral, on one lattice."""

    def __init__(
        self, lattice: IntersectionLattice, entries: tuple[tuple[str, ClassVector], ...]
    ) -> None:
        self.lattice = lattice
        self.entries = entries

    @staticmethod
    def of(
        lattice: IntersectionLattice, entries: Mapping[str, ClassVector]
    ) -> "CurveRegistry":
        ordered = sorted(entries.items(), key=lambda item: curve_sort_key(item[0]))
        for name, cls in ordered:
            lattice.check_rank(cls)
            not_int = set(map(type, cls.coeffs)) - {int}  # replay builds ints
            if not_int and any(a.denominator != 1 for a in cls.coeffs):
                raise ValueError(f"class of curve {name} is not integral: {cls}")
        return CurveRegistry(lattice, tuple(ordered))

    @cached_property
    def _by_name(self) -> dict[str, ClassVector]:
        return dict(self.entries)

    @cached_property
    def _pairing_rows(self) -> dict[str, dict[str, int]]:
        """Nonzero C.C' per named curve C, keyed by the name of C', as ints.

        A sparse product over the diagonal form: each nonzero coordinate of C,
        negated on the E_k, is carried through an index to the curves with a
        nonzero coefficient on the same coordinate, so a pair of curves that
        share no coordinate costs nothing.
        """
        coords = {
            name: [(i, int(a)) for i, a in enumerate(cls.coeffs) if a]
            for name, cls in self.entries
        }
        touching: dict[int, list[tuple[str, int]]] = {}
        for name, nonzero in coords.items():
            for j, b in nonzero:
                touching.setdefault(j, []).append((name, b))
        rows = {}
        for name, nonzero in coords.items():
            row: dict[str, int] = {}
            for i, a in nonzero:
                signed = a if i == 0 else -a
                for other, b in touching.get(i, ()):
                    row[other] = row.get(other, 0) + signed * b
            rows[name] = {other: x for other, x in row.items() if x}
        return rows

    @cached_property
    def _canonical_dots(self) -> dict[str, int]:
        """K.C per named curve C, as ints, from the canonical class through the
        dense :func:`intersect`."""
        lat = self.lattice
        return {
            name: int(intersect(lat, lat.canonical, cls)) for name, cls in self.entries
        }

    @staticmethod
    def _lookup(table: dict, name: str):
        value = table.get(name)
        if value is None:
            raise ValueError(f"unknown curve name: {name!r}")
        return value

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.entries)

    def class_vector(self, name: str) -> ClassVector:
        return self._lookup(self._by_name, name)

    def pairing_row(self, name: str) -> dict[str, int]:
        """The nonzero C.C' of the named curve C, keyed by the name of C'."""
        return self._lookup(self._pairing_rows, name)

    def check_names(self, names: KeysView[str]) -> None:
        """Raise on the first of ``names`` the registry does not know."""
        known = self._pairing_rows
        if not names <= known.keys():
            self._lookup(known, next(n for n in names if n not in known))

    def canonical_dot(self, name: str) -> int:
        """K.C for the named curve C."""
        return self._lookup(self._canonical_dots, name)


def class_of(registry: CurveRegistry, D: NamedDivisor) -> ClassVector:
    """The class of a named divisor: the matching combination of curve classes.

    Only the nonzero coordinates of each curve class are scaled and added: a
    zero coordinate costs one test, not a ``Fraction`` product and sum.
    """
    out = [Fraction(0)] * registry.lattice.rank
    for name, coeff in D.entries:
        for i, a in enumerate(registry.class_vector(name).coeffs):
            if a:
                out[i] += coeff * a
    return ClassVector(tuple(out))


def pair(registry: CurveRegistry, D1: NamedDivisor, D2: NamedDivisor) -> Rat:
    """Intersection number D1.D2 read from the named pairing table, exact.

    Equal to ``intersect(lattice, class_of(registry, D1), class_of(registry,
    D2))`` without building either class vector; an unknown curve name
    raises as in :func:`class_of`, D1's first.  The sum runs over both
    divisors' integer numerators and is divided by their denominators once.
    """
    rows = [registry.pairing_row(name) for name, _ in D1.entries]
    (den1, nums), (den2, coeffs) = D1.numerators, D2.numerators
    registry.check_names(coeffs.keys())
    total = 0
    for a, row in zip(nums.values(), rows):
        for name, x in row.items():
            b = coeffs.get(name)
            if b:
                total += a * b * x
    return Fraction(total, den1 * den2)


def pair_canonical(registry: CurveRegistry, D: NamedDivisor) -> Rat:
    """K.D read from the K.C column of the named pairing table, exact."""
    den, nums = D.numerators
    return Fraction(
        sum(a * registry.canonical_dot(name) for name, a in nums.items()), den
    )
