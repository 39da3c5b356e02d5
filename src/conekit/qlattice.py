"""Exact rational divisor-class lattices.

Everything here is exact: coefficients are `fractions.Fraction` (exported as
``Rat``) at the API and Python ints inside where they can be, intersection
numbers come from the diagonal form of the blown-up plane (H^2 = 1, E_k^2 =
-1, see :class:`IntersectionLattice`).  The engine eliminates nothing: its one
contraction has a diagonal Gram block.  The Gauss-Jordan :func:`_eliminate`,
:func:`determinant`, :func:`solve_linear`, :func:`is_negative_definite`,
:func:`gram_block` and ``Contraction.pullback_class`` remain for the benchmark
tracer and the test oracles.  No floating point is used anywhere.

There is one divisor class, :class:`NamedDivisor`: a finite formal sum of
*named* irreducible curves, stored as integer numerators over one
denominator, whose ``Fraction`` coefficients are derived only when read.
Rounding (:func:`floor_divisor`, :func:`frac_divisor`: ``x // den`` and
``x % den`` on the numerators) acts on it, because floors are
basis-dependent and the geometry floors in the curve basis.

A :class:`CurveRegistry` stores each curve class once, as its nonzero integer
coordinates in the lattice basis, and holds the named pairing table: the
nonzero C.C' of its curves plus a K.C column, as ints built once as a sparse
product from those coordinates.  :func:`pair` and :func:`pair_canonical`
read intersection numbers of named divisors from that table, summing the
divisors' numerators into one ``Fraction`` per call.  That table is the one
pairing route.  A dense class -- a plain tuple of coordinates in the basis,
from ``CurveRegistry.class_vector`` or :func:`class_of` -- is built only for
checks and output: ``Contraction.residual_checks``, the two class
identities of ``km_sanity``, the ``km-surface`` table, the functions the
benchmark tracer names, and the test oracles.  Paired by :func:`intersect`,
it gives the same numbers as the table.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, KeysView, Mapping, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm, prod

Rat = Fraction


class InvariantError(Exception):
    """The engine disagrees with itself: two independent routes to one number
    (a closed form and the lattice, say) gave different answers.  Not a
    ValueError, which every usage or precondition failure raises."""


_NAME_SPLIT = re.compile(r"(\d+)")


@lru_cache(maxsize=4096)  # bounded: names can come from the command line
def curve_sort_key(name: str) -> tuple:
    """Deterministic name ordering with numeric suffixes compared as numbers.

    Sorts ``l_2`` before ``l_10``; purely lexicographic order would not.
    """
    return tuple(int(p) if p.isdigit() else p for p in _NAME_SPLIT.split(name))


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
    def canonical(self) -> tuple[int, ...]:
        """The canonical class K = -3H + sum_k E_k."""
        return (-3,) + (1,) * (self.rank - 1)

    def check_rank(self, v: Sequence) -> None:
        if len(v) != self.rank:
            raise ValueError(
                f"vector has length {len(v)}, lattice rank is {self.rank}"
            )


def intersect(lattice: IntersectionLattice, v: Sequence, w: Sequence) -> Rat:
    """Intersection number v.w = v_0 w_0 - sum_{k>=1} v_k w_k of two dense
    classes (int or ``Fraction`` coordinates), exact."""
    lattice.check_rank(v)
    lattice.check_rank(w)
    exceptional = sum((a * b for a, b in zip(v[1:], w[1:]) if a and b), Fraction(0))
    return v[0] * w[0] - exceptional


def gram_block(
    lattice: IntersectionLattice, subset: Sequence[Sequence]
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
    lattice: IntersectionLattice, subset: Sequence[Sequence]
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
    coords = [list(map(Fraction, v)) for v in subset]
    if len(_eliminate(coords, lattice.rank)[0]) < k:
        raise ValueError("subset is linearly dependent")
    return False


class NamedDivisor:
    """Finite formal rational combination of named irreducible curves.

    Stored as integer numerators over one denominator: ``den`` > 0 and
    ``nums`` ``{name: int}``, with the names in ``curve_sort_key`` order, no
    zero numerator, and ``den`` the least common denominator (no prime
    divides it and every numerator), so equal divisors compare and serialize
    identically.  The ``Fraction`` coefficients (``entries``, ``terms``) are
    derived on first use; the arithmetic here reads the numerators.

    >>> D = NamedDivisor.of({"E_1": 1, "l_2": Fraction(-1, 2)})
    >>> D.den, D.nums
    (2, {'E_1': 2, 'l_2': -1})
    >>> print(D)
    E_1 - 1/2*l_2
    >>> print(D + NamedDivisor.of({"E_1": -1}))
    -1/2*l_2
    >>> print(floor_divisor(D))
    E_1 - l_2
    >>> print(frac_divisor(D))
    1/2*l_2
    """

    def __init__(self, den: int, nums: dict[str, int]) -> None:
        self.den = den
        self.nums = nums

    @staticmethod
    def reduced(den: int, nums: dict[str, int]) -> "NamedDivisor":
        """The divisor sum (x/den) C over ``nums``, names given in
        ``curve_sort_key`` order: zero numerators are dropped and the common
        factor of den and the numerators divided out."""
        nums = {n: x for n, x in nums.items() if x}
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {n: x // g for n, x in nums.items()}
        return NamedDivisor(den, nums)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.den, tuple(self.nums.items())))

    @staticmethod
    def of(terms: Mapping[str, object] | Iterable[tuple[str, object]]) -> "NamedDivisor":
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[str, Fraction] = {}
        for name, coeff in items:
            coeff = Fraction(coeff)
            acc[name] = acc[name] + coeff if name in acc else coeff
        # over the lcm of reduced denominators the numerators share no factor
        # with den, so only zeros need dropping
        den = lcm(*(c.denominator for c in acc.values()))
        return NamedDivisor(den, {
            n: acc[n].numerator * (den // acc[n].denominator)
            for n in sorted(acc, key=curve_sort_key)
            if acc[n]
        })

    @staticmethod
    def zero() -> "NamedDivisor":
        return NamedDivisor(1, {})

    @cached_property
    def entries(self) -> tuple[tuple[str, Rat], ...]:
        den = self.den
        return tuple((n, Fraction(x, den)) for n, x in self.nums.items())

    @cached_property
    def terms(self) -> dict[str, Rat]:
        return dict(self.entries)

    def is_zero(self) -> bool:
        return not self.nums

    def is_integral(self) -> bool:
        return self.den == 1

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
        p = c.numerator
        return NamedDivisor.reduced(
            self.den * c.denominator, {n: p * x for n, x in self.nums.items()}
        )

    def drop(self, names: Iterable[str]) -> "NamedDivisor":
        omit = set(names)
        return NamedDivisor.reduced(
            self.den, {n: x for n, x in self.nums.items() if n not in omit}
        )

    def __str__(self) -> str:
        if not self.entries:
            return "0"
        parts = []
        for name, c in self.entries:
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            body = name if mag == 1 else f"{mag}*{name}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out


def floor_divisor(D: NamedDivisor) -> NamedDivisor:
    """Componentwise floor of the named-curve coefficients: x // den on each
    numerator."""
    den = D.den
    return NamedDivisor(1, {n: q for n, x in D.nums.items() if (q := x // den)})


def frac_divisor(D: NamedDivisor) -> NamedDivisor:
    """Componentwise fractional part, x % den on each numerator;
    floor_divisor(D) + frac_divisor(D) == D."""
    den = D.den
    return NamedDivisor.reduced(den, {n: x % den for n, x in D.nums.items()})


class CurveRegistry:
    """Curve name -> class table on one lattice.  Each class is stored once,
    as its nonzero ``(index, int)`` coordinates in index order, and the names
    are kept in ``curve_sort_key`` order."""

    def __init__(
        self, lattice: IntersectionLattice, coords: dict[str, list[tuple[int, int]]]
    ) -> None:
        self.lattice = lattice
        self.coords = coords

    @cached_property
    def _pairing_rows(self) -> dict[str, dict[str, int]]:
        """Nonzero C.C' per named curve C, keyed by the name of C', as ints.

        A sparse product over the diagonal form: each nonzero coordinate of C,
        negated on the E_k, is carried through an index to the curves with a
        nonzero coefficient on the same coordinate, so a pair of curves that
        share no coordinate costs nothing.
        """
        touching: dict[int, list[tuple[str, int]]] = {}
        for name, nonzero in self.coords.items():
            for j, b in nonzero:
                touching.setdefault(j, []).append((name, b))
        rows = {}
        for name, nonzero in self.coords.items():
            row: dict[str, int] = {}
            for i, a in nonzero:
                signed = a if i == 0 else -a
                for other, b in touching.get(i, ()):
                    row[other] = row.get(other, 0) + signed * b
            rows[name] = {other: x for other, x in row.items() if x}
        return rows

    @cached_property
    def _canonical_dots(self) -> dict[str, int]:
        """K.C per named curve C: K = -3H + sum_k E_k, so K.C = -3 c_0 -
        sum_{k>=1} c_k over the nonzero coordinates of C."""
        return {
            name: sum(-3 * a if i == 0 else -a for i, a in nonzero)
            for name, nonzero in self.coords.items()
        }

    @staticmethod
    def _lookup(table: dict, name: str):
        value = table.get(name)
        if value is None:
            raise ValueError(f"unknown curve name: {name!r}")
        return value

    def names(self) -> tuple[str, ...]:
        return tuple(self.coords)

    def class_vector(self, name: str) -> tuple[int, ...]:
        """The dense class of the named curve, built on request."""
        out = [0] * self.lattice.rank
        for i, a in self._lookup(self.coords, name):
            out[i] = a
        return tuple(out)

    def pairing_row(self, name: str) -> dict[str, int]:
        """The nonzero C.C' of the named curve C, keyed by the name of C'."""
        return self._lookup(self._pairing_rows, name)

    def check_names(self, names: KeysView[str]) -> None:
        """Raise on the first of ``names`` the registry does not know."""
        known = self.coords
        if not names <= known.keys():
            self._lookup(known, next(n for n in names if n not in known))

    def canonical_dot(self, name: str) -> int:
        """K.C for the named curve C."""
        return self._lookup(self._canonical_dots, name)


def class_of(registry: CurveRegistry, D: NamedDivisor) -> tuple[Rat, ...]:
    """The dense class of a named divisor: the matching combination of curve
    classes, summed over each curve's stored nonzero coordinates."""
    out = [Fraction(0)] * registry.lattice.rank
    for name, coeff in D.entries:
        for i, a in registry._lookup(registry.coords, name):
            out[i] += coeff * a
    return tuple(out)


def pair(registry: CurveRegistry, D1: NamedDivisor, D2: NamedDivisor) -> Rat:
    """Intersection number D1.D2 read from the named pairing table, exact.

    Equal to ``intersect(lattice, class_of(registry, D1), class_of(registry,
    D2))`` without building either dense class; an unknown curve name
    raises as in :func:`class_of`, D1's first.  The sum runs over both
    divisors' integer numerators and is divided by their denominators once.
    """
    nums, coeffs = D1.nums, D2.nums
    registry.check_names(nums.keys())
    registry.check_names(coeffs.keys())
    rows = registry._pairing_rows
    total = 0
    for name, a in nums.items():
        for other, x in rows[name].items():
            b = coeffs.get(other)
            if b:
                total += a * b * x
    return Fraction(total, D1.den * D2.den)


def pair_canonical(registry: CurveRegistry, D: NamedDivisor) -> Rat:
    """K.D read from the K.C column of the named pairing table, exact."""
    registry.check_names(D.nums.keys())
    dots = registry._canonical_dots
    return Fraction(sum(a * dots[name] for name, a in D.nums.items()), D.den)
