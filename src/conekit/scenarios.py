"""End-to-end verifiers for the two counterexample families, plus the sweep.

Each verifier assembles a report whose every numerical claim is a
:class:`Certificate` carrying the rule that produced it and a provenance
marker (``derived:*`` for numbers computed here, ``cited:*`` for the few
facts consumed as external citations rather than recomputed).  The verdict
logic is pure boolean combination of certified entries: if any entry needed
by the verdict is Unknown, the verdict is None, never guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cohom import (
    CohomReport,
    FamilyDescriptor,
    cohomology_of_nA,
    family_divisor,
    km_family_cohomology,
    target_context,
    uniform_h1_chain_zero,
    uniform_h2_chain_zero,
)
from .cone3fold import (
    ConeModel,
    PicardChain,
    picard_chain,
    plt_coefficient_b,
)
from .qlattice import Rat, curve_sort_key, format_rat


class ScenarioError(ValueError):
    """A named precondition of a verifier failed."""

    def __init__(self, name: str, message: str):
        self.name = name
        super().__init__(f"{name}: {message}")


@dataclass(frozen=True)
class Certificate:
    claim: str
    value: str
    rule: str
    provenance: str

    def to_json_dict(self) -> dict:
        return {
            "claim": self.claim,
            "value": self.value,
            "rule": self.rule,
            "paper_ref": self.provenance,
        }


def _fmt_bool(x: bool | None) -> str:
    if x is None:
        return "unknown"
    return "true" if x else "false"


def _certify_m_table(
    model: ConeModel, certs: list[Certificate]
) -> tuple[tuple[str, int], ...]:
    """The multiplicities m(C) in curve order, one certificate each."""
    m_table = tuple(sorted(model.mc.items(), key=lambda kv: curve_sort_key(kv[0])))
    for name, m in m_table:
        certs.append(
            Certificate(
                claim=f"m({name})",
                value=str(m),
                rule="unit-fraction-extraction",
                provenance="derived:pullback-fractional-part",
            )
        )
    return m_table


def _certify_picard_chain(model: ConeModel, certs: list[Certificate]) -> PicardChain:
    chain = picard_chain(model)
    certs.append(
        Certificate(
            claim="picard-chain",
            value=",".join(str(r) for r in chain.as_tuple()),
            rule="rank-bookkeeping",
            provenance="derived:threefold-ledger",
        )
    )
    return chain


@dataclass(frozen=True)
class PltReport:
    """Verification record for the non-normal divisor over the cone point."""

    d: int
    q: int
    m_table: tuple[tuple[str, int], ...]
    h1_chain: tuple[tuple[int, CohomReport], ...]
    h1_a_minus_e: CohomReport
    h2_chain: tuple[tuple[int, CohomReport], ...]
    b: Rat
    extension_coefficient: Rat
    plt: bool
    psi_classification: str
    min_discrepancy: Rat
    picard: PicardChain
    non_normal: bool | None
    certificates: tuple[Certificate, ...]

    @property
    def verdict(self) -> bool | None:
        """Non-normal, plt (b < 1 over a klt surface contraction) and b equal
        to its closed form (q-2)/(q-1); None while non-normality is unknown."""
        if self.non_normal is None:
            return None
        return (
            self.non_normal and self.plt and self.b == self.extension_coefficient
        )

    def to_json_dict(self) -> dict:
        return {
            "scenario": "plt-nonnormal",
            "params": {"d": self.d, "q": self.q},
            "certificates": [c.to_json_dict() for c in self.certificates],
            "verdict": self.verdict,
        }


def verify_plt_nonnormal(d: int, q: int) -> PltReport:
    """Certify that the distinguished divisor over the cone point is non-normal.

    Pipeline: ampleness and the unit-fraction assumption for the polarization
    sum E_1..E_q - E_{q+1}; the h1(nA) chain (exact at n = 0, 1, 2, one
    uniform certificate for the tail); h1(A - E_{q+2}) > 0 and the h2 chain
    of the twisted sequence; the cone boundary coefficient b.  The verdict
    combines the chain exactly as the direct-image argument does: the
    structure sheaf has vanishing first direct image while its twist by the
    distinguished divisor does not, so the restriction map cannot surject.
    """
    if q < 2:
        raise ScenarioError("q>=2", f"q = {q}")
    if d < q + 2:
        raise ScenarioError("d>=q+2", f"(d, q) = ({d}, {q})")
    if (2 * d - 4) % (q - 1) != 0:
        raise ScenarioError(
            "(q-1)|(2d-4)", f"q - 1 = {q - 1} does not divide 2d - 4 = {2 * d - 4}"
        )

    psi = target_context(d)
    fam = FamilyDescriptor(d, q, 1)
    a = family_divisor(fam)
    certs: list[Certificate] = []

    ample = psi.is_ample_rho1(a)
    certs.append(
        Certificate(
            claim="ample(A)",
            value=_fmt_bool(ample),
            rule="rank-one-positive-degree",
            provenance="derived:intersection-lattice",
        )
    )

    model = ConeModel.build(psi, a)
    m_table = _certify_m_table(model, certs)

    h1_chain: list[tuple[int, CohomReport]] = []
    for n in (0, 1, 2):
        report = cohomology_of_nA(fam, n)
        h1_chain.append((n, report))
        certs.append(
            Certificate(
                claim=f"h1(T,{n}A)",
                value=str(report.h1),
                rule=";".join(t for t in report.certificates if t.startswith("h1")),
                provenance="derived:cohomology-rules",
            )
        )
    uniform_h1 = uniform_h1_chain_zero(fam)
    certs.append(
        Certificate(
            claim="h1(T,nA) for all n>=2",
            value="0" if uniform_h1.holds else "unknown",
            rule=";".join(uniform_h1.tokens),
            provenance="derived:cohomology-rules",
        )
    )

    j = q + 2
    # n = 0 and 1 of the h2 chain also give h0(-E_j) and h1(A - E_j)
    h2_chain = tuple((n, cohomology_of_nA(fam, n, subtract=j)) for n in (0, 1, 2))
    h0_minus_e, h1_a_minus_e = h2_chain[0][1], h2_chain[1][1]
    certs.append(
        Certificate(
            claim=f"h0(T,-E_{j})",
            value=str(h0_minus_e.h0),
            rule="negative-degree",
            provenance="derived:intersection-lattice",
        )
    )
    certs.append(
        Certificate(
            claim=f"h1(T,A-E_{j})",
            value=str(h1_a_minus_e.h1),
            rule="rank-one-family-table",
            provenance="derived:cohomology-rules",
        )
    )
    for n, report in h2_chain:
        certs.append(
            Certificate(
                claim=f"h2(T,{n}A-E_{j})",
                value=str(report.h2),
                rule="duality+negative-degree",
                provenance="derived:cohomology-rules",
            )
        )
    uniform_h2 = uniform_h2_chain_zero(fam, subtract=j, n_from=0)
    certs.append(
        Certificate(
            claim=f"h2(T,nA-E_{j}) for all n>=0",
            value="0" if uniform_h2.holds else "unknown",
            rule=";".join(uniform_h2.tokens),
            provenance="derived:cohomology-rules",
        )
    )

    coeff = plt_coefficient_b(model, j)
    extension_coefficient = Fraction(q - 2, q - 1)
    certs.append(
        Certificate(
            claim="b",
            value=format_rat(coeff.b),
            rule="cone-boundary-coefficient",
            provenance="derived:threefold-ledger",
        )
    )
    certs.append(
        Certificate(
            claim="B-coefficient",
            value=format_rat(extension_coefficient),
            rule="closed-form-(q-2)/(q-1)"
            + ("" if coeff.b == extension_coefficient else ";MISMATCH"),
            provenance="derived:threefold-ledger",
        )
    )

    classification = psi.classify_singularities()
    certs.append(
        Certificate(
            claim="classification(psi)",
            value=classification.classification,
            rule=classification.certificate,
            provenance="derived:discrepancy-table",
        )
    )
    certs.append(
        Certificate(
            claim="min-discrepancy(psi)",
            value=format_rat(classification.min_discrepancy),
            rule=classification.certificate,
            provenance="derived:discrepancy-table",
        )
    )

    chain = _certify_picard_chain(model, certs)

    # verdict logic over certified entries
    h1_all_zero: bool | None = True
    for _, report in h1_chain:
        if not report.h1.is_exact:
            h1_all_zero = None
            break
        if report.h1.value != 0:
            h1_all_zero = False
    if h1_all_zero is True and not uniform_h1.holds:
        h1_all_zero = None
    certs.append(
        Certificate(
            claim="R1g(O_Y)=0",
            value=_fmt_bool(h1_all_zero),
            rule="cokernel-chain",
            provenance="cited:tail-by-serre-vanishing",
        )
    )

    twisted_nonzero: bool | None = None
    h2_tail_zero = uniform_h2.holds and all(
        rep.h2.is_exact_zero for n, rep in h2_chain if n >= 2
    )
    if h0_minus_e.h0.is_exact_zero and h1_a_minus_e.h1.is_exact and h2_tail_zero:
        twisted_nonzero = h1_a_minus_e.h1.value > 0
    certs.append(
        Certificate(
            claim="R1g(O_Y(-E^Y))!=0",
            value=_fmt_bool(twisted_nonzero),
            rule="cokernel-chain",
            provenance="cited:tail-by-serre-vanishing",
        )
    )

    non_normal: bool | None
    if h1_all_zero is None or twisted_nonzero is None:
        non_normal = None
    else:
        non_normal = h1_all_zero and twisted_nonzero
    certs.append(
        Certificate(
            claim="non_normal(E^Z)",
            value=_fmt_bool(non_normal),
            rule="restriction-map-not-surjective",
            provenance="derived:verdict-logic",
        )
    )

    return PltReport(
        d=d,
        q=q,
        m_table=m_table,
        h1_chain=tuple(h1_chain),
        h1_a_minus_e=h1_a_minus_e,
        h2_chain=h2_chain,
        b=coeff.b,
        extension_coefficient=extension_coefficient,
        plt=coeff.plt,
        psi_classification=classification.classification,
        min_discrepancy=classification.min_discrepancy,
        picard=chain,
        non_normal=non_normal,
        certificates=tuple(certs),
    )


@dataclass(frozen=True)
class FanoReport:
    """Verification record for the anticanonically polarized cone with
    nonvanishing intermediate cohomology."""

    q: int
    d: int
    m_table: tuple[tuple[str, int], ...]
    h2_z: int | None
    not_cohen_macaulay: bool | None
    picard: PicardChain
    certificates: tuple[Certificate, ...]

    @property
    def verdict(self) -> bool | None:
        if self.h2_z is None or self.not_cohen_macaulay is None:
            return None
        return self.h2_z == self.q - 1 and self.not_cohen_macaulay == (self.q >= 2)

    def to_json_dict(self) -> dict:
        return {
            "scenario": "fano-intermediate-cohomology",
            "params": {"q": self.q, "d": self.d},
            "certificates": [c.to_json_dict() for c in self.certificates],
            "verdict": self.verdict,
        }


def verify_bad_fano(q: int) -> FanoReport:
    """Certify the intermediate cohomology of the cone for the d = 4q+2 family.

    The polarization is sum E_1..E_{3q} - sum E_{3q+1}..E_{4q}; its first
    cohomology is q-1 and all higher twists vanish, so the cone's h2 of the
    structure sheaf equals q-1 and the cone fails to be Cohen-Macaulay
    exactly when q >= 2.
    """
    if q < 1:
        raise ScenarioError("q>=1", f"q = {q}")
    d = 4 * q + 2
    psi = target_context(d)
    fam = FamilyDescriptor(d, 3 * q, q)
    a = family_divisor(fam)
    certs: list[Certificate] = []

    model = ConeModel.build(psi, a)
    m_table = _certify_m_table(model, certs)

    h1_a = km_family_cohomology(fam)
    certs.append(
        Certificate(
            claim="h1(T,A)",
            value=str(h1_a.h1),
            rule="rank-one-family-table",
            provenance="derived:cohomology-rules",
        )
    )
    uniform = uniform_h1_chain_zero(fam)
    certs.append(
        Certificate(
            claim="h1(T,nA) for all n>=2",
            value="0" if uniform.holds else "unknown",
            rule=";".join(uniform.tokens),
            provenance="derived:cohomology-rules",
        )
    )

    h2_z: int | None = None
    if h1_a.h1.is_exact and uniform.holds:
        h2_z = h1_a.h1.value
    certs.append(
        Certificate(
            claim="h2(Z,O_Z)",
            value="unknown" if h2_z is None else str(h2_z),
            rule="cokernel-chain:sum-of-twists",
            provenance="cited:tail-by-serre-vanishing",
        )
    )

    not_cm: bool | None = None if h2_z is None else h2_z > 0
    certs.append(
        Certificate(
            claim="not-cohen-macaulay(Z)",
            value=_fmt_bool(not_cm),
            rule="nonzero-intermediate-cohomology",
            provenance="derived:verdict-logic",
        )
    )

    chain = _certify_picard_chain(model, certs)
    certs.append(
        Certificate(
            claim="ample(-K_Z)",
            value="true",
            rule="rank-one-and-big-anticanonical",
            provenance="cited:cone-anticanonical-fact",
        )
    )

    return FanoReport(
        q=q,
        d=d,
        m_table=m_table,
        h2_z=h2_z,
        not_cohen_macaulay=not_cm,
        picard=chain,
        certificates=tuple(certs),
    )


@dataclass(frozen=True)
class SweepRow:
    d: int
    q1: int
    q2: int
    ample: bool
    h1: int
    kvv_violation: bool

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "q1": self.q1,
            "q2": self.q2,
            "ample": self.ample,
            "h1": self.h1,
            "kvv_violation": self.kvv_violation,
        }


@dataclass(frozen=True)
class SweepTable:
    d_min: int
    d_max: int
    rows: tuple[SweepRow, ...]

    def to_json_dict(self) -> dict:
        return {
            "scenario": "kvv-sweep",
            "params": {"d_min": self.d_min, "d_max": self.d_max},
            "rows": [r.to_json_dict() for r in self.rows],
        }

    def to_csv(self) -> str:
        lines = ["d,q1,q2,ample,h1,kvv_violation"]
        for r in self.rows:
            lines.append(
                f"{r.d},{r.q1},{r.q2},"
                f"{'true' if r.ample else 'false'},{r.h1},"
                f"{'true' if r.kvv_violation else 'false'}"
            )
        return "\n".join(lines) + "\n"


def sweep_kvv(d_min: int, d_max: int) -> SweepTable:
    """Vanishing-failure table over the (d, q1, q2) grid.

    A row is flagged when the family divisor is ample yet has nonzero first
    cohomology: by duality this is exactly a failure of vanishing for the
    ample divisor A - K on the rank-one target.  Row order is lexicographic
    in (d, q1, q2).
    """
    if not 3 <= d_min <= d_max:
        raise ScenarioError("3<=d_min<=d_max", f"({d_min}, {d_max})")
    rows: list[SweepRow] = []
    for d in range(d_min, d_max + 1):
        psi = target_context(d)
        for q1 in range(0, d + 1):
            for q2 in range(0, d - q1 + 1):
                fam = FamilyDescriptor(d, q1, q2)
                report = km_family_cohomology(fam)
                ample = psi.is_ample_rho1(family_divisor(fam))
                h1 = report.h1.value
                rows.append(
                    SweepRow(
                        d=d,
                        q1=q1,
                        q2=q2,
                        ample=ample,
                        h1=h1,
                        kvv_violation=ample and h1 > 0,
                    )
                )
    return SweepTable(d_min=d_min, d_max=d_max, rows=tuple(rows))
