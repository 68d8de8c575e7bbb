"""Torsion in I (x) Hom(I,R) over numerical semigroup rings.

For a nonzero monomial ideal I of a one-dimensional semigroup ring R the
dual I* = Hom(I,R) is a fractional ideal with value set (S : v(I)) =
{z : z + v(I) inside S}.  Tensoring 0 -> I -> R -> R/I -> 0 with I*
identifies the torsion submodule of I (x) I* with Tor_1(R/I, I*), the
kernel of the multiplication I (x) I* -> I I*.

That kernel is a count, the one Garcia-Sanchez and Leamer use for
I (x) I^-1 (J. Algebra 2013).  Let a_i generate v(I) and b_j generate
v(I*).  In degree d, I (x) I* is spanned by the symbols
t^(d - a_i - b_j) e_i (x) f_j with d - a_i - b_j in S.  The relations
of I and of I* are binomials with coefficients +-1, and any two symbols
in the same row i, or in the same column j, are identified: take
c = d - b_j (or d - a_i) as their common multiple.  So
dim (I (x) I*)_d is the number of connected components of the bipartite
graph on the a_i and b_j with an edge when d - a_i - b_j lies in S,
while (I I*)_d has dimension one whenever that graph has an edge, and

    dim Tor_1(R/I, I*) = sum over d of (components_d - 1).

The count needs no field, so the verdict is the same over every field.
Past max a + max b + conductor every edge is present and the graph is
connected, so the sum stops there.  A shift of I or I* only moves the
degrees, so no shift is needed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import ColonTable
from .rings import SgIdeal
from .semigroup import RelativeIdealSet, mpow_set, relset_colon


def dual_ideal(e: RelativeIdealSet) -> RelativeIdealSet:
    """Value set of Hom(I,R), the fractional colon (S : E)."""
    if e.is_zero():
        raise ValueError("dual of the zero ideal")
    return relset_colon(mpow_set(e.ambient, 0), e)


@dataclass(frozen=True)
class TorsionVerdict:
    has_torsion: bool
    tor1_dim: int
    certified: bool


def _tor1_dim(s, a, b) -> int:
    """Sum over d of the components of the bipartite graph, less one."""
    total = 0
    for d in range(a[0] + b[0], a[-1] + b[-1] + s.conductor):
        # each row's set of columns; rows that share a column merge
        groups = []
        for x in a:
            merged = frozenset(j for j, y in enumerate(b) if d - x - y in s)
            if not merged:
                continue
            apart = []
            for g in groups:
                if g & merged:
                    merged |= g
                else:
                    apart.append(g)
            groups = apart + [merged]
        total += max(len(groups) - 1, 0)
    return total


def hw_has_torsion(i: SgIdeal) -> TorsionVerdict:
    """Decide whether I (x) Hom(I,R) has nonzero torsion.

    The count is exact, so the verdict is always certified; a principal
    I gives a single row, one component in every degree, and no torsion.
    """
    if not isinstance(i, SgIdeal):
        raise ValueError("hw needs an ideal over a semigroup ring")
    if i.is_zero():
        raise ValueError("zero ideal")
    s = i.ring.S
    if 1 in s:
        raise ValueError("ambient semigroup ring is regular")
    dim = _tor1_dim(s, i.rep.gens, dual_ideal(i.rep).gens)
    return TorsionVerdict(dim > 0, dim, True)


@dataclass(frozen=True)
class HwReport:
    is_principal: bool
    subset_mj: bool | None
    wmf_wrt_j: bool | None
    cor214_class: frozenset
    hypotheses_hold: bool
    has_torsion: bool
    tor1_dim: int
    certified: bool


def hw_report(i: SgIdeal, j: SgIdeal | None = None) -> HwReport:
    """Bundle the torsion verdict with the hypotheses that predict it.

    The hypothesis side checks 0 != I, I inside mJ and (I:J) = (mI:mJ);
    without a nonzero J those fields are None and the hypotheses are
    not satisfied.
    """
    verdict = hw_has_torsion(i)
    colons = ColonTable(i)
    classes = colons.cor214()

    subset_mj = None
    wmf_wrt_j = None
    if j is not None and not j.is_zero():
        subset_mj = i.subset_of(colons.m * j)
        wmf_wrt_j = colons.wmf_wrt(j)
    hypotheses = bool(subset_mj) and bool(wmf_wrt_j)
    return HwReport(
        is_principal=len(i.min_gens()) == 1,
        subset_mj=subset_mj,
        wmf_wrt_j=wmf_wrt_j,
        cor214_class=classes,
        hypotheses_hold=hypotheses,
        has_torsion=verdict.has_torsion,
        tor1_dim=verdict.tor1_dim,
        certified=verdict.certified,
    )
