"""Torsion in I (x) Hom(I,R) over numerical semigroup rings.

For a nonzero fractional ideal I of a one-dimensional semigroup ring the
dual Hom(I,R) is again a fractional ideal, computable as the valuation
set {z : z + v in S for every generator valuation v of I}.  Tensoring
0 -> I -> R -> R/I -> 0 with the dual identifies the torsion submodule
of I (x) Hom(I,R) with Tor_1(R/I, Hom(I,R)), so the torsion question
reduces to one exact, certified Tor computation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import cor214_classify, is_weakly_mfull_wrt
from .homalg import DEFAULT_PRIME, GradedAlgebra, module_from_ideal, tor_dim
from .rings import SemigroupRing, SgIdeal
from .semigroup import NumericalSemigroup, as_relset, mpow_set, relset_colon


class FractionalSemigroupIdeal:
    """S-stable set of integer valuations, generators possibly negative.

    Takes generating valuations or a RelativeIdealSet over the same
    semigroup.  Two instances are equal exactly when they describe the
    same subset of the integers.
    """

    __slots__ = ("ambient", "relset")

    def __init__(self, ambient: NumericalSemigroup, gens):
        if not isinstance(ambient, NumericalSemigroup):
            raise TypeError("ambient must be a numerical semigroup")
        self.ambient = ambient
        self.relset = as_relset(ambient, gens)

    @property
    def gens(self):
        """Unique minimal generating valuations, ascending."""
        return self.relset.gens

    def is_zero(self) -> bool:
        return self.relset.is_zero()

    def is_principal(self) -> bool:
        return len(self.gens) == 1

    def is_integral(self) -> bool:
        return self.relset.is_integral()

    @property
    def shift_to_integral(self) -> int:
        """Least c >= 0 such that every generator plus c lands in S."""
        return self.relset.integral_shift()

    def shift(self, c: int) -> "FractionalSemigroupIdeal":
        return FractionalSemigroupIdeal(self.ambient, self.relset.shift(c))

    def subset_of(self, other: "FractionalSemigroupIdeal") -> bool:
        return self.relset.subset_of(other.relset)

    def __contains__(self, v) -> bool:
        return v in self.relset

    def __eq__(self, other):
        return isinstance(other, FractionalSemigroupIdeal) and self.relset == other.relset

    def __hash__(self):
        return hash(self.relset)

    def __repr__(self):
        return "FractionalSemigroupIdeal(%r, %s)" % (self.ambient, list(self.gens))


def fractional_from_ideal(ideal: SgIdeal) -> FractionalSemigroupIdeal:
    """View a ring-level semigroup ideal as a fractional one."""
    if not isinstance(ideal, SgIdeal):
        raise ValueError("hw needs an ideal over a semigroup ring")
    return FractionalSemigroupIdeal(ideal.ring.S, ideal.relset)


def dual_ideal(i: FractionalSemigroupIdeal) -> FractionalSemigroupIdeal:
    """Hom(I,R) as the fractional colon {z : z + gens(I) subset of S}."""
    if i.is_zero():
        raise ValueError("dual of the zero ideal")
    return FractionalSemigroupIdeal(i.ambient, relset_colon(mpow_set(i.ambient, 0), i.relset))


@dataclass(frozen=True)
class TorsionVerdict:
    has_torsion: bool
    tor1_dim: int
    certified: bool


def _checked_ambient(i: FractionalSemigroupIdeal) -> NumericalSemigroup:
    if i.is_zero():
        raise ValueError("zero ideal")
    if 1 in i.ambient:
        raise ValueError("ambient semigroup ring is regular")
    return i.ambient


def hw_has_torsion(i: FractionalSemigroupIdeal, p: int = DEFAULT_PRIME) -> TorsionVerdict:
    """Decide whether I (x) Hom(I,R) has nonzero torsion, over GF(p).

    Both I and its dual are replaced by integral shifts; shifting twists
    the grading but leaves every Tor dimension unchanged, so the verdict
    is shift-invariant.
    """
    s = _checked_ambient(i)
    if i.is_principal():
        # I invertible: I (x) Hom(I,R) is R itself.
        return TorsionVerdict(False, 0, True)
    ring = SemigroupRing(s.generators)
    ideal_i = SgIdeal(ring, i.relset.shift(i.shift_to_integral))
    dual = dual_ideal(i)
    ideal_j = SgIdeal(ring, dual.relset.shift(dual.shift_to_integral))
    algebra = GradedAlgebra(ring, p)
    pres, pres_certified = module_from_ideal(algebra, ideal_j)
    res = tor_dim(pres, ideal_i, 1)
    certified = bool(pres_certified and res.bound_certified)
    return TorsionVerdict(res.total_dim > 0, res.total_dim, certified)


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


def hw_report(
    i: FractionalSemigroupIdeal,
    j: FractionalSemigroupIdeal | None = None,
    p: int = DEFAULT_PRIME,
) -> HwReport:
    """Bundle the torsion verdict over GF(p) with the hypotheses that predict it.

    The hypothesis side checks 0 != I, I inside mJ and (I:J) = (mI:mJ)
    at the ring level, so it needs integral inputs; a fractional I or J
    leaves those fields None and the hypotheses not satisfied.
    """
    s = _checked_ambient(i)
    verdict = hw_has_torsion(i, p)
    ring = SemigroupRing(s.generators)
    ideal_i = SgIdeal(ring, i.relset.shift(i.shift_to_integral))
    classes = cor214_classify(ideal_i)

    subset_mj = None
    wmf_wrt_j = None
    if j is not None and not j.is_zero() and i.is_integral() and j.is_integral():
        ideal_j = SgIdeal(ring, j.relset)
        subset_mj = ideal_i.subset_of(ring.maximal_ideal() * ideal_j)
        wmf_wrt_j = is_weakly_mfull_wrt(ideal_i, ideal_j)
    hypotheses = bool(subset_mj) and bool(wmf_wrt_j)
    return HwReport(
        is_principal=i.is_principal(),
        subset_mj=subset_mj,
        wmf_wrt_j=wmf_wrt_j,
        cor214_class=classes,
        hypotheses_hold=hypotheses,
        has_torsion=verdict.has_torsion,
        tor1_dim=verdict.tor1_dim,
        certified=verdict.certified,
    )
