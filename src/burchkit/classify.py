"""Predicate layer: Burch ideals, weak m-fullness, Loewy calculus.

All functions are generic over the ideal-handle contract from rings.py
and work identically on both backends.  Loewy lengths are integers or
math.inf; record types are small frozen dataclasses so property suites
can assert on individual fields.
"""

import math
from dataclasses import dataclass

INFINITY = math.inf


def _same_ring(i, j):
    if i.ring != j.ring:
        raise ValueError("ambient mismatch")


def _require_proper(i):
    if i.is_unit():
        raise ValueError("unit ideal")


class ColonTable:
    """m*I, (I : m^s) and (mI : m^s) for one ideal I, each formed once.

    The predicates below read their products and colons from a table,
    so callers that ask several of them about one ideal make one table
    and drop it with their result; nothing is kept on the ring or the
    ideal.  Each predicate raises what its public function raises.
    """

    def __init__(self, i):
        self.i = i
        self.ring = i.ring
        self.m = self.ring.maximal_ideal()
        self._mi = None
        self._colons = {}
        self._mi_colons = {}

    @property
    def mi(self):
        if self._mi is None:
            self._mi = self.m * self.i
        return self._mi

    def colon(self, s):
        """(I : m^s)."""
        got = self._colons.get(s)
        if got is None:
            got = self._colons[s] = self.i.colon(self.ring.mpow(s))
        return got

    def mi_colon(self, s):
        """(mI : m^s)."""
        got = self._mi_colons.get(s)
        if got is None:
            got = self._mi_colons[s] = self.mi.colon(self.ring.mpow(s))
        return got

    def wmf_mpow(self, s):
        """(I : m^s) = (mI : m^{s+1}), weak m-fullness w.r.t. m^s."""
        return self.colon(s) == self.mi_colon(s + 1)

    def wmf_wrt(self, j):
        _same_ring(self.i, j)
        if j.is_zero():
            raise ValueError("colon by the zero ideal")
        return self.i.colon(j) == self.mi.colon(self.m * j)

    def weakly_mfull(self):
        _require_proper(self.i)
        return self.i == self.mi_colon(1)

    def burch(self):
        _require_proper(self.i)
        return self.colon(1) != self.mi_colon(1)

    def depth_positive(self):
        _require_proper(self.i)
        return self.colon(1) == self.i

    def cor214_power(self, ll):
        """The least s < ll = ll(R/I) with I <= m^{s+1} and I weakly
        m-full w.r.t. m^s, which puts an m-primary I in class i of
        Corollary 2.14; None when there is none."""
        i, ring = self.i, self.ring
        for s in range(ll):
            # the powers of m decrease: once I leaves one, it leaves all
            if not i.subset_of(ring.mpow(s + 1)):
                return None
            if self.wmf_mpow(s):
                return s
        return None

    def cor214(self, ll=None):
        """The classes of Corollary 2.14 that I is in.  ll, when given, is
        ll(R/I) of an m-primary I, which the caller has already;
        without it I is checked and ll computed here."""
        i, ring = self.i, self.ring
        if ll is None:
            if not i.is_m_primary():
                raise ValueError("requires an m-primary ideal")
            ll = i.loewy_length()
        classes = set()
        if self.cor214_power(ll) is not None:
            classes.add("i")
        if self.weakly_mfull():
            classes.add("ii")
        k = self.colon(1)
        if not k.is_unit() and i == self.m * k:
            classes.add("iii")
        if i == ring.mpow(ll):
            classes.add("iv")
        return frozenset(classes)


def is_weakly_mfull_wrt(i, j):
    """(I : J) = (mI : mJ)?

    J must be nonzero; a unit J reproduces the plain weakly-m-full test.
    """
    return ColonTable(i).wmf_wrt(j)


def is_weakly_mfull(i):
    """I = (mI : m)?"""
    return ColonTable(i).weakly_mfull()


def is_burch(i):
    """(I : m) != (mI : m)?"""
    return ColonTable(i).burch()


def loewy_length(i):
    """min s with m^s <= I; math.inf when I is not m-primary."""
    return i.loewy_length()


def _inf_mpow_multiplier(i, j, cap):
    """min s with m^s * J <= I, scanned up to cap; math.inf past it."""
    ring = i.ring
    for s in range(cap + 1):
        if (ring.mpow(s) * j).subset_of(i):
            return s
    return INFINITY


@dataclass(frozen=True)
class ColonLoewyRecord:
    """Both sides of the two colon/Loewy identities.

    First identity: ll(R/(I:J)) = min{s : m^s*J <= I}.
    Second (needs J not inside I):
    ll(R/(I:J)) = ll(R/(I:mJ)) + 1 = ll(R/((I:m):J)) + 1.
    """

    loewy_of_colon: float
    direct_multiplier: float
    first_holds: bool
    second_applicable: bool
    loewy_colon_mj_plus1: float = None
    loewy_nested_plus1: float = None
    second_holds: bool = None
    all_hold: bool = False


def l2_identities(i, j):
    _same_ring(i, j)
    m = i.ring.maximal_ideal()
    c = i.colon(j)
    lhs = c.loewy_length()
    # bounded independent scan; a finite lhs certifies the bound, and an
    # infinite one means I, inside (I : J), is not m-primary: scan to 12
    cap = int(lhs) + 1 if lhs != INFINITY else 12
    rhs = _inf_mpow_multiplier(i, j, cap)
    first = lhs == rhs

    if j.subset_of(i):
        return ColonLoewyRecord(lhs, rhs, first, False, all_hold=first)
    mid = i.colon(m * j).loewy_length() + 1
    nested = i.colon(m).colon(j).loewy_length() + 1
    second = lhs == mid == nested
    return ColonLoewyRecord(
        lhs, rhs, first, True, mid, nested, second, first and second
    )


@dataclass(frozen=True)
class LoewyStepRecord:
    """Three equivalent conditions for an m-primary ideal.

    cond_i: ll(R/mI) = ll(R/I) + 1.
    cond_ii: (I : m^s) = (mI : m^{s+1}) at s = ll(R/I) - 1.
    cond_iii: the same equality for some s in [0, ll(R/I)).
    """

    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    witness_s: int = None


def l3_equivalence(i):
    if not i.is_m_primary():
        raise ValueError("requires an m-primary ideal")
    t = ColonTable(i)
    ll = i.loewy_length()
    cond_i = t.mi.loewy_length() == ll + 1
    cond_ii = t.wmf_mpow(ll - 1)
    witness = next((s for s in range(ll) if t.wmf_mpow(s)), None)
    return LoewyStepRecord(cond_i, cond_ii, witness is not None, witness)


def cor214_classify(i):
    """Membership in the four torsion-friendly classes.

    i:   wmf w.r.t. m^s for some s with I <= m^{s+1}
    ii:  weakly m-full
    iii: I = mJ for an m-primary J, decided by I = m(I:m) with (I:m)
         proper (mJ = m(mJ:m) always; conversely (I:m) can only fail to
         be m-primary by being the unit ideal, and m = mJ forces m = 0)
    iv:  I = m^s
    """
    return ColonTable(i).cor214()


@dataclass(frozen=True)
class ClassificationReport:
    is_m_primary: bool
    loewy_R_mod_I: float
    loewy_R_mod_mI: float
    is_burch: bool
    is_weakly_mfull: bool
    wmf_wrt_mpow: dict
    wmf_wrt_named: dict
    is_integrally_closed: object
    depth_R_mod_I_positive: bool
    cor214_class: frozenset
    open_pd_question: bool


def classification_report(i, named=None, powers=None):
    """Aggregate every predicate for one ideal.

    wmf_wrt_named holds weak m-fullness w.r.t. each ideal J of named, a
    map from labels to ideals, under its label.
    wmf_wrt_mpow covers lo <= s <= hi for powers = (lo, hi), which is
    how `burchkit classify --wrt-mpow-range` asks for its range; by
    default 0 <= s <= ll(R/I) (capped at 8 past a non-m-primary ideal's
    infinite Loewy length).  Integral closure is
    decided only over a polynomial ring; None elsewhere.
    open_pd_question flags the combination Burch + not weakly m-full +
    m-primary over a positive-depth ring, where Tor-rigidity of R/I is
    not decided either way by the results encoded here.
    """
    _require_proper(i)
    t = ColonTable(i)
    ring = i.ring
    primary = i.is_m_primary()
    ll = i.loewy_length()
    ll_mi = t.mi.loewy_length()
    burch = t.burch()
    wmf = t.weakly_mfull()

    lo, hi = powers or (0, int(ll) if ll != INFINITY else 8)
    wmf_pows = {s: t.wmf_mpow(s) for s in range(lo, hi + 1)}

    wmf_named = {label: t.wmf_wrt(j) for label, j in (named or {}).items()}

    return ClassificationReport(
        is_m_primary=primary,
        loewy_R_mod_I=ll,
        loewy_R_mod_mI=ll_mi,
        is_burch=burch,
        is_weakly_mfull=wmf,
        wmf_wrt_mpow=wmf_pows,
        wmf_wrt_named=wmf_named,
        is_integrally_closed=i.is_integrally_closed(),
        depth_R_mod_I_positive=t.depth_positive(),
        cor214_class=t.cor214(ll) if primary else frozenset(),
        open_pd_question=bool(
            ring.depth_positive() and primary and burch and not wmf
        ),
    )
