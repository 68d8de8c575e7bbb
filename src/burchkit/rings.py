"""The two ring families: the one place that knows how they differ.

QuotientRing is k[x_1..x_n]/A, graded by total degree, with exponent
tuples as labels; SemigroupRing is k[[S]], graded by valuation, with
integer labels.  Each answers the graded-algebra calls of `homalg`:
basis(d), times(a), the table {b: a*b} that `homalg` reads every
product from (None where it is zero), filled from mult(a, b), deg(label),
is_label(label), whether label names a nonzero monomial of R,
kernel_window(slack), the width past a free module's highest shift that
holds its kernel generators, with a certified flag, and stop_modulus(),
the m of `homalg.kernel_stop` (None when there is none).  SemigroupRing
also answers apery(), the nonzero elements of Ap(S, m) in ascending
order, whose products seed `homalg`'s kernel walk.  Both answer
depth_positive(); QuotientRing also answers socle(), the standard
monomials that every variable kills, from which its depth_positive()
follows.

An ideal of either family is its ring and a representative set, rep:
for a QIdeal a MonomialIdeal that contains A, for an SgIdeal its
integral value set, a RelativeIdealSet over S.  Their common base holds what does not depend on the family:
is_proper, subset_of, intersect, equality, hashing and repr, all read
off rep, and outside(e), the labels of basis(e) outside the ideal, in
order, kept per degree, which `homalg` reads the degree pieces of R/I
from.  Each family says the rest: membership, zero and unit tests, sum,
product, colon, minimal generators, m-primariness, Loewy length,
quotient_top_degree() of R/I and integral closedness.
Everything is immutable and value-compared.

Colon here is always the ring-level colon (I : J) = {x in R : xJ <= I}.
Colon by the zero ideal returns the unit ideal.
"""

import math
from functools import partial
from operator import add, le

from .monomial import (
    MonomialIdeal,
    _compositions,
    _corners,
    _deglex,
    _from_gens,
    _ideal,
    integral_closure,
)
from .semigroup import (
    NumericalSemigroup,
    RelativeIdealSet,
    mpow_set,
    relset_colon,
    restrict_to_semigroup,
)

INFINITY = math.inf


class _Products(dict):
    """{b: a*b} for one label a, each entry filled from mult on first read."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, b):
        prod = self[b] = self.fill(b)
        return prod


class _Ring:
    """What both families share: the product tables, one per label, kept
    in _times.  They live on the ring, not on an algebra over it, so every
    prime, resolution stage and fuzz trial over one ring shares them."""

    __slots__ = ()

    def times(self, a):
        """The products of the label a, as a dict {b: a*b} holding None
        where a*b is zero, filled from mult on first read."""
        got = self._times.get(a)
        if got is None:
            got = self._times[a] = _Products(partial(self.mult, a))
        return got


class QuotientRing(_Ring):
    """k[x_1..x_n] / A for a proper monomial ideal A (A may be zero).

    Windows: an Artinian R vanishes past its top degree, so every window
    is exact; otherwise the window is the largest defining degree plus
    a heuristic slack, flagged certified=False.
    """

    __slots__ = ("nvars", "defining", "_basis", "_socle", "_powers", "_top", "_times")

    def __init__(self, nvars, defining_gens=()):
        defining = MonomialIdeal(nvars, defining_gens)
        if defining.is_unit():
            raise ValueError("defining ideal must be proper")
        self.nvars = nvars
        self.defining = defining
        self._basis = {}
        self._socle = None
        self._powers = {}
        self._times = {}
        # read by mpow and every kernel window, so computed once
        self._top = self.zero_ideal().quotient_top_degree()

    def basis(self, d):
        """The standard monomials of degree d: those outside A."""
        got = self._basis.get(d)
        if got is None:
            member = self.defining.member
            comps = _compositions(self.nvars, d) if d >= 0 else ()
            got = self._basis[d] = tuple(u for u in comps if not member(u))
        return got

    def socle(self):
        """Standard monomials killed by every variable, as exponent
        vectors: the corners of A's staircase, which lie in the box of
        its generator maxima even when R is not Artinian."""
        if self._socle is None:
            gens = self.defining.gens
            self._socle = tuple(sorted(_corners(gens), key=_deglex)) if gens else ()
        return self._socle

    def ideal(self, gens):
        return QIdeal(self, gens)

    def zero_ideal(self):
        return _trusted(QIdeal, self, self.defining)

    def unit_ideal(self):
        return QIdeal(self, ((0,) * self.nvars,))

    def maximal_ideal(self):
        return self.mpow(1)

    def mpow(self, s):
        """m^s; its representative is kept on the ring once built, and
        not the ideal, which would point back at the ring.

        The degree-s monomials are pairwise incomparable, and each
        generator of A of degree >= s is divisible by one of them, so the
        minimal generators of m^s + A are the generators of A below
        degree s and the degree-s monomials none of those divide.  Past
        the top degree of an Artinian R, m^s lies in A and m^s + A is A:
        no monomial of degree s is built.
        """
        rep = self._powers.get(s)
        if rep is None:
            if s < 0:
                raise ValueError("negative power")
            last = self.top_degree()
            if last is not None and s > last:
                rep = self.defining
            else:
                low = tuple(a for a in self.defining.gens if sum(a) < s)
                top = [
                    u for u in _compositions(self.nvars, s)
                    if not any(all(map(le, a, u)) for a in low)
                ]
                # low is in deglex order already, below every degree-s monomial
                rep = _from_gens(self.nvars, low + tuple(sorted(top)))
            self._powers[s] = rep
        return _trusted(QIdeal, self, rep)

    def depth_positive(self):
        return not self.socle()

    def deg(self, label):
        return sum(label)

    def is_label(self, label):
        """Is label a standard monomial: an exponent tuple of nvars
        nonnegative entries that lies outside A?"""
        return (
            type(label) is tuple
            and len(label) == self.nvars
            and min(label, default=0) >= 0
            and not self.defining.member(label)
        )

    def mult(self, a, b):
        """Product of two standard monomials; None when it lies in A."""
        prod = tuple(map(add, a, b))
        return None if self.defining.member(prod) else prod

    def top_degree(self):
        return self._top

    def kernel_window(self, slack):
        top = self.top_degree()
        if top is not None:
            return top, True
        return max((sum(g) for g in self.defining.gens), default=0) + slack, False

    def stop_modulus(self):
        return None

    def __eq__(self, other):
        if not isinstance(other, QuotientRing):
            return NotImplemented
        return self.nvars == other.nvars and self.defining == other.defining

    def __hash__(self):
        return hash((self.nvars, self.defining))

    def __repr__(self):
        return "QuotientRing(%d, %r)" % (self.nvars, list(self.defining.gens))


class _Ideal:
    """An ideal as its ring and its representative set rep, compared by
    value; each family's class says what rep means."""

    __slots__ = ("ring", "rep", "_outside")

    def outside(self, e):
        """The labels of degree e outside I, in basis order; kept per
        degree, as every Tor over R/I asks for each several times."""
        kept = self._outside
        if kept is None:
            kept = self._outside = {}
        got = kept.get(e)
        if got is None:
            member = self.member
            got = kept[e] = tuple(u for u in self.ring.basis(e) if not member(u))
        return got

    def is_proper(self):
        return not self.is_unit()

    def subset_of(self, other):
        self._check(other)
        return self.rep.subset_of(other.rep)

    def intersect(self, other):
        self._check(other)
        return _trusted(type(self), self.ring, self.rep.intersect(other.rep))

    def _check(self, other):
        if type(other) is not type(self) or (other.ring is not self.ring and other.ring != self.ring):
            raise ValueError("ambient mismatch")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.ring == other.ring and self.rep == other.rep

    def __hash__(self):
        return hash((self.ring, self.rep))

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, list(self.min_gens()))


def _trusted(cls, ring, rep):
    """An ideal of class cls on a rep already valid over ring, unchecked."""
    out = object.__new__(cls)
    out.ring = ring
    out.rep = rep
    out._outside = None
    return out


class QIdeal(_Ideal):
    """Ideal of a QuotientRing, stored as a polynomial-ring representative.

    The representative always contains the defining ideal; two handles
    are equal iff the representatives have the same minimal generators.
    """

    __slots__ = ()

    def __init__(self, ring, gens):
        self.ring = ring
        # only the caller's generators need checking; A's are valid
        self.rep = MonomialIdeal(ring.nvars, gens) + ring.defining
        self._outside = None

    # containment of a monomial, as an element of R
    def member(self, v):
        return self.rep.member(v)

    def is_zero(self):
        return self.rep == self.ring.defining

    def is_unit(self):
        return self.rep.is_unit()

    # Sums, intersections and colons of representatives already contain
    # the defining ideal; only the product needs it added back.

    def __add__(self, other):
        self._check(other)
        return _trusted(QIdeal, self.ring, self.rep + other.rep)

    def __mul__(self, other):
        self._check(other)
        prod = self.rep * other.rep
        return _trusted(QIdeal, self.ring, _ideal(self.ring.nvars, prod.gens + self.ring.defining.gens))

    def colon(self, other):
        self._check(other)
        if other.rep.is_zero():
            return self.ring.unit_ideal()
        return _trusted(QIdeal, self.ring, self.rep.colon(other.rep))

    def min_gens(self):
        """Minimal generators of the ideal inside R.

        A minimal generator of the representative survives exactly when
        it lies outside the defining ideal.
        """
        a = self.ring.defining
        return tuple(g for g in self.rep.gens if not a.member(g))

    def is_m_primary(self):
        # R/I is Artinian iff the representative traps a pure power of
        # every variable; unit ideals are excluded by convention.
        if self.is_unit():
            return False
        n = self.ring.nvars
        trapped = set()
        for g in self.rep.gens:
            support = [i for i in range(n) if g[i] > 0]
            if len(support) == 1:
                trapped.add(support[0])
        return len(trapped) == n

    def loewy_length(self):
        """min s with m^s <= I, or infinity when I is not m-primary: one
        more than the largest degree of a standard monomial, which some
        corner of the staircase reaches."""
        if self.is_unit():
            return 0
        if not self.is_m_primary():
            return INFINITY
        return max(map(sum, _corners(self.rep.gens))) + 1

    def quotient_top_degree(self):
        """Largest d with (R/I)_d != 0, Loewy length - 1; None when R/I
        is not Artinian."""
        ll = self.loewy_length()
        return None if ll == INFINITY else int(ll) - 1

    def is_integrally_closed(self):
        """Only meaningful over the polynomial ring itself."""
        if not self.ring.defining.is_zero():
            return None
        return integral_closure(self.rep) == self.rep


class SemigroupRing(_Ring):
    """Numerical semigroup ring k[[t^a : a in S]] for S = <generators>.

    Windows: pieces have dimension <= 1, so differentials are scalar
    matrices on index sets that stabilize past the conductor c, and no
    kernel gains a minimal generator past max shift + 2c + 1: every
    window is certified.  The kernel walk stops sooner, once every class
    mod the multiplicity m has met a degree where dim ker_d is the rank
    of the kernel, since t^m acts injectively (`homalg.kernel_stop`);
    the reported window and `homalg.audit_resolution` keep the bound.
    k[S] is a free k[t^m]-module on its Apery set, so multiplying by t^m
    or by t^e, e in `apery()`, only moves a basis element (j, t^b) of a
    free module to (j, t^(b+e)): the walk keys its vectors by j alone.
    """

    __slots__ = ("S", "_times")

    def __init__(self, generators):
        self.S = NumericalSemigroup(generators)
        self._times = {}

    def ideal(self, vals):
        return SgIdeal(self, vals)

    def zero_ideal(self):
        return SgIdeal(self, ())

    def unit_ideal(self):
        return SgIdeal(self, (0,))

    def maximal_ideal(self):
        return self.mpow(1)

    def mpow(self, s):
        return _trusted(SgIdeal, self, mpow_set(self.S, s))

    def depth_positive(self):
        # one-dimensional domain, depth 1
        return True

    def basis(self, d):
        # S holds every degree from its conductor on
        return (d,) if d >= self.S.conductor or d in self.S else ()

    def mult(self, a, b):
        return a + b

    def deg(self, label):
        return label

    def is_label(self, label):
        """Is label a valuation t^label of R, an integer in S?"""
        return type(label) is int and label in self.S

    def kernel_window(self, slack):
        return 2 * self.S.conductor + 1, True

    def stop_modulus(self):
        """The multiplicity m: t^m acts injectively on free modules.

        It takes the basis label t^b of each degree piece to t^(b+m),
        which is injective, so the degree-d basis of a free module, one
        element (j, t^(d - s_j)) per column j, maps into that of degree
        d + m column by column (`homalg` carries each kernel degree's
        span to the one m above).
        """
        return self.S.generators[0]

    def apery(self):
        """The nonzero elements of Ap(S, m), m = stop_modulus(), ascending:
        the least element of S in each nonzero class mod m."""
        return sorted(self.S._apery[1:])

    def __eq__(self, other):
        if not isinstance(other, SemigroupRing):
            return NotImplemented
        return self.S == other.S

    def __hash__(self):
        return hash(self.S)

    def __repr__(self):
        return "SemigroupRing(%r)" % (list(self.S.generators),)


class SgIdeal(_Ideal):
    """Monomial ideal of a semigroup ring, stored by its value set.

    Takes valuations, each of which must lie in the semigroup.
    """

    __slots__ = ()

    def __init__(self, ring, vals):
        vals = tuple(vals)  # read twice: an iterator would be spent
        self.ring = ring
        self.rep = RelativeIdealSet(ring.S, vals)
        # integral exactly when no threshold lies below S's Apery tuple
        if not self.rep.is_integral():
            bad = next(v for v in vals if v not in ring.S)
            raise ValueError("value %d is not in the semigroup" % bad)
        self._outside = None

    def member(self, v):
        return v in self.rep

    def is_zero(self):
        return self.rep.is_zero()

    def is_unit(self):
        return self.rep.is_ring()

    # Sums, products and intersections of integral sets are integral,
    # and the colon is cut down to the semigroup: no result is checked.

    def __add__(self, other):
        self._check(other)
        return _trusted(SgIdeal, self.ring, self.rep.union(other.rep))

    def __mul__(self, other):
        self._check(other)
        return _trusted(SgIdeal, self.ring, self.rep + other.rep)

    def colon(self, other):
        self._check(other)
        if other.is_zero():
            return self.ring.unit_ideal()
        frac = relset_colon(self.rep, other.rep)
        return _trusted(SgIdeal, self.ring, restrict_to_semigroup(frac))

    def min_gens(self):
        return self.rep.gens

    def is_m_primary(self):
        # every nonzero proper ideal of a one-dimensional local domain
        return not self.is_zero() and not self.is_unit()

    def loewy_length(self):
        """min s with m^s <= I, or infinity when I is zero.

        Every value of m^s is at least s*a for the smallest generator a,
        and I contains every integer from its largest threshold on, so
        the scan stops by max(thresholds) // a + 1.
        """
        if self.is_unit():
            return 0
        if self.is_zero():
            return INFINITY
        S = self.ring.S
        bound = max(self.rep.thresholds) // S.generators[0] + 1
        for s in range(bound + 1):
            if mpow_set(S, s).subset_of(self.rep):
                return s
        raise AssertionError("certified Loewy bound failed")

    def quotient_top_degree(self):
        """Largest d with (R/I)_d != 0, -1 for the unit ideal; None when
        I is zero."""
        return None if self.is_zero() else self.rep.top_outside()

    def is_integrally_closed(self):
        return None
