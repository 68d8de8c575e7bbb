"""Numerical semigroups and their relative (fractional) ideals.

Everything here is exact integer combinatorics.  A semigroup S is stored
by its Apery tuple modulo its multiplicity m: entry r is the least
element of S congruent to r.  An S-stable set E of integers is stored
the same way, by its thresholds t[r], the least element of E congruent
to r (Apery 1946; Rosales and Garcia-Sanchez, Numerical Semigroups,
2009, ch. 1), so E holds v exactly when v >= t[v mod m].  Union and
intersection are elementwise min and max, the Minkowski sum (product of
ideals) the min of F's thresholds shifted by each threshold of E, the
colon (E : F) the max of E's shifted back by each threshold of F, and
E meet S the max with the Apery tuple.  Minimal generators are derived
on demand: a threshold v is one when no v - a, a a minimal generator of
S, lies in E.
"""

from __future__ import annotations

import heapq
from functools import lru_cache, reduce
from math import gcd
from operator import ge


class NumericalSemigroup:
    """Additive submonoid of the nonnegative integers with finite complement."""

    __slots__ = ("generators", "frobenius", "conductor", "_apery", "_min_gen", "_minimal_gens", "_powers")

    def __init__(self, generators):
        gens = sorted({int(g) for g in generators})
        if not gens or gens[0] <= 0:
            raise ValueError("generators must be positive integers")
        if reduce(gcd, gens) != 1:
            raise ValueError("gcd of generators must be 1")
        self.generators = tuple(gens)
        self._min_gen = gens[0]
        self._apery = self._apery_by_shortest_path(gens)
        self.frobenius = max(self._apery) - self._min_gen
        self.conductor = self.frobenius + 1
        self._minimal_gens = None
        self._powers = None  # thresholds of the maximal-ideal powers, by mpow_set

    @staticmethod
    def _apery_by_shortest_path(gens):
        # Dijkstra on residues mod the smallest generator; dist[r] is the
        # least semigroup element congruent to r.
        a = gens[0]
        dist = [None] * a
        dist[0] = 0
        queue = [(0, 0)]
        while queue:
            d, r = heapq.heappop(queue)
            if dist[r] is not None and d > dist[r]:
                continue
            for g in gens[1:]:
                nd, nr = d + g, (r + g) % a
                if dist[nr] is None or nd < dist[nr]:
                    dist[nr] = nd
                    heapq.heappush(queue, (nd, nr))
        return tuple(dist)

    def __contains__(self, v) -> bool:
        return v >= 0 and self._apery[v % self._min_gen] <= v

    def minimal_generators(self):
        """Generators that are not sums of two nonzero elements."""
        if self._minimal_gens is None:
            kept = []
            for g in self.generators:
                if not any(g - h in self and g != h for h in kept):
                    kept.append(g)
            self._minimal_gens = tuple(kept)
        return self._minimal_gens

    def __eq__(self, other):
        return isinstance(other, NumericalSemigroup) and self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    def __repr__(self):
        return "NumericalSemigroup(%s)" % (list(self.generators),)


class RelativeIdealSet:
    """S-stable set of integers ``{g + s : g in gens, s in S}``.

    ``thresholds[r]`` is the least element congruent to r modulo the
    multiplicity; the empty set (the zero ideal) has None.  Generators
    may be negative (fractional sets); ``gens``, the unique minimal
    generating set in ascending order, is derived on first use.
    """

    __slots__ = ("ambient", "thresholds", "_gens")

    def __init__(self, ambient: NumericalSemigroup, gens):
        vals = sorted({int(v) for v in gens})
        self.ambient = ambient
        self.thresholds = _meet(min, [_shifted(ambient._apery, v) for v in vals]) if vals else None
        self._gens = None

    @property
    def gens(self):
        if self._gens is None:
            self._gens = _minimal_thresholds(self.ambient, self.thresholds)
        return self._gens

    def __contains__(self, v) -> bool:
        t = self.thresholds
        return t is not None and v >= t[v % len(t)]

    def is_zero(self) -> bool:
        return self.thresholds is None

    def is_ring(self) -> bool:
        return self.thresholds == self.ambient._apery

    def is_integral(self) -> bool:
        t = self.thresholds
        return t is None or all(map(ge, t, self.ambient._apery))

    def subset_of(self, other: "RelativeIdealSet") -> bool:
        _check_ambient(self, other)
        if self.thresholds is None:
            return True
        if other.thresholds is None:
            return False
        return all(map(ge, self.thresholds, other.thresholds))

    def __add__(self, other: "RelativeIdealSet") -> "RelativeIdealSet":
        """Minkowski sum; this is the product of the corresponding ideals."""
        _check_ambient(self, other)
        if self.thresholds is None or other.thresholds is None:
            return _relset(self.ambient, None)
        return _relset(self.ambient, _sum(self.thresholds, other.thresholds))

    def union(self, other: "RelativeIdealSet") -> "RelativeIdealSet":
        """Set union; this is the sum of the corresponding ideals."""
        _check_ambient(self, other)
        if self.thresholds is None:
            return other
        if other.thresholds is None:
            return self
        return _relset(self.ambient, tuple(map(min, self.thresholds, other.thresholds)))

    def intersect(self, other: "RelativeIdealSet") -> "RelativeIdealSet":
        """Set intersection; this is the intersection of the ideals."""
        _check_ambient(self, other)
        if self.thresholds is None or other.thresholds is None:
            return _relset(self.ambient, None)
        return _relset(self.ambient, tuple(map(max, self.thresholds, other.thresholds)))

    def shift(self, c: int) -> "RelativeIdealSet":
        t = self.thresholds
        return self if t is None else _relset(self.ambient, _shifted(t, c))

    def top_outside(self) -> int:
        """Largest element of S outside the (nonzero) set, or -1: in each
        class where the threshold exceeds S's, the threshold minus m."""
        m, ap = self.ambient._min_gen, self.ambient._apery
        return max((t - m for t, a in zip(self.thresholds, ap) if t > a), default=-1)

    def __eq__(self, other):
        return (
            isinstance(other, RelativeIdealSet)
            and self.thresholds == other.thresholds
            and self.ambient == other.ambient
        )

    def __hash__(self):
        return hash((self.ambient, self.thresholds))

    def __repr__(self):
        return "RelativeIdealSet(%r, %s)" % (self.ambient, list(self.gens))


def _relset(ambient, thresholds):
    """A RelativeIdealSet from thresholds already computed."""
    out = RelativeIdealSet.__new__(RelativeIdealSet)
    out.ambient = ambient
    out.thresholds = thresholds
    out._gens = None
    return out


def _shifted(t, c):
    """Thresholds of E + c: entry r is t[(r - c) mod m] + c."""
    k = c % len(t)
    return tuple([v + c for v in t[-k:] + t[:-k]])


def _meet(pick, tuples):
    """Elementwise min or max of a nonempty list of threshold tuples."""
    return tuple(map(pick, *tuples)) if len(tuples) > 1 else tuples[0]


# Sums and colons recur across the trials of a fuzz suite, so both are
# memoized on the threshold tuples, which hold no semigroup.
_OP_CACHE_SIZE = 512


@lru_cache(maxsize=_OP_CACHE_SIZE)
def _sum(e, f):
    """Thresholds of the Minkowski sum E + F: F shifted by each of E's."""
    return _meet(min, [_shifted(f, c) for c in e])


@lru_cache(maxsize=_OP_CACHE_SIZE)
def _colon(e, f):
    """Thresholds of (E : F): z + t_F[s] lies in E for every class s."""
    return _meet(max, [_shifted(e, -c) for c in f])


def _minimal_thresholds(S, t):
    """Thresholds v of E with v - a outside E for every minimal generator a of S."""
    if t is None:
        return ()
    m = len(t)
    mins = S.minimal_generators()
    return tuple(sorted(v for v in t if all(v - a < t[(v - a) % m] for a in mins)))


def _check_ambient(e, f):
    if e.ambient != f.ambient:
        raise ValueError("operands live over different semigroups")


def relset_colon(e: RelativeIdealSet, f: RelativeIdealSet) -> RelativeIdealSet:
    """The set ``{z : z + f in e for all f}``, i.e. the colon (E : F).

    F must be nonzero.  F's class s is t_F[s] + mN and E is stable under
    adding m, so the colon is the intersection of the sets E - t_F[s].
    """
    _check_ambient(e, f)
    if f.is_zero():
        raise ValueError("colon by the zero set")
    if e.is_zero():
        return e
    return _relset(e.ambient, _colon(e.thresholds, f.thresholds))


def restrict_to_semigroup(e: RelativeIdealSet) -> RelativeIdealSet:
    """E intersected with the ambient semigroup.

    Turns the fractional colon into the ring-level colon: the valuations
    of (I :_R J) are exactly {z in S : z + v(J) <= v(I)}.
    """
    if e.is_zero():
        return e
    return _relset(e.ambient, tuple(map(max, e.thresholds, e.ambient._apery)))


def mpow_set(S: NumericalSemigroup, s: int) -> RelativeIdealSet:
    """The set of valuations of m^s.  Its thresholds are kept on S once
    built, and not the set, which would point back at S."""
    if s < 0:
        raise ValueError("negative power")
    powers = S._powers
    if powers is None:
        powers = S._powers = [S._apery, RelativeIdealSet(S, S.minimal_generators()).thresholds]
    while len(powers) <= s:
        powers.append(_sum(powers[-1], powers[1]))
    return _relset(S, powers[s])
