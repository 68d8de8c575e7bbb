"""Monomial ideals as finite sets of exponent vectors.

Operations are pure integer combinatorics: membership is componentwise
divisibility, products are pairwise sums, intersections pairwise maxima.
Whether v lies in I depends only on min(v, L), where L is the
componentwise maximum of I's minimal generators, so I is also a bit set
over its staircase box prod [0, L_i]: a colon is an AND of ORs of
up-set masks there, read back to minimal generators.  Integral closure
tests the box points against the half-spaces of the Newton polyhedron,
found once per ideal by integer Fourier-Motzkin elimination.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice, product
from math import gcd
from operator import add, le, mul


def _deglex(t):
    return sum(t), t


def _minimalize(gens):
    """Minimal generators in deglex order.  Two distinct monomials of one
    total degree never divide each other, so each candidate is tested
    only against the kept generators of lower degree."""
    out = []
    lower = 0  # out[:lower] has lower degree than the current candidate
    deg = -1
    for u in sorted(set(gens), key=_deglex):
        d = sum(u)
        if d != deg:
            deg, lower = d, len(out)
        if not any(all(map(le, w, u)) for w in islice(out, lower)):
            out.append(u)
    return tuple(out)


def _ideal(nvars, gens):
    """MonomialIdeal from valid exponent tuples (results of operations on
    ideals): no per-entry checks, but still minimalized."""
    return _from_gens(nvars, _minimalize(gens))


def _from_gens(nvars, gens):
    """MonomialIdeal whose gens are already minimal and sorted."""
    out = MonomialIdeal.__new__(MonomialIdeal)
    out.nvars = nvars
    out.gens = gens
    return out


# Products, colons and integral closures recur across the trials of a
# fuzz suite, so all three are memoized on the generator tuples; the
# stored values are tuples of exponent vectors and hold no ideal or ring.
_OP_CACHE_SIZE = 512


@lru_cache(maxsize=_OP_CACHE_SIZE)
def _product(f, g):
    """Minimal generators of the product of the ideals on f and g."""
    return _minimalize([tuple(map(add, a, b)) for a in f for b in g])


@lru_cache(maxsize=_OP_CACHE_SIZE)
def _colon(gens, by):
    """Minimal generators of (I : J), I on gens nonzero and J on by.

    (I : u) is generated by the (g - u)^+, which lie in I's box, so it
    is the OR of their up-set masks; (I : J) ANDs those over u.
    """
    box = _staircase(tuple(map(max, zip(*gens))))
    out = box[2]
    for u in by:
        out &= _upset(box, gens, u)
    return _mask_gens(out, box)


class MonomialIdeal:
    """A monomial ideal of k[x_1..x_n], stored by its minimal generators.

    The empty generating set is the zero ideal; the all-zero exponent
    vector alone is the unit ideal.  Minimal monomial generators are
    unique, which makes equality structural.
    """

    __slots__ = ("nvars", "gens")

    def __init__(self, nvars: int, gens):
        self.nvars = nvars
        gens = [tuple(int(e) for e in g) for g in gens]
        for g in gens:
            if len(g) != nvars:
                raise ValueError("exponent vector %r has wrong arity" % (g,))
            if any(e < 0 for e in g):
                raise ValueError("negative exponent in %r" % (g,))
        self.gens = _minimalize(gens)

    def member(self, v) -> bool:
        return any(all(map(le, g, v)) for g in self.gens)

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return bool(self.gens) and sum(self.gens[0]) == 0

    def subset_of(self, other: "MonomialIdeal") -> bool:
        return all(other.member(g) for g in self.gens)

    def __add__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        return _ideal(self.nvars, self.gens + other.gens)

    def __mul__(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        return _from_gens(self.nvars, _product(self.gens, other.gens))

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        meets = [tuple(map(max, f, g)) for f in self.gens for g in other.gens]
        return _ideal(self.nvars, meets)

    def colon(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """(self : other); other must be nonzero."""
        self._check(other)
        if other.is_zero():
            raise ValueError("colon by the zero ideal")
        if self.is_zero():
            return self
        return _from_gens(self.nvars, _colon(self.gens, other.gens))

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("operands live in different polynomial rings")

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.nvars == other.nvars
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.nvars, self.gens))

    def __repr__(self):
        return "MonomialIdeal(%d, %s)" % (self.nvars, [list(g) for g in self.gens])


@lru_cache(maxsize=None)
def _compositions(nvars: int, total: int):
    """All exponent vectors of the given total degree, lexicographically
    descending.  Built without recursion, so a ring in hundreds of
    variables stays within the stack: each step moves a unit from the
    last nonzero entry before the final one to the entry after it, which
    also takes over the final entry."""
    if nvars == 0 or total < 0:
        return ((),) if nvars == total == 0 else ()
    cur = [total] + [0] * (nvars - 1)
    out = []
    while True:
        out.append(tuple(cur))
        i = nvars - 2
        while i >= 0 and not cur[i]:
            i -= 1
        if i < 0:
            return tuple(out)
        cur[i] -= 1
        last = cur[-1]
        cur[-1] = 0
        cur[i + 1] = last + 1


# bits held by the masks of one staircase box, sum(L_i + 1) * prod(L_i + 1):
# 2^26 bits is 8 MiB, and (x^300, y^300, xy) still fits
_BOX_BITS_MAX = 1 << 26


@lru_cache(maxsize=128)
def _staircase(top):
    """(strides, ge, full) for the box prod [0, top_i], cell v at bit
    sum(v_i * strides_i) (lexicographic order); ge[i][k] has the cells
    with v_i >= k, full every cell.  Raises ValueError when the masks
    would hold more than _BOX_BITS_MAX bits."""
    strides, size = [], 1
    for t in reversed(top):
        strides.append(size)
        size *= t + 1
    strides.reverse()
    if (sum(top) + len(top)) * size > _BOX_BITS_MAX:
        raise ValueError("staircase box too large: generator maxima %s" % (list(top),))
    ge = []
    for t, s in zip(top, strides):
        block = (1 << (t + 1) * s) - 1
        blocks = ((1 << size) - 1) // block  # one bit per block of the axis
        ge.append([(block ^ ((1 << k * s) - 1)) * blocks for k in range(t + 1)])
    return strides, ge, (1 << size) - 1


def _upset(box, gens, u):
    """Mask of the cells v with v + u in the ideal generated by gens, that
    is at or above some (g - u)^+."""
    ge, full = box[1], box[2]
    out = 0
    for g in gens:
        cell = full
        for axis, a, b in zip(ge, g, u):
            if a > b:
                cell &= axis[a - b]
        out |= cell
    return out


def _cells(mask, strides):
    """The exponent vectors of the set bits of mask, low bits first."""
    while mask:
        low = mask & -mask
        mask ^= low
        idx = low.bit_length() - 1
        v = []
        for s in strides:
            q, idx = divmod(idx, s)
            v.append(q)
        yield tuple(v)


def _mask_gens(mask, box):
    """Minimal generators of an up-set mask over a box: the cells with no
    predecessor c - e_i in the mask."""
    strides, ge = box[0], box[1]
    below = 0
    for s, axis in zip(strides, ge):
        below |= (mask & ~axis[-1]) << s
    return tuple(sorted(_cells(mask & ~below, strides), key=_deglex))


def _corners(gens):
    """The monomials c outside the ideal generated by gens with every
    c + e_i inside it, in the box order.  Each has c_i < L_i, since
    min(c + e_i, L) = c otherwise."""
    strides, ge, full = box = _staircase(tuple(map(max, zip(*gens))))
    mask = _upset(box, gens, (0,) * len(strides))
    corners = full & ~mask
    for s, axis in zip(strides, ge):
        corners &= (mask >> s) & ~axis[-1]
    return _cells(corners, strides)


def _newton_halfspaces(gens):
    """Rows (a, b) with conv(gens) + R^n_{>=0} = {v : a.v + b >= 0 for all}.

    Fourier-Motzkin elimination of the weights c from sum(c_j g_j) <= v,
    c >= 0, sum(c) = 1, with c_m = 1 - c_1 - ... - c_{m-1} substituted
    and v kept symbolic.  A row is (v coefficients, c coefficients,
    constant) over the integers, divided by the gcd of its entries, and
    keys the set of input rows it combines: after t eliminations a row
    combining more than t + 1 of them is redundant (Chernikov's rule).
    Rows that hold for every v >= 0 are dropped at the end.
    """
    n, k = len(gens[0]), len(gens) - 1
    last = gens[-1]
    unit = [tuple(int(j == i) for j in range(n + k)) for i in range(n + k)]
    start = [unit[n + i] + (0,) for i in range(k)]
    start.append((0,) * n + (-1,) * k + (1,))
    for i in range(n):
        start.append(unit[i][:n] + tuple(last[i] - g[i] for g in gens[:-1]) + (-last[i],))
    rows = {r: 1 << i for i, r in enumerate(start)}
    for t, col in enumerate(range(n, n + k), 2):
        pos = [(r, h) for r, h in rows.items() if r[col] > 0]
        neg = [(r, h) for r, h in rows.items() if r[col] < 0]
        rows = {r: h for r, h in rows.items() if not r[col]}
        for p, hp in pos:
            for q, hq in neg:
                h = hp | hq
                if h.bit_count() > t:
                    continue
                a, b = p[col], -q[col]
                row = tuple(x * b + y * a for x, y in zip(p, q))
                d = gcd(*row) or 1
                rows.setdefault(tuple(x // d for x in row), h)
    return [(r[:n], r[-1]) for r in rows if min(r) < 0]


def integral_closure(ideal: MonomialIdeal) -> MonomialIdeal:
    """Integral closure of a monomial ideal in the polynomial ring: the
    monomials in its Newton polyhedron."""
    if ideal.is_zero() or ideal.is_unit():
        return ideal
    return _from_gens(ideal.nvars, _closure(ideal.gens))


@lru_cache(maxsize=_OP_CACHE_SIZE)
def _closure(gens):
    """Minimal generators of the integral closure of the nonzero, proper
    ideal on gens.

    Every minimal generator of the closure is componentwise bounded by
    the generator maxima: past the bound in coordinate c the convex
    constraint at c is slack, so subtracting e_c stays in the closure.
    """
    top = tuple(map(max, zip(*gens)))
    rows = _newton_halfspaces(gens)
    mask = 0
    for idx, v in enumerate(product(*[range(t + 1) for t in top])):
        if all(sum(map(mul, a, v)) + b >= 0 for a, b in rows):
            mask |= 1 << idx
    return _mask_gens(mask, _staircase(top))
