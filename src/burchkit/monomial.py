"""Monomial ideals as finite sets of exponent vectors.

Operations are pure integer/rational combinatorics: membership is
componentwise divisibility, products are pairwise sums, intersections
pairwise maxima, colons the usual ``lcm(f, g) - g`` recipe.  Integral
closure decides Newton-polyhedron membership by exact rational
Fourier-Motzkin elimination, never by floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add, le


def divides(u, v) -> bool:
    return all(map(le, u, v))


def _minimalize(gens):
    out = []
    for u in sorted(set(gens), key=lambda t: (sum(t), t)):
        if not any(all(map(le, w, u)) for w in out):
            out.append(u)
    return tuple(out)


def _ideal(nvars, gens):
    """MonomialIdeal from valid exponent tuples (results of operations on
    ideals): no per-entry checks, but still minimalized."""
    out = MonomialIdeal.__new__(MonomialIdeal)
    out.nvars = nvars
    out.gens = _minimalize(gens)
    return out


class MonomialIdeal:
    """A monomial ideal of k[x_1..x_n], stored by its minimal generators.

    The empty generating set is the zero ideal; the all-zero exponent
    vector alone is the unit ideal.  Minimal monomial generators are
    unique, which makes equality structural.
    """

    __slots__ = ("nvars", "gens")

    def __init__(self, nvars: int, gens, *, minimal=False):
        self.nvars = nvars
        gens = [tuple(int(e) for e in g) for g in gens]
        for g in gens:
            if len(g) != nvars:
                raise ValueError("exponent vector %r has wrong arity" % (g,))
            if any(e < 0 for e in g):
                raise ValueError("negative exponent in %r" % (g,))
        if minimal:
            self.gens = tuple(sorted(gens, key=lambda t: (sum(t), t)))
        else:
            self.gens = _minimalize(gens)

    def member(self, v) -> bool:
        return any(all(map(le, g, v)) for g in self.gens)

    def __contains__(self, v):
        return self.member(v)

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
        prods = [tuple(map(add, f, g)) for f in self.gens for g in other.gens]
        return _ideal(self.nvars, prods)

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        self._check(other)
        meets = [tuple(map(max, f, g)) for f in self.gens for g in other.gens]
        return _ideal(self.nvars, meets)

    def colon(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """(self : other); other must be nonzero."""
        self._check(other)
        if other.is_zero():
            raise ValueError("colon by the zero ideal")
        out = None
        for g in other.gens:
            part = _ideal(
                self.nvars,
                [tuple(max(a - b, 0) for a, b in zip(f, g)) for f in self.gens],
            )
            out = part if out is None else out.intersect(part)
        return out

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
    """All exponent vectors of the given total degree, lexicographically."""
    if nvars == 0:
        return ((),) if total == 0 else ()
    if nvars == 1:
        return ((total,),)
    out = []
    for head in range(total, -1, -1):
        for tail in _compositions(nvars - 1, total - head):
            out.append((head,) + tail)
    return tuple(out)


def mpow(nvars: int, s: int) -> MonomialIdeal:
    """s-th power of the homogeneous maximal ideal (x_1..x_n)."""
    if s < 0:
        raise ValueError("negative power")
    return _mpow(nvars, s)


@lru_cache(maxsize=64)
def _mpow(nvars, s):
    if s == 0:
        return MonomialIdeal(nvars, [(0,) * nvars], minimal=True)
    # Degree-s monomials are pairwise incomparable, hence already minimal.
    return MonomialIdeal(nvars, _compositions(nvars, s), minimal=True)


def maximal_ideal(nvars: int) -> MonomialIdeal:
    return mpow(nvars, 1)


class QuotientContext:
    """The ring k[x_1..x_n]/a for a proper monomial ideal a."""

    __slots__ = ("nvars", "defining", "_socle", "_basis_cache")

    def __init__(self, nvars: int, defining: MonomialIdeal):
        if defining.nvars != nvars:
            raise ValueError("defining ideal has wrong arity")
        if defining.is_unit():
            raise ValueError("defining ideal must be proper")
        self.nvars = nvars
        self.defining = defining
        self._socle = None
        self._basis_cache = {}

    def is_artinian(self) -> bool:
        return all(
            any(all(g[j] == 0 for j in range(self.nvars) if j != i) for g in self.defining.gens)
            for i in range(self.nvars)
        )

    def std_basis(self, d: int):
        """Monomials of total degree d that survive in the quotient."""
        if d < 0:
            return ()
        if d not in self._basis_cache:
            self._basis_cache[d] = tuple(
                u for u in _compositions(self.nvars, d) if not self.defining.member(u)
            )
        return self._basis_cache[d]

    def socle(self):
        """Standard monomials killed by every variable, as exponent vectors.

        Any socle monomial u has u_i + 1 bounded by the largest x_i
        exponent among the defining generators, so the search box is
        finite even when the quotient is not Artinian.
        """
        if self._socle is None:
            box = [max((g[i] for g in self.defining.gens), default=0) for i in range(self.nvars)]
            if any(b == 0 for b in box):
                self._socle = ()
            else:
                found = []
                for u in _box_points([b - 1 for b in box]):
                    if self.defining.member(u):
                        continue
                    if all(
                        self.defining.member(u[:i] + (u[i] + 1,) + u[i + 1 :])
                        for i in range(self.nvars)
                    ):
                        found.append(u)
                self._socle = tuple(sorted(found, key=lambda t: (sum(t), t)))
        return self._socle

    def depth_zero(self) -> bool:
        return bool(self.socle())

    def __eq__(self, other):
        return (
            isinstance(other, QuotientContext)
            and self.nvars == other.nvars
            and self.defining == other.defining
        )

    def __hash__(self):
        return hash((self.nvars, self.defining))

    def __repr__(self):
        return "QuotientContext(%d, %r)" % (self.nvars, self.defining)


def _box_points(box):
    """All integer vectors v with 0 <= v_i <= box_i, lexicographically."""
    if not box:
        yield ()
        return
    for head in range(box[0] + 1):
        for tail in _box_points(box[1:]):
            yield (head,) + tail


def newton_member(gens, v) -> bool:
    """Whether v lies in conv(gens) + R^n_{>=0}, decided exactly.

    Feasibility of ``sum(c_i g_i) <= v, c_i >= 0, sum(c_i) = 1`` over the
    rationals via Fourier-Motzkin elimination.
    """
    if not gens:
        return False
    n = len(v)
    m = len(gens)
    if sum(v) < min(sum(g) for g in gens):
        # The all-ones weight already separates v from the polyhedron.
        return False
    if m == 1:
        return divides(gens[0], v)
    # Substitute c_m = 1 - c_1 - ... - c_{m-1}; variables are c_1..c_{m-1}.
    last = gens[-1]
    rows = []
    for i in range(m - 1):
        coeffs = [Fraction(0)] * (m - 1)
        coeffs[i] = Fraction(-1)
        rows.append((coeffs, Fraction(0)))  # c_i >= 0
    rows.append(([Fraction(1)] * (m - 1), Fraction(1)))  # c_m >= 0
    for c in range(n):
        coeffs = [Fraction(gens[i][c] - last[c]) for i in range(m - 1)]
        rows.append((coeffs, Fraction(v[c] - last[c])))
    return _fm_feasible(rows, m - 1)


def _fm_feasible(rows, nvars) -> bool:
    for k in range(nvars):
        pos, neg, rest = [], [], []
        for coeffs, rhs in rows:
            a = coeffs[k]
            if a > 0:
                pos.append((coeffs, rhs))
            elif a < 0:
                neg.append((coeffs, rhs))
            else:
                rest.append((coeffs, rhs))
        new_rows = {}
        for coeffs, rhs in rest:
            key = _canon(coeffs, rhs, k + 1)
            new_rows.setdefault(key, (coeffs, rhs))
        for pc, pr in pos:
            for nc, nr in neg:
                # Scale so variable k cancels: pc/a_p + nc/(-a_n).
                ap, an = pc[k], -nc[k]
                coeffs = [x * an + y * ap for x, y in zip(pc, nc)]
                rhs = pr * an + nr * ap
                key = _canon(coeffs, rhs, k + 1)
                new_rows.setdefault(key, (coeffs, rhs))
        rows = list(new_rows.values())
    return all(rhs >= 0 for _, rhs in rows)


def _canon(coeffs, rhs, start):
    vals = list(coeffs[start:]) + [rhs]
    nz = [abs(x) for x in vals if x != 0]
    if not nz:
        return ("z", rhs >= 0)
    scale = min(nz)
    return tuple(x / scale for x in vals)


def integral_closure(ideal: MonomialIdeal) -> MonomialIdeal:
    """Integral closure of a monomial ideal in the polynomial ring.

    Every minimal generator of the closure is componentwise bounded by
    the generator maxima: past the bound in coordinate c the convex
    constraint at c is slack, so subtracting e_c stays in the closure.
    """
    if ideal.is_zero() or ideal.is_unit():
        return ideal
    n = ideal.nvars
    box = [max(g[i] for g in ideal.gens) for i in range(n)]
    kept = []
    for v in sorted(_box_points(box), key=lambda t: (sum(t), t)):
        if any(divides(w, v) for w in kept):
            continue
        if ideal.member(v) or newton_member(ideal.gens, v):
            kept.append(v)
    return MonomialIdeal(n, kept, minimal=True)


def is_integrally_closed(ideal: MonomialIdeal) -> bool:
    return integral_closure(ideal) == ideal


def min_term_degree_check(relation_term_degrees, d: int) -> bool:
    """Whether every listed relation has all of its terms in degree >= d."""
    return all(all(t >= d for t in rel) for rel in relation_term_degrees)
