"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports burchkit.  Every answer comes from a closed formula
(Poincare series of Golod rings and complete intersections) or from
enumeration over a finite box or window built from the raw generators.
"""

from itertools import combinations_with_replacement, product
from math import comb


# ------------------------------------------------------------- primes

def is_prime(n):
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in(lo, hi):
    return [n for n in range(lo, hi) if is_prime(n)]


# ---------------------------------------------------- Poincare series

def series_quotient(num, den, depth):
    """Coefficients of num(t)/den(t) through t^depth; den[0] must be 1."""
    out = []
    for d in range(depth + 1):
        c = num[d] if d < len(num) else 0
        for i in range(1, min(d, len(den) - 1) + 1):
            c -= den[i] * out[d - i]
        out.append(c)
    return tuple(out)


def power_ideal_betti(nvars, k):
    """beta_i^S(S/m^k), i >= 1, over S = k[x_1..x_n] (Eagon-Northcott)."""
    return tuple(
        comb(nvars + k - 1, k + i - 1) * comb(k + i - 2, i - 1)
        for i in range(1, nvars + 1)
    )


def golod_betti(nvars, ambient_betti, depth):
    """Betti numbers of k over a Golod ring S/I (Golod 1962).

    P(t) = (1+t)^n / (1 - sum_i beta_i^S(S/I) t^(i+1)).
    """
    num = [comb(nvars, d) for d in range(nvars + 1)]
    den = [1, 0] + [-b for b in ambient_betti]
    return series_quotient(num, den, depth)


def ci_betti(embdim, codim, depth):
    """Betti numbers of k over a complete intersection (Tate 1957).

    P(t) = (1+t)^e / (1-t^2)^c.
    """
    num = [comb(embdim, d) for d in range(embdim + 1)]
    den = [1]
    for _ in range(codim):
        den = [a - (den[i - 2] if i >= 2 else 0) for i, a in enumerate(den + [0, 0])]
    return series_quotient(num, den, depth)


def monomial_ci_tor(exponents, t):
    """dim Tor_t(k, k)_d over k[x_1..x_n]/(x_i^{a_i}), as {d: dim}.

    Each factor k[x]/(x^a) resolves k with one generator in every
    homological degree: degree j*a in even degree 2j, j*a + 1 in odd
    degree 2j + 1.  Over the tensor product the bigraded series
    multiply.
    """
    table = {(0, 0): 1}
    for a in exponents:
        nxt = {}
        for (h, d), c in table.items():
            for step in range(t - h + 1):
                shift = (step // 2) * a + step % 2
                key = (h + step, d + shift)
                nxt[key] = nxt.get(key, 0) + c
        table = nxt
    return {d: c for (h, d), c in sorted(table.items()) if h == t}


# ----------------------------------------------- Hilbert functions

def divides(u, v):
    return all(a <= b for a, b in zip(u, v))


def monomials_of_degree(nvars, d):
    if nvars == 1:
        return [(d,)]
    return [(a,) + rest for a in range(d + 1) for rest in monomials_of_degree(nvars - 1, d - a)]


def monomial_hilbert(nvars, defining, top):
    """dim_k (S/A)_d for d = 0..top, counting surviving monomials."""
    return [
        sum(1 for u in monomials_of_degree(nvars, d) if not any(divides(g, u) for g in defining))
        for d in range(top + 1)
    ]


def semigroup_table(generators, top):
    """ok[v] says whether v is a sum of the generators, for v = 0..top."""
    ok = [False] * (top + 1)
    ok[0] = True
    for v in range(1, top + 1):
        ok[v] = any(v >= g and ok[v - g] for g in generators)
    return ok


def euler_defects(hilbert, shifts_by_stage):
    """Degrees d at which sum_i (-1)^i B_i(z) H_R(z) differs from 1.

    shifts_by_stage[i] lists the generator degrees of F_i in a minimal
    free resolution of k.  The identity holds through the lowest shift
    of the last computed stage; hilbert must reach that far.
    """
    top = min(shifts_by_stage[-1])
    bad = []
    for d in range(top + 1):
        total = 0
        for i, shifts in enumerate(shifts_by_stage):
            sign = -1 if i % 2 else 1
            total += sign * sum(hilbert[d - s] for s in shifts if s <= d)
        if total != (1 if d == 0 else 0):
            bad.append(d)
    return bad


# ------------------------------------ colon ideals by enumeration

class MonomialBox:
    """k[x_1..x_n]/A with A holding x_i^{a_i}, enumerated over the box.

    Ideals are generator lists; a monomial leaving the box lies in A
    and so in every ideal.
    """

    def __init__(self, nvars, defining):
        self.nvars = nvars
        self.defining = [tuple(g) for g in defining]
        self.caps = []
        for i in range(nvars):
            pure = [g[i] for g in self.defining if all(g[j] == 0 for j in range(nvars) if j != i) and g[i] > 0]
            if not pure:
                raise ValueError("ring is not Artinian")
            self.caps.append(min(pure))
        self.points = list(product(*[range(c) for c in self.caps]))
        self.maximal = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]

    def member(self, gens, u):
        if any(a >= c for a, c in zip(u, self.caps)):
            return True
        return any(divides(g, u) for g in list(gens) + self.defining)

    def times(self, xgens, ygens):
        return [tuple(a + b for a, b in zip(f, g)) for f in xgens for g in ygens]

    def mpow(self, s):
        return monomials_of_degree(self.nvars, s) if s else [(0,) * self.nvars]

    def colon(self, xgens, ygens):
        """The box points of (X : Y)."""
        return frozenset(
            u for u in self.points
            if all(self.member(xgens, tuple(a + b for a, b in zip(u, y))) for y in ygens)
        )

    def ideal(self, gens):
        return frozenset(u for u in self.points if self.member(gens, u))

    def loewy(self, gens):
        s = 0
        while not all(self.member(gens, u) for u in self.mpow(s)):
            s += 1
        return s


class SemigroupWindow:
    """k[[S]] for a numerical semigroup, ideals as valuation sets on a window.

    Every ideal met here contains all values from its largest generator
    plus the conductor on, and so does every colon of such ideals; sets
    compared on [0, top] therefore agree everywhere once they agree
    there.
    """

    def __init__(self, generators, largest_value):
        self.generators = tuple(sorted(generators))
        span = self.generators[0] * self.generators[-1]
        table = semigroup_table(self.generators, span)
        gaps = [v for v in range(span + 1) if not table[v]]
        self.conductor = gaps[-1] + 1 if gaps else 0
        self._below = table[: self.conductor]
        self.top = largest_value + 2 * self.generators[-1] + self.conductor
        self.maximal = [
            g for g in self.generators
            if not any(0 < h != g and self.in_s(g - h) for h in self.generators)
        ]

    def in_s(self, v):
        return v >= self.conductor or (v >= 0 and self._below[v])

    def _table(self, gens, hi):
        """ok[v] for v = 0..hi: is v in the ideal generated by gens."""
        ok = bytearray(hi + 1)
        for g in gens:
            for v in range(max(g, 0), hi + 1):
                if not ok[v] and self.in_s(v - g):
                    ok[v] = 1
        return ok

    def member(self, gens, v):
        return any(self.in_s(v - g) for g in gens)

    def minimal(self, gens):
        kept = []
        for v in sorted(set(gens)):
            if not any(self.in_s(v - g) for g in kept):
                kept.append(v)
        return kept

    def times(self, xgens, ygens):
        return [a + b for a in xgens for b in ygens]

    def integral_dual(self, gens):
        """Hom(I, R) = {z : z + gens in S}, moved by the least c >= 0 into S.

        Members start at -min(gens) and include everything from the
        conductor on, so one generator stride past it bounds the scan.
        """
        lo = -min(gens)
        members = [
            z for z in range(lo, self.conductor + self.generators[-1] + 1)
            if all(self.in_s(z + v) for v in gens)
        ]
        dual = self.minimal(members)
        c = 0
        while not all(self.in_s(z + c) for z in dual):
            c += 1
        return [z + c for z in dual]

    def mpow(self, s):
        if s == 0:
            return [0]
        return sorted({sum(c) for c in combinations_with_replacement(self.maximal, s)})

    def colon(self, xgens, ygens):
        ok = self._table(xgens, self.top + max(ygens))
        return frozenset(
            z for z in range(self.top + 1)
            if self.in_s(z) and all(ok[z + y] for y in ygens)
        )

    def ideal(self, gens):
        ok = self._table(gens, self.top)
        return frozenset(z for z in range(self.top + 1) if ok[z])

    def loewy(self, gens):
        s = 0
        while not all(self.member(gens, v) for v in self.mpow(s)):
            s += 1
        return s


def classify_expect(ring, igens, wrt=None, mpow_range=None):
    """The verdicts `burchkit classify` should print, by enumeration.

    ring is a MonomialBox or SemigroupWindow; the keys mirror the JSON
    report: is_burch, is_weakly_mfull, loewy_R_mod_I, wmf_wrt_mpow and,
    with wrt=(name, gens), wmf_wrt_named.
    """
    m = ring.maximal
    mi = ring.times(igens, m)
    i_set = ring.ideal(igens)
    col_i_m = ring.colon(igens, m)
    col_mi_m = ring.colon(mi, m)
    ll = ring.loewy(igens)
    lo, hi = mpow_range if mpow_range is not None else (0, ll)
    want = {
        "is_burch": col_i_m != col_mi_m,
        "is_weakly_mfull": i_set == col_mi_m,
        "loewy_R_mod_I": ll,
        "wmf_wrt_mpow": {
            str(s): ring.colon(igens, ring.mpow(s)) == ring.colon(mi, ring.mpow(s + 1))
            for s in range(lo, hi + 1)
        },
    }
    if wrt is not None:
        name, jgens = wrt
        want["wmf_wrt_named"] = {
            name: ring.colon(igens, jgens) == ring.colon(mi, ring.times(jgens, m))
        }
    return want
