"""Brute-force reference implementations used to cross-check the engine.

Everything here works by explicit enumeration over a finite box or
window computed from the raw inputs, never by calling back into the
library's own ideal arithmetic.
"""

import itertools
from fractions import Fraction
from math import comb


# ---------------------------------------------------------------- monomial

def box_monomials(bounds):
    """All exponent tuples componentwise below the bounds, inclusive."""
    return [tuple(t) for t in itertools.product(*[range(b + 1) for b in bounds])]


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def brute_member(gens, mono):
    return any(divides(g, mono) for g in gens)


def brute_colon_member(igens, jgens, u):
    """u in (I : J), testing every generator product by divisibility."""
    if not jgens:
        return True
    return all(
        brute_member(igens, tuple(a + b for a, b in zip(u, j))) for j in jgens
    )


def brute_product_gens(igens, jgens):
    return [tuple(a + b for a, b in zip(gi, gj)) for gi in igens for gj in jgens]


def degree_monomials(nvars, total):
    """All exponent tuples of exact total degree."""
    if nvars == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        out.extend((first,) + rest for rest in degree_monomials(nvars - 1, total - first))
    return out


def brute_loewy_monomial(igens, nvars, cap):
    """min s with every degree-s monomial in I, or None below the cap."""
    for s in range(cap + 1):
        if all(brute_member(igens, u) for u in degree_monomials(nvars, s)):
            return s
    return None


def _minimal(gens):
    out = []
    for u in sorted(set(gens), key=lambda t: (sum(t), t)):
        if not any(divides(w, u) for w in out):
            out.append(u)
    return tuple(out)


def reference_colon(igens, jgens):
    """Minimal generators of (I : J) for nonzero J: the intersection over
    g in J of the ideals generated by the (f - g)^+, f in I, with pairwise
    maxima as intersection."""
    out = None
    for g in jgens:
        part = _minimal([tuple(max(a - b, 0) for a, b in zip(f, g)) for f in igens])
        out = part if out is None else _minimal(
            [tuple(map(max, u, w)) for u in out for w in part]
        )
    return out


def fm_newton_member(gens, v):
    """Whether v lies in conv(gens) + R^n_{>=0}, decided exactly.

    Feasibility of ``sum(c_i g_i) <= v, c_i >= 0, sum(c_i) = 1`` over the
    rationals via Fourier-Motzkin elimination, one elimination per point.
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
    for k in range(m - 1):
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
            new_rows.setdefault(_fm_canon(coeffs, rhs, k + 1), (coeffs, rhs))
        for pc, pr in pos:
            for nc, nr in neg:
                # Scale so variable k cancels: pc/a_p + nc/(-a_n).
                ap, an = pc[k], -nc[k]
                coeffs = [x * an + y * ap for x, y in zip(pc, nc)]
                rhs = pr * an + nr * ap
                new_rows.setdefault(_fm_canon(coeffs, rhs, k + 1), (coeffs, rhs))
        rows = list(new_rows.values())
    return all(rhs >= 0 for _, rhs in rows)


def _fm_canon(coeffs, rhs, start):
    vals = list(coeffs[start:]) + [rhs]
    nz = [abs(x) for x in vals if x != 0]
    if not nz:
        return ("z", rhs >= 0)
    scale = min(nz)
    return tuple(x / scale for x in vals)


def reference_closure(gens, nvars):
    """Minimal generators of the integral closure: the box points below
    the generator maxima in deg-lex order, each tested by
    `fm_newton_member` unless a kept point divides it."""
    if not gens:
        return ()
    gens = list(gens)
    top = [max(g[i] for g in gens) for i in range(nvars)]
    kept = []
    for v in sorted(box_monomials(top), key=lambda t: (sum(t), t)):
        if not any(divides(w, v) for w in kept) and (
            brute_member(gens, v) or fm_newton_member(gens, v)
        ):
            kept.append(v)
    return tuple(kept)


def brute_socle(defining, nvars, bound):
    """Monomials in the box [0, bound]^n outside the defining ideal with
    every variable multiple inside it."""
    out = []
    for u in box_monomials((bound,) * nvars):
        ups = [tuple(e + (k == i) for k, e in enumerate(u)) for i in range(nvars)]
        if not brute_member(defining, u) and all(brute_member(defining, w) for w in ups):
            out.append(u)
    return sorted(out, key=lambda t: (sum(t), t))


# --------------------------------------------------------------- semigroup

def sg_table(generators, window):
    """Dense membership table for the semigroup on [0, window]."""
    ok = [False] * (window + 1)
    ok[0] = True
    for v in range(1, window + 1):
        ok[v] = any(v >= a and ok[v - a] for a in generators)
    return ok


def ideal_table(generators, vals, window):
    """Dense table of the ideal generated by vals inside the ring."""
    s_ok = sg_table(generators, window)
    ok = [False] * (window + 1)
    for g in vals:
        for v in range(g, window + 1):
            if s_ok[v - g]:
                ok[v] = True
    return ok


def brute_colon_values(generators, ivals, jvals, window):
    """Values of (I : J) on [0, window], from dense tables."""
    pad = window + max(jvals) + 1 if jvals else window
    itab = ideal_table(generators, ivals, pad)
    return [
        z
        for z in range(window + 1)
        if jvals and all(itab[z + j] for j in jvals)
    ]


class WindowSets:
    """S-stable sets of integers, enumerated on the window lo..hi.

    A set is the frozenset of its members in the window.  Sets built
    from generators (possibly negative) test v - g against a dense
    semigroup table; nothing here uses Apery thresholds.  The window
    must hold each compared set's least element and reach past its
    conductor, so that membership on the window and the minimal
    generators found in it describe the whole set.
    """

    def __init__(self, generators, lo, hi):
        self.generators = tuple(generators)
        self.lo, self.hi = lo, hi
        # generous: the Frobenius number is below min(gens) * max(gens)
        self.top = min(generators) * max(generators) + 2 * (hi - lo)
        self.table = sg_table(generators, self.top)

    def window(self):
        return range(self.lo, self.hi + 1)

    def in_s(self, v):
        return v >= 0 and (v > self.top or self.table[v])

    def in_generated(self, gens, v):
        return any(self.in_s(v - g) for g in gens)

    def generated(self, gens):
        return frozenset(v for v in self.window() if self.in_generated(gens, v))

    def semigroup(self):
        return self.generated((0,))

    def sum(self, egens, fgens):
        return self.generated([a + b for a in egens for b in fgens])

    def union(self, egens, fgens):
        return self.generated(list(egens) + list(fgens))

    def colon(self, egens, fgens):
        """{z : z + F inside E}; E is S-stable, so F's generators suffice."""
        return frozenset(
            z for z in self.window() if all(self.in_generated(egens, z + h) for h in fgens)
        )

    def shift(self, egens, c):
        return self.generated([g + c for g in egens])

    def min_gens(self, members):
        """Members v with v - a outside the set for every generator a of S."""
        return tuple(
            v for v in sorted(members) if not any(v - a in members for a in self.generators)
        )


def brute_loewy_semigroup(generators, ivals, cap):
    """min s with m^s inside I, or None below the cap.

    m^s is generated by the sums of s semigroup generators, and ideal
    membership is upward closed, so testing the generator sums suffices.
    """
    pad = cap * max(generators) + max(ivals, default=0) + max(generators) + 1
    itab = ideal_table(generators, ivals, pad)
    power = [0]
    for s in range(cap + 1):
        if all(itab[v] for v in power):
            return s
        power = sorted({v + g for v in power for g in generators})
    return None


# ------------------------------------------------------- Poincare series

def golod_poincare_coefficients(nvars, ambient_betti, depth):
    """Betti numbers of k over a Golod ring R = S/I, S = k[x_1..x_n].

    ambient_betti lists beta_1^S(R), beta_2^S(R), ...; the Poincare series
    is (1+t)^n / (1 - sum_i beta_i^S(R) t^(i+1)) (Golod 1962), expanded
    here through t^depth by the recurrence its denominator gives.
    """
    out = []
    for d in range(depth + 1):
        c = comb(nvars, d)
        for i, b in enumerate(ambient_betti, start=1):
            if d - i - 1 >= 0:
                c += b * out[d - i - 1]
        out.append(c)
    return tuple(out)


def ci_poincare_coefficients(e, c, n):
    """Betti numbers of k over a complete intersection, through t^n.

    e is the embedding dimension and c the codimension; the Poincare
    series is (1+t)^e / (1-t^2)^c (Tate 1957), whose t^d coefficient is
    sum_k C(e, d-2k) C(c+k-1, k).
    """
    return tuple(
        sum(comb(e, d - 2 * k) * comb(c + k - 1, k) for k in range(d // 2 + 1))
        for d in range(n + 1)
    )


# ------------------------------------------------------ dense GF(p) kernel
#
# The dense-list elimination the library used before its kernel went
# sparse: matrices are lists of equal-length lists of ints in [0, p).
# tests/test_linalg.py compares the sparse kernel against it.

def dense_rref(rows, ncols, p):
    """Reduced row echelon form.

    Returns (reduced nonzero rows, pivot column indices).  Pivoting is
    deterministic: first nonzero entry of the topmost unprocessed row.
    """
    mat = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        sel = -1
        for r in range(rank, len(mat)):
            if mat[r][col] % p:
                sel = r
                break
        if sel < 0:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        row = mat[rank]
        inv = pow(row[col] % p, p - 2, p)
        for c in range(col, ncols):
            row[c] = row[c] * inv % p
        for r in range(len(mat)):
            if r != rank and mat[r][col] % p:
                f = mat[r][col] % p
                other = mat[r]
                for c in range(col, ncols):
                    other[c] = (other[c] - f * row[c]) % p
        pivots.append(col)
        rank += 1
        if rank == len(mat):
            break
    return mat[:rank], pivots


def dense_nullspace(rows, ncols, p):
    """Basis of the right kernel {v : A v = 0}, one vector per free column."""
    red, pivots = dense_rref(rows, ncols, p)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-red[r][free]) % p
        basis.append(v)
    return basis


def dense_reduce_row(row, red, pivots, p):
    """Residual of row after eliminating against RREF rows; None if zero."""
    out = [x % p for x in row]
    for r, pc in enumerate(pivots):
        f = out[pc]
        if f:
            rr = red[r]
            for c in range(pc, len(out)):
                if rr[c]:
                    out[c] = (out[c] - f * rr[c]) % p
    return out if any(out) else None


# ------------------------------------------------------ row-scanning sparse kernel
#
# The sparse elimination as it was before linalg kept an occurrence
# index: a new pivot row is cleared out of every row of the echelon
# list, each one scanned for the pivot column.  tests/test_linalg.py
# compares rref, nullspace and EchelonSpan against it.

def scan_residual(row, red, pivots, p):
    """Residual of a sparse row modulo sparse RREF rows, as a new dict."""
    out = {c: x % p for c, x in row.items() if x % p}
    for c, f in row.items():
        at = pivots.get(c)
        if at is None or not f % p:
            continue
        f %= p
        for k, y in red[at].items():
            x = (out.get(k, 0) - f * y) % p
            if x:
                out[k] = x
            else:
                del out[k]
    return out


def scan_insert(red, pivots, res, p):
    """Append a nonzero residual as a pivot row, scanning every row."""
    pc = min(res)
    inv = pow(res[pc], p - 2, p)
    res = {c: x * inv % p for c, x in res.items()}
    for row in red:
        f = row.get(pc)
        if f:
            for k, y in res.items():
                x = (row.get(k, 0) - f * y) % p
                if x:
                    row[k] = x
                else:
                    del row[k]
    pivots[pc] = len(red)
    red.append(res)


def scan_echelon(rows, p):
    """(red, pivots) after adding rows in order to an empty span."""
    red, pivots = [], {}
    for row in rows:
        out = scan_residual(row, red, pivots, p)
        if out:
            scan_insert(red, pivots, out, p)
    return red, pivots


# ------------------------------------------------------ dense map assembly
#
# Degree-piece assembly as the library did it while a graded map stored
# every column as a list of target.rank entry dicts, most of them empty.
# It reads the map through its dense `cols` view and uses the algebra's
# own basis and multiplication.  Over R/I it is the literal quotient, as
# the library built it while R/I was a second algebra: the bases keep
# the elements outside I, and a product is checked against I after
# multiplication.  tests/test_homalg.py compares HomogeneousMap.matrix
# against it over R, and the ranks of each pass over R/I
# (homalg._rank_pass) against the ranks of its pieces over R/I.

def dense_matrix(pmap, d, ideal=None):
    """(rows, src, tgt) of the degree-d piece over R, or over R/I when
    an ideal I is given, walking every entry."""
    algebra = pmap.algebra
    p = algebra.p

    def outside(b):
        return ideal is None or not ideal.member(b)

    def basis(module):
        return [
            (j, b)
            for j, s in enumerate(module.shifts)
            for b in algebra.basis(d - s)
            if outside(b)
        ]

    src = basis(pmap.source)
    tgt = basis(pmap.target)
    index = {key: r for r, key in enumerate(tgt)}
    rows = [{} for _ in tgt]
    cols = pmap.cols
    for c, (j, b) in enumerate(src):
        col = cols[j]
        for i, entry in enumerate(col):
            for label, coeff in entry.items():
                prod = algebra.ring.mult(label, b)
                if prod is None or not outside(prod):
                    continue
                row = rows[index[(i, prod)]]
                x = (row.get(c, 0) + coeff) % p
                if x:
                    row[c] = x
                else:
                    row.pop(c, None)
    return rows, src, tgt


# ------------------------------------------------------ reference kernel walk
#
# kernel_minimal_gens as it was before a semigroup walk seeded each
# degree from t^m times the kernel m degrees down: every product of a
# lower generator with a basis element is formed in every degree, and
# every nullspace vector is reduced.  With early_stop=False it walks
# every degree of kernel_window, as before the walk over a semigroup
# ring learned to stop at `homalg.kernel_stop`.  It uses only public
# pieces of the library (the map's matrix, nullspace, EchelonSpan), and
# tests/test_homalg.py compares the engine against it.

def reference_kernel_gens(f, early_stop=True):
    """(map, certified) of the minimal kernel generators, forming every
    product of a lower generator in every degree walked."""
    from burchkit import linalg
    from burchkit.homalg import (
        GradedFreeModule,
        HomogeneousMap,
        kernel_stop,
        kernel_window,
        scale_module_elt,
    )

    algebra = f.algebra
    window = kernel_window(algebra, f.source)
    gens = []
    if f.source.rank:
        lo = min(f.source.shifts)
        stop = kernel_stop(f) if early_stop else None
        if stop is not None:
            m, rank, _ = stop
            # residue classes mod m still below dim N_d = rank N
            open_classes = set(range(m)) if rank else set()
        for d in range(lo, window.bound + 1):
            if stop is not None and not open_classes:
                break
            src = f.source.basis(algebra, d)
            if not src:
                continue
            rows, _, _ = f.matrix(d)
            null = linalg.nullspace([r for r in rows if r], len(src), algebra.p)
            if stop is not None and len(null) == rank:
                open_classes.discard(d % m)
            if not null:
                continue
            index = {key: i for i, key in enumerate(src)}
            span = linalg.EchelonSpan(algebra.p)
            for gd, g in gens:
                for r in algebra.basis(d - gd):
                    prod = scale_module_elt(algebra, g, r)
                    if prod:
                        span.add({index[key]: x for key, x in prod.items()})
            for vec in null:
                resid = span.reduce(vec)
                if resid is not None:
                    # entries in basis order, not in the order elimination left
                    gens.append((d, {src[c]: resid[c] for c in sorted(resid)}))
                    span.add(resid)
    shifts = tuple(d for d, _ in gens)
    out = HomogeneousMap(
        algebra, GradedFreeModule(shifts), f.source, [g for _, g in gens]
    )
    return out, window.certified


# ------------------------------------------------------ instance generators

def rand_gens(rng, nvars, count, hi):
    """count exponent vectors with entries in [0, hi]."""
    return [tuple(rng.randint(0, hi) for _ in range(nvars)) for _ in range(count)]


def rand_monomial_instance(rng):
    """Random (nvars, defining, igens, jgens) with small exponents."""
    nvars = rng.randint(1, 3)
    defining = []
    if rng.random() < 0.5:
        defining = [
            tuple(rng.randint(2, 4) if k == v else 0 for k in range(nvars))
            for v in range(nvars)
        ]
        for _ in range(rng.randint(0, 2)):
            mono = tuple(rng.randint(0, 3) for _ in range(nvars))
            if any(mono):
                defining.append(mono)
    igens = _rand_monos(rng, nvars)
    jgens = _rand_monos(rng, nvars)
    return nvars, defining, igens, jgens


def _rand_monos(rng, nvars):
    out = []
    for _ in range(rng.randint(1, 4)):
        mono = tuple(rng.randint(0, 4) for _ in range(nvars))
        if any(mono):
            out.append(mono)
    return out or [tuple(2 if k == 0 else 0 for k in range(nvars))]


_SG_POOL = (
    (2, 3),
    (3, 4, 5),
    (3, 5, 7),
    (4, 5, 6),
    (4, 5, 11),
    (4, 6, 9),
    (5, 6, 7, 8),
    (6, 7, 9, 11),
)


def rand_semigroup_instance(rng):
    """Random (generators, ivals, jvals) with nonzero I and J."""
    gens = rng.choice(_SG_POOL)
    window = 2 * (max(gens) + 8)
    table = sg_table(gens, window)
    pool = [v for v in range(1, window + 1) if table[v]]
    ivals = sorted(rng.sample(pool, rng.randint(1, 3)))
    jvals = sorted(rng.sample(pool, rng.randint(1, 3)))
    return gens, ivals, jvals


def draw_map(alg, rng, top=8):
    """A homogeneous map with entries of positive degree at most top; with
    some columns t^e times earlier ones up to a scalar, so that over k[S]
    the coefficient matrix often loses rank."""
    from burchkit.homalg import GradedFreeModule, HomogeneousMap

    tshifts = tuple(sorted(rng.randint(0, 2) for _ in range(rng.randint(1, 3))))
    degrees = [e for e in range(1, top + 1) if alg.basis(e)]
    sshifts, elts = [], []
    for _ in range(rng.randint(1, 3)):
        if elts and rng.random() < 0.5:
            k = rng.randrange(len(elts))
            e = rng.choice(degrees[:3])
            r = rng.choice(alg.basis(e))
            c = rng.randint(1, alg.p - 1)
            elt = {
                (i, prod): c * x
                for (i, label), x in elts[k].items()
                if (prod := alg.ring.mult(label, r)) is not None
            }
            sshifts.append(sshifts[k] + e)
        else:
            first = rng.randrange(len(tshifts))
            s = tshifts[first] + rng.choice(degrees)
            elt = {}
            for i, t in enumerate(tshifts):
                labels = alg.basis(s - t) if s > t else ()
                if labels and (i == first or rng.random() < 0.5):
                    elt[(i, rng.choice(labels))] = rng.randint(1, alg.p - 1)
            sshifts.append(s)
        elts.append(elt)
    return HomogeneousMap(alg, GradedFreeModule(sshifts), GradedFreeModule(tshifts), elts)


# ----------------------------------------------------- handle parity checks

INFINITY = float("inf")


def check_monomial_instance(rng):
    """Engine vs enumeration for one random quotient-ring instance.

    Returns a list of (operation, witness) mismatches; empty means the
    colon, membership, product, and Loewy answers all agree.
    """
    from burchkit.rings import QuotientRing

    nvars, defining, igens, jgens = rand_monomial_instance(rng)
    ring = QuotientRing(nvars, defining)
    i = ring.ideal(igens)
    j = ring.ideal(jgens)
    eff_i = list(igens) + list(defining)
    quot = i.colon(j)
    prod = i * j
    pgens = brute_product_gens(igens, jgens) + list(defining)
    bad = []
    for u in box_monomials((6,) * nvars):
        if i.member(u) != brute_member(eff_i, u):
            bad.append(("member", u))
        if quot.member(u) != brute_colon_member(eff_i, jgens, u):
            bad.append(("colon", u))
        if prod.member(u) != brute_member(pgens, u):
            bad.append(("product", u))
    want = brute_loewy_monomial(eff_i, nvars, 14)
    got = i.loewy_length()
    if (want is None and got != INFINITY) or (want is not None and got != want):
        bad.append(("loewy", (want, got)))
    return bad


def check_semigroup_instance(rng):
    """Engine vs enumeration for one random semigroup-ring instance."""
    from burchkit.rings import SemigroupRing

    gens, ivals, jvals = rand_semigroup_instance(rng)
    ring = SemigroupRing(gens)
    i = ring.ideal(ivals)
    j = ring.ideal(jvals)
    window = max(ivals + jvals) + 2 * ring.S.conductor + max(gens) + 2
    stab = sg_table(gens, window)
    itab = ideal_table(gens, ivals, window + max(jvals) + 1)
    ptab = ideal_table(gens, [a + b for a in ivals for b in jvals], window)
    quot = i.colon(j)
    prod = i * j
    bad = []
    for v in range(window + 1):
        if i.member(v) != itab[v]:
            bad.append(("member", v))
        want_colon = stab[v] and all(itab[v + jv] for jv in jvals)
        if quot.member(v) != want_colon:
            bad.append(("colon", v))
        if prod.member(v) != ptab[v]:
            bad.append(("product", v))
    want = brute_loewy_semigroup(gens, ivals, 40)
    got = i.loewy_length()
    if (want is None and got != INFINITY) or (want is not None and got != want):
        bad.append(("loewy", (want, got)))
    return bad
