"""Degreewise homological algebra over graded quotient algebras.

Everything is computed one degree at a time with exact GF(p) linear
algebra on sparse rows (`linalg`): minimal free resolutions, syzygies,
Tor dimensions, freeness.
A graded map keeps each column as a sparse element {(i, label): coeff}
of its target, the same form syzygies and module elements take, so
assembling a degree piece touches only the nonzero entries.
The ring supplies the graded pieces and everything that differs between
monomial quotients (graded by total degree) and semigroup rings (graded
by valuation): basis, multiplication, degrees, the kernel degree window
with its certified flag, and the modulus of the early kernel stop.  An
ideal I supplies the top degree of R/I (`quotient_top_degree`), which
bounds each Tor window, and the basis of R/I (`outside`).  The ring
classes in `rings` document how each window is certified.
There is one algebra, R.  Tor over R/I, for a monomial ideal I, reads
each differential over R/I in one pass (`_rank_pass`): the pass walks
the source basis (j, b), b in `ideal.outside(e)`, once, degree by
degree, and turns each column into an elimination row keyed by the
target elements (i, a*b) it meets, dropping a product that is zero in R
or lies in I by one lookup in the numbered labels of R/I; it ranks the
rows of each degree together and counts the source piece as it goes.
A matrix and its transpose have one rank, so no degree piece is
assembled, no target basis is listed and R/I needs no second algebra.
The same pass, against the zero ideal, ranks over R itself for
`audit_resolution`, `euler_holds` and `annihilates`: it is the one code
that ranks a degree piece.
A kernel walk spans the decomposable syzygies of each degree from
products of lower generators.  A monomial quotient is generated in
degree 1, so that span is R_1 N_(d-1), the variables times the echelon
rows of the kernel one degree down, which the walk holds already.  Over
k[S] every entry of a map is c_ij t^(s_j - t_i), so its degree-d piece
is the scalar coefficient matrix C on the columns J_d = {j : d - s_j
in S}, and the walk keys every vector by its source column j: column j
of degree d is the basis element (j, t^(d - s_j)).  Multiplying by t^e
then changes no key, so t^m times the kernel m degrees down, with m the
multiplicity, is that kernel's own echelon span: each residue class mod
m carries its span from degree d - m into degree d, and only the
products t^e g with e in the Apery set Ap(S, m) are added to it; see
`kernel_minimal_gens`.  The
walk row-reduces C once per map and reads each degree's kernel off
that RREF R: a null vector is fixed by its entries on C's free columns
in J_d, which range over the kernel of the small matrix E_d made of
R's rows with a pivot outside J_d, and the rows with a pivot in J_d
give its other entries.  The RREF is unique and keying by j keeps the
column order, so kernels, generators and differentials are the ones a
degree-by-degree elimination gives.
Three rules skip elimination whose result is known.  A column free in
degree d - m stays free in degree d, and its null vector lies in the
carried span plus the vectors of columns that became free, so the walk reduces
only the latter.  A product t^e g whose columns j all lie in
J_(d-m) = {j : d - m - s_j in S} is t^m h for some h in F_(d-m), and
f(h) = 0 as t^m acts injectively, so it lies in the carried span and
is not formed.  Tor against the residue field k = R/m is F_t (x) k,
since every entry of a minimal differential lies in m: `tor_dims` reads
it off the shifts of F_t and ranks nothing.
"""

from contextlib import contextmanager
from dataclasses import dataclass, replace

from . import linalg

DEFAULT_PRIME = 101
HEURISTIC_WINDOW = 8
KERNEL_MEMO_CAP = 4096

# {map value: (kernel map, certified)} while a kernel_memo scope is open
_kernel_memo = None


class GradedAlgebra:
    """R with coefficients mod p.

    basis(d), times(a) and deg(label) are the ring's own methods, bound
    here once, so each lookup is a single call.  Products are read from
    the ring's tables, times(a)[b], which outlive the algebra.
    """

    __slots__ = ("ring", "p", "basis", "times", "deg")

    def __init__(self, ring, p=DEFAULT_PRIME):
        linalg.check_prime(p)
        self.ring = ring
        self.p = p
        self.basis = ring.basis
        self.times = ring.times
        self.deg = ring.deg


@dataclass(frozen=True)
class GradedFreeModule:
    shifts: tuple

    def __post_init__(self):
        object.__setattr__(self, "shifts", tuple(self.shifts))

    @property
    def rank(self):
        return len(self.shifts)

    def basis(self, algebra, d):
        """Ordered basis of the degree-d piece over R."""
        return [(j, b) for j, s in enumerate(self.shifts) for b in algebra.basis(d - s)]

    def dim(self, algebra, d):
        """The length of basis(algebra, d), counted piece by piece."""
        return sum(len(algebra.basis(d - s)) for s in self.shifts)


class HomogeneousMap:
    """Graded map between free modules, entries homogeneous in R.

    elts[j] is the image of the j-th source basis element, a sparse
    element {(i, label): coeff} of the target listing its nonzero
    entries; each label has degree source.shifts[j] - target.shifts[i].
    Coefficients are reduced mod p when the map is built, and entries
    that vanish mod p are dropped.  A label that names no nonzero
    monomial of R (`is_label` of the ring) is rejected.
    `cols` is a dense view built on demand, for inspection only.
    """

    __slots__ = ("algebra", "source", "target", "elts")

    def __init__(self, algebra, source, target, elts):
        self.algebra = algebra
        self.source = source
        self.target = target
        p = algebra.p
        self.elts = tuple({k: r for k, c in e.items() if (r := c % p)} for e in elts)
        if len(self.elts) != source.rank:
            raise ValueError("column count does not match source rank")
        tshifts = target.shifts
        rank = target.rank
        is_label = algebra.ring.is_label
        for j, elt in enumerate(self.elts):
            s = source.shifts[j]
            for i, label in elt:
                if not 0 <= i < rank:
                    raise ValueError(
                        "entry row %d out of range for target rank %d"
                        % (i, rank)
                    )
                if not is_label(label):
                    raise ValueError(
                        "entry (%d, %d) = %r is not a nonzero monomial of R"
                        % (i, j, label)
                    )
                want = s - tshifts[i]
                if want < 0 or algebra.deg(label) != want:
                    raise ValueError(
                        "entry (%d, %d) is not homogeneous of degree %d"
                        % (i, j, want)
                    )

    @property
    def cols(self):
        """Dense view: cols[j][i] is the (i, j) entry as a {label: coeff}
        dict, empty for zero.  Rebuilt on every access."""
        out = []
        for elt in self.elts:
            col = tuple({} for _ in self.target.shifts)
            for (i, label), coeff in elt.items():
                col[i][label] = coeff
            out.append(col)
        return tuple(out)

    @property
    def is_minimal(self):
        """No unit entries: every nonzero entry has positive degree."""
        tshifts = self.target.shifts
        for s, elt in zip(self.source.shifts, self.elts):
            for i, _ in elt:
                if tshifts[i] == s:
                    return False
        return True

    def is_zero(self):
        return not any(self.elts)

    def matrix(self, d):
        """Sparse GF(p) matrix of the degree-d piece over R.

        Rows follow target.basis(algebra, d), columns
        source.basis(algebra, d); each row is a {column: coeff} dict of
        its nonzero entries.  A product that is zero in R has no row and
        is dropped.  Both families' monoids are cancellative, so the
        entries of one column land on distinct rows and each cell is one
        entry of the map.  Its readers are `_full_walk` and
        `fuzz._relations_minimal`; ranks are taken by `_rank_pass`.
        """
        algebra = self.algebra
        times = algebra.times
        elts = self.elts
        src = self.source.basis(algebra, d)
        tgt = self.target.basis(algebra, d)
        index = {key: r for r, key in enumerate(tgt)}
        rows = [{} for _ in tgt]
        last = None
        for c, (j, b) in enumerate(src):
            if j != last:
                # the columns of one source element are consecutive
                last = j
                entries = [(i, times(label), coeff) for (i, label), coeff in elts[j].items()]
            for i, prods, coeff in entries:
                # a product zero in R is None, which has no row either
                r = index.get((i, prods[b]))
                if r is not None:
                    rows[r][c] = coeff
        return rows, src, tgt

    def apply_sparse(self, elt):
        """Image of a sparse element {(j, label): coeff} of the source."""
        algebra = self.algebra
        p = algebra.p
        out = {}
        for (j, b), coeff in elt.items():
            for key, c in scale_module_elt(algebra, self.elts[j], b).items():
                out[key] = (out.get(key, 0) + c * coeff) % p
        return {k: v for k, v in out.items() if v}


def _trusted_map(algebra, source, target, elts):
    """A map on columns already reduced mod p, with no zero entry and
    homogeneous over source and target, unchecked."""
    out = object.__new__(HomogeneousMap)
    out.algebra = algebra
    out.source = source
    out.target = target
    out.elts = tuple(elts)
    return out


def scale_module_elt(algebra, elt, rlabel):
    """rlabel * elt for a sparse free-module element."""
    prods = algebra.times(rlabel)
    out = {}
    for (j, b), coeff in elt.items():
        prod = prods[b]
        if prod is None:
            continue
        key = (j, prod)
        out[key] = (out.get(key, 0) + coeff) % algebra.p
    return {k: v for k, v in out.items() if v}


@dataclass(frozen=True)
class DegreeWindow:
    bound: int
    certified: bool


def kernel_window(algebra, module):
    """Certified-or-flagged degree bound for kernel generators: max shift
    plus the ring's window, which adds HEURISTIC_WINDOW when uncertified."""
    if not module.shifts:
        return DegreeWindow(-1, True)
    width, certified = algebra.ring.kernel_window(HEURISTIC_WINDOW)
    return DegreeWindow(max(module.shifts) + width, certified)


def kernel_stop(f):
    """(m, rank N, R) certifying an early end to the walk over N = ker f.

    Over k[S] with multiplicity m, N sits in a free module over a domain,
    so t^m acts on it injectively: along each residue class mod m,
    dim N_d is nondecreasing and at most rank N, and a minimal generator
    needs dim N_d > dim N_{d-m}.  Once every class has met a degree with
    dim N_d = rank N, no later degree holds a generator.  Homogeneity
    makes f = diag(t^-t_i) C diag(t^s_j), where C takes each entry c*t^a
    to c, so rank N = rank F - rank C over the fraction field.  R is the
    list of RREF rows of C, ordered by pivot column, which the walk
    reads every degree piece of f from (`_CoefficientPieces`).
    None when the ring has no stop modulus (monomial quotients), and the
    walk runs the whole window.
    """
    m = f.algebra.ring.stop_modulus()
    if m is None:
        return None
    rows = [{} for _ in f.target.shifts]
    for j, elt in enumerate(f.elts):
        for (i, _), c in elt.items():
            rows[i][j] = c  # one label per entry: pieces of k[S] are <= 1-dim
    red, _ = linalg.rref([r for r in rows if r], f.source.rank, f.algebra.p)
    return m, f.source.rank - len(red), red


@contextmanager
def kernel_memo():
    """Scope in which kernel_minimal_gens reuses its results.

    Inside it, a call on a map equal in value to an earlier one (prime,
    ring, shifts and entries) returns the stored (map, certified)
    pair with no elimination.  At most KERNEL_MEMO_CAP results are kept,
    a call that raises stores nothing, and a nested scope shares the
    outer memo, which is dropped when the outermost scope exits.
    """
    global _kernel_memo
    if _kernel_memo is not None:
        yield
        return
    _kernel_memo = {}
    try:
        yield
    finally:
        _kernel_memo = None


def kernel_minimal_gens(f):
    """Minimal homogeneous generators of ker(f) up to the top of its
    `kernel_window`.

    Walks the degrees upward; in each degree d the kernel N_d is a
    nullspace and the decomposable part D_d is spanned by lower
    generators times positive-degree basis elements, so new generators
    are the echelon-residuals of the nullspace basis against D_d.  The
    residual of a vector against a subspace in reduced echelon form is
    unique, so how D_d is spanned does not change the result.
    Over a monomial quotient, generated in degree 1,
    D_d = sum_g R_(d - deg g) g = sum_i x_i N_{d-1}, since N_{d-1} is
    D_{d-1} plus the generators found in degree d - 1; the walk holds
    the echelon rows of N_{d-1} from the degree below, and x_i takes
    each to degree d through one column map (j, b) -> (j, b x_i),
    dropping the columns where b x_i lies in A.
    Over a semigroup ring, with m its multiplicity, every vector is
    keyed by its source column j, column j of degree d standing for
    (j, t^(d - s_j)).  t^e takes (j, t^b) to (j, t^(b+e)), so a product
    t^e g has the entries of g, and t^m N_{d-m}, which lies in D_d, has
    the echelon rows of N_{d-m}: each residue class mod m keeps the
    span it ended degree d - m with and goes on adding to it in degree
    d, or starts an empty one where N_{d-m} was zero.  Only the
    products t^e g with e in the Apery set
    Ap(S, m) = {e in S : e - m not in S} are added, as every other
    product is t^m times one in N_{d-m}.  Of those, a product whose
    columns j all lie in J_(d-m) is t^m h with h in F_{d-m} and
    f(h) = 0, so it lies in the span and is skipped too.  A generator is
    written as {(j, t^(d - s_j)): x} once, when the walk ends.
    No matrix is assembled
    there: f_d is the coefficient matrix C of `kernel_stop` on the
    columns J_d = {j : d - s_j in S}, and N_d comes from the RREF of C:
    one elimination of the small matrix E_d on C's free columns per new
    J_d gives dim N_d and the free columns of f_d, and each null vector
    of f_d is lifted from one of E_d only when the walk reduces it
    (`_CoefficientPieces`); the RREF is unique, so each is the null
    vector of f.matrix(d), keyed by j.  Only the null
    vectors whose free column was not free in degree d - m are reduced:
    J_(d-m) lies in J_d, so a column free in C[:, J_(d-m)] stays free in
    C[:, J_d]; a null vector is 1 at its free column f, its highest, with
    other entries only at pivots below f, so t^m times the degree-(d-m)
    vector for f is the vector for f plus vectors of lower columns that
    became free, and its residual is 0.  The walk there also
    ends early once `kernel_stop` certifies that no later degree can
    hold a generator; the reported window is unchanged.  Over either
    ring family, products stop and residuals are skipped once D_d fills
    N_d.
    Inside a `kernel_memo` scope a repeated map is answered from the
    memo: every hit gets the same map object, which callers must not
    mutate, and which may sit on an equal algebra of an earlier call.
    """
    memo = _kernel_memo
    if memo is None:
        return _kernel_minimal_gens(f)
    algebra = f.algebra
    key = (
        algebra.p,
        algebra.ring,
        f.source.shifts,
        f.target.shifts,
        tuple(frozenset(e.items()) for e in f.elts),
    )
    got = memo.get(key)
    if got is None:
        got = _kernel_minimal_gens(f)
        if len(memo) < KERNEL_MEMO_CAP:
            memo[key] = got
    return got


class _CoefficientPieces:
    """The degree pieces of a map f over k[S], read off R = RREF(C).

    Every entry of f is c_ij t^(s_j - t_i), so f_d is the coefficient
    matrix C on the columns J = J_d = {j : d - s_j in S}, column j
    standing for the basis element (j, t^(d - s_j)) of the source, with
    its zero rows dropped.  Vectors are keyed by j itself in every
    degree, so J_d keeps C's column order.  A vector x on J lies in
    ker C exactly when R x = 0.  Each row of R is 1 at its pivot pc and
    otherwise lives on C's free columns F_C, so x is fixed by its part w
    on F_C and J:
    - a row with pc outside J forces sum_c R_pc[c] w_c = 0; these rows,
      restricted to F_C and J, form the small matrix E_d, and w ranges
      over ker E_d;
    - a row with pc in J gives x_pc = -sum_c R_pc[c] w_c (`lift`).
    So dim N_d = |F_C and J| - rank E_d.  R's row for a pivot pc in J
    has its other entries above pc, so no null vector of f_d has pc as
    its highest column: the free columns of f_d are those of E_d.  The
    lift of E_d's null vector for a free column g is 1 at g and 0 at
    the other free columns, so it is f_d's own null vector for g.  Each
    new J_d costs one elimination of E_d, and no null vector of f_d is
    built until the walk asks for it.  Columns
    with one shift are decided together, one run of consecutive j at a
    time.  Past max s_j + conductor J_d holds every column, so
    consecutive degrees with the same J_d share one E_d.
    """

    __slots__ = ("f", "p", "rows", "above", "runs", "_inside", "_last")

    def __init__(self, f, red):
        self.f = f
        self.p = f.algebra.p
        self.rows = [(min(row), row) for row in red]
        pivots = {pc for pc, _ in self.rows}
        # each free column c of C, ascending -> (pc, R_pc[c]) for each row
        # with an entry there
        above = {c: [] for c in range(f.source.rank) if c not in pivots}
        for pc, row in self.rows:
            for c, x in row.items():
                if c != pc:
                    above[c].append((pc, x))
        self.above = above
        runs = []  # (s, first j, last j + 1) for each run of equal shifts
        for j, s in enumerate(f.source.shifts):
            if runs and runs[-1][0] == s:
                runs[-1][2] = j + 1
            else:
                runs.append([s, j, j + 1])
        self.runs = runs
        self._inside = frozenset()  # J_d of the last read, as a set
        self._last = (None, None)  # (J_d as bits 1 << j, null) last read

    def kernel(self, d):
        """(bits, null): J_d as the bits 1 << j, and a dict from each free
        column g of f_d, ascending, to the null vector of E_d for g, keyed
        by j; `lift` turns it into the null vector of f_d for g."""
        basis = self.f.algebra.basis
        on = [(lo, hi) for s, lo, hi in self.runs if basis(d - s)]
        bits = sum((1 << hi) - (1 << lo) for lo, hi in on)
        if bits != self._last[0]:
            inside = self._inside = {j for lo, hi in on for j in range(lo, hi)}
            cols = [j for j in self.above if j in inside]
            # the rows with a pivot outside J_d, on F_C and J_d
            rows = []
            for pc, row in self.rows:
                if pc not in inside:
                    out = {c: x for c, x in row.items() if c in inside}
                    if out:
                        rows.append(out)
            null = linalg.nullspace(rows, len(cols), self.p, cols)
            # a nullspace vector's free column is its highest column
            self._last = bits, {max(w): w for w in null}
        return self._last

    def lift(self, w):
        """The null vector of f_d whose part on F_C is w, a null vector of
        E_d, for the degree d last passed to `kernel`."""
        p = self.p
        inside = self._inside
        vec = dict(w)
        for c, y in w.items():
            for pc, x in self.above[c]:
                if pc in inside:
                    z = vec.get(pc)
                    if z is None:
                        # nonzero: p is prime and x, y are units
                        vec[pc] = -x * y % p
                    elif z := (z - x * y) % p:
                        vec[pc] = z
                    else:
                        del vec[pc]
        return vec


def _new_generators(span, vecs, dim):
    """Residuals of the vectors vecs of N_d against the span, each added
    to the span once found; none once the span has rank dim = dim N_d,
    and no further vector is drawn from vecs then."""
    out = []
    vecs = iter(vecs)
    while span.rank < dim:
        vec = next(vecs, None)
        if vec is None:
            break
        resid = span.reduce(vec)
        if resid is not None:
            out.append(resid)
            # the span edits the rows it takes over
            span.insert(dict(resid))
    return out


def _kernel_minimal_gens(f):
    algebra = f.algebra
    window = kernel_window(algebra, f.source)
    gens = {}  # degree -> the generators found there, in order
    if f.source.rank:
        stop = kernel_stop(f)
        hi = window.bound
        gens = _full_walk(f, hi) if stop is None else _semigroup_walk(f, hi, stop)
    shifts = tuple(d for d, at in gens.items() for _ in at)
    # the walk's generators are reduced, nonzero and homogeneous already
    out = _trusted_map(
        algebra, GradedFreeModule(shifts), f.source, [g for at in gens.values() for g in at]
    )
    return out, window.certified


def _full_walk(f, bound):
    """Generators by degree over a monomial quotient, walking every degree
    of the window, with D_d spanned by the variables times the echelon
    rows of N_{d-1}."""
    algebra = f.algebra
    p = algebra.p
    gens = {}
    prior = None  # (source basis, echelon rows of N_{d-1}) when N_{d-1} != 0
    for d in range(min(f.source.shifts), bound + 1):
        below, prior = prior, None
        rows, src, _ = f.matrix(d)
        if not src:
            continue
        null = linalg.nullspace([r for r in rows if r], len(src), p)
        if not null:
            continue
        dim = len(null)
        span = linalg.EchelonSpan(p)
        if below is not None:
            index = {key: i for i, key in enumerate(src)}
            for v in algebra.basis(1):
                if span.rank == dim:
                    break
                # x_v takes column (j, b) of degree d - 1 to (j, b x_v), or
                # to None when b x_v lies in A
                prods = algebra.times(v)
                col = [index.get((j, prods[b])) for j, b in below[0]]
                for row in below[1]:
                    if span.rank == dim:
                        break
                    vec = {k: x for c, x in row.items() if (k := col[c]) is not None}
                    if vec:
                        span.add(vec)
        found = _new_generators(span, null, dim)
        if found:
            # entries in basis order, not in the order elimination left
            gens[d] = [{src[c]: g[c] for c in sorted(g)} for g in found]
        prior = (src, span.rows)
    return gens


def _semigroup_walk(f, bound, stop):
    """Generators by degree over k[S]: pieces from R = RREF(C), each
    residue class mod m carrying its span of N_{d-m} into degree d, only
    the Apery products with a column outside J_(d-m), and the early
    stop.  Every vector is keyed by its source column j."""
    p = f.algebra.p
    m, rank, red = stop
    shifts = f.source.shifts
    gens = {}  # degree -> the generators found there, keyed by j
    supports = {}  # degree -> the columns j of each generator there, as bits 1 << j
    # residue classes mod m still below dim N_d = rank N
    open_classes = set(range(m)) if rank else set()
    apery = f.algebra.ring.apery()
    pieces = _CoefficientPieces(f, red)
    # residue class mod m -> (J_(d-m) as bits, echelon span of N_(d-m),
    # free columns j of f_(d-m)), when degree d - m had N_(d-m) != 0
    carried = {}
    for d in range(min(shifts), bound + 1):
        if not open_classes:
            break
        prior = carried.pop(d % m, None)
        bits, null = pieces.kernel(d)
        if not bits:
            continue
        dim = len(null)
        if dim == rank:
            open_classes.discard(d % m)
        if not dim:
            continue
        if prior is None:
            span = linalg.EchelonSpan(p)
            fresh = null.values()
            new = bits  # every column of J_d
        else:
            # keyed by j, the rows of N_(d-m) already are those of t^m N_(d-m)
            below, span, free = prior
            # only vectors whose free column became free can leave the span
            fresh = [w for j, w in null.items() if j not in free]
            # columns outside J_(d-m)
            new = bits & ~below
        # a product with every column in J_(d-m) is t^m times an element
        # of N_(d-m), so it lies in the span already; t^e g of degree d
        # has the entries of g, keyed by j
        products = (
            g
            for e in apery
            for g, cols in zip(gens.get(d - e, ()), supports.get(d - e, ()))
            if cols & new
        )
        for g in products:
            if span.rank == dim:
                break
            span.add(g)
        # each null vector is built only when the walk reduces it
        found = _new_generators(span, map(pieces.lift, fresh), dim)
        if found:
            gens[d] = found
            supports[d] = [sum(1 << j for j in g) for g in found]
        carried[d % m] = (bits, span, null)
    # entries in column order, each at its basis element (j, t^(d - s_j))
    return {d: [{(j, d - shifts[j]): g[j] for j in sorted(g)} for g in at] for d, at in gens.items()}


class GradedPresentation:
    """A module given as the cokernel of a homogeneous map."""

    __slots__ = ("map",)

    def __init__(self, pmap):
        self.map = pmap

    @property
    def algebra(self):
        return self.map.algebra

    @property
    def generators(self):
        return self.map.target

    def __repr__(self):
        return "GradedPresentation(gens=%r, rels=%r)" % (
            self.map.target.shifts,
            self.map.source.shifts,
        )


def cyclic_presentation(algebra, ideal):
    """Presentation of R/I: generator in degree 0, relations = gens(I)."""
    if ideal.ring != algebra.ring:
        raise ValueError("ambient mismatch")
    gens = ideal.min_gens()
    target = GradedFreeModule((0,))
    source = GradedFreeModule(tuple(algebra.deg(g) for g in gens))
    pmap = HomogeneousMap(algebra, source, target, [{(0, g): 1} for g in gens])
    return GradedPresentation(pmap)


def module_from_ideal(algebra, ideal):
    """Presentation of I itself: gens of I, relations = first syzygies.

    The zero ideal has no generators and gives the certified zero module.
    """
    pres = cyclic_presentation(algebra, ideal)
    syz, certified = kernel_minimal_gens(pres.map)
    return GradedPresentation(syz), certified


def free_presentation(algebra, shifts):
    """Presentation of a free module: zero relation matrix."""
    target = GradedFreeModule(tuple(shifts))
    source = GradedFreeModule(())
    return GradedPresentation(HomogeneousMap(algebra, source, target, ()))


class Resolution:
    """Minimal free resolution prefix with per-stage certification."""

    __slots__ = ("presentation", "maps", "stage_certified", "complete")

    def __init__(self, presentation, maps, stage_certified, complete):
        self.presentation = presentation
        self.maps = maps
        self.stage_certified = stage_certified
        self.complete = complete

    @property
    def algebra(self):
        return self.presentation.algebra

    def module(self, t):
        """F_t, with F_0 = generators of the cokernel."""
        _check_stage(t)
        if t == 0:
            return self.presentation.generators
        return self.maps[t - 1].source

    def rank(self, t):
        """Rank of F_t; 0 past the end of a complete resolution."""
        if t <= len(self.maps):
            return self.module(t).rank
        if self.complete:
            return 0
        raise ValueError("resolution too shallow for stage %d" % t)

    def betti(self):
        return tuple(self.module(t).rank for t in range(len(self.maps) + 1))

    def certified_through(self, t):
        return all(self.stage_certified[:t])


def _check_stage(t):
    if t < 0:
        raise ValueError("negative homological degree %d" % t)


def resolve(presentation, t_max):
    """Build partial minimal resolution: maps d_1 .. d_{t_max}."""
    if not presentation.map.is_minimal:
        raise ValueError("presentation is not minimal")
    maps = [presentation.map]
    certified = [True]  # the given presentation is stage 1 as-is
    while len(maps) < t_max and maps[-1].source.rank:
        nxt, cert = kernel_minimal_gens(maps[-1])
        if not nxt.is_minimal:
            # a minimal presentation has all syzygies inside m*F, so a
            # unit entry here convicts the input of a redundant relation
            raise ValueError("presentation is not minimal")
        maps.append(nxt)
        certified.append(cert)
    return Resolution(presentation, maps, certified, maps[-1].source.rank == 0)


def syzygy(presentation, t):
    """Presentation of the image of the t-th differential."""
    _check_stage(t)
    if t == 0:
        return presentation
    res = resolve(presentation, t + 1)
    if t <= len(res.maps) - 1:
        return GradedPresentation(res.maps[t])
    # the resolution ended at a map from the zero module: the syzygy is zero
    return free_presentation(presentation.algebra, ())


def is_free(presentation):
    """Zero minimal presentation matrix detects freeness."""
    if not presentation.map.is_minimal:
        raise ValueError("presentation is not minimal")
    return presentation.map.is_zero()


@dataclass(frozen=True)
class TorResult:
    t: int
    dims_by_degree: dict
    total_dim: int
    bound_certified: bool
    window: tuple


def tor_dim(presentation, ideal, t):
    """dim_k Tor_t(M, R/I) by degree, over a certified window when
    R/I has finite length."""
    return tor_dims(presentation, ideal, t, t)[0]


def tor_dims(presentation, ideal, t0, t1):
    """tor_dim for every t in t0..t1, read off one resolution.

    The resolution to depth t1 + 1 extends the shorter one each tor_dim
    call would build, so every result is the same.  Each map d_t is
    read over R/I in one pass (`_rank_pass`), made when Tor_(t-1) or
    Tor_t first asks for it and kept for the other: the pass covers the
    degrees of both windows, so no map is read twice.
    Against the residue field k = R/m nothing is ranked: every entry of
    a minimal differential lies in m, so Tor_t(M, k) = F_t (x) k and its
    dimensions are the shifts of F_t.  The resolution then goes to depth
    t1 only (2 when t1 = 1, so that a redundant relation is still caught
    at stage 2); stage t1 + 1, never built, is certified exactly when
    its window `kernel_window(algebra, F_t1)` is, and the results are
    the ones the ranks would give.
    """
    if ideal.ring != presentation.algebra.ring:
        raise ValueError("ambient mismatch")
    _check_stage(t0)
    top = ideal.quotient_top_degree()
    if ideal != ideal.ring.maximal_ideal():
        res = resolve(presentation, t1 + 1)
        read = _pass_reader(res, ideal, top, t0, t1)
        return [_tor_from(res, ideal, top, t, read) for t in range(t0, t1 + 1)]
    res = resolve(presentation, t1 if t1 > 1 else t1 + 1)
    out = [_tor_from(res, ideal, top, t, None) for t in range(t0, t1 + 1)]
    if out and len(res.maps) == t1 and not res.complete:
        nxt = kernel_window(presentation.algebra, res.module(t1)).certified
        out[-1] = replace(out[-1], bound_certified=out[-1].bound_certified and nxt)
    return out


def _tor_window(res, top, t):
    """(lo, hi, certified): the degrees Tor_t is read in, for F_t != 0.
    They end top past F_t's highest shift, with top the top degree of
    R/I, or HEURISTIC_WINDOW past it, uncertified, when R/I is not
    Artinian and top is None."""
    ft = res.module(t)
    if top is None:
        return min(ft.shifts), max(ft.shifts) + HEURISTIC_WINDOW, False
    return min(ft.shifts), max(ft.shifts) + top, res.certified_through(t + 1)


def _pass_reader(res, ideal, top, t0, t1):
    """read(i): the pass of maps[i] over R/I, made on the first call.

    maps[i] enters F_i and leaves F_(i+1), so Tor_i and Tor_(i+1) read
    it; its pass covers the degrees of their windows, for those in
    t0..t1 with a nonzero module.  top is R/I's top degree.
    """
    windows = {t: _tor_window(res, top, t) for t in range(t0, t1 + 1) if res.rank(t)}
    passes = {}

    def read(i):
        got = passes.get(i)
        if got is None:
            spans = [windows[t] for t in (i, i + 1) if t in windows]
            lo = min(w[0] for w in spans)
            hi = max(w[1] for w in spans)
            got = passes[i] = _rank_pass(res.maps[i], ideal, lo, hi)
        return got

    return read


def _rank_pass(pmap, ideal, lo, hi):
    """(dims, ranks): for each degree d in lo..hi, dim (F (x) R/I)_d of
    the source F, and the rank of the degree-d piece of pmap over R/I.

    One walk of the source basis over R/I, degree by degree: each column
    (j, b), b outside I, becomes an elimination row keyed by the target
    elements (i, a*b) of its entries (i, a).  A product zero in R is
    None and a product in I is no label of R/I, so one lookup in the
    numbered labels of R/I drops both; the numbers make each key
    (i, a*b) the int n * rank + i.
    Both monoids are cancellative, so the entries of one column meet
    distinct keys.  The rows of degree d are the transpose of the
    degree-d piece, which has their rank; a degree with no row has rank
    0 and no entry in ranks.
    """
    sshifts, tshifts = pmap.source.shifts, pmap.target.shifts
    # the pieces of R/I that a label of the pass can lie in, numbered
    pieces = [ideal.outside(e) for e in range(hi - min(sshifts + tshifts, default=hi) + 1)]
    num = {}
    for labels in pieces:
        for a in labels:
            num[a] = len(num)
    rank = len(tshifts)
    times = pmap.algebra.times
    columns = [
        (s, [(i, times(label), c) for (i, label), c in elt.items()])
        for s, elt in zip(sshifts, pmap.elts)
    ]
    p = pmap.algebra.p
    dims, ranks = {}, {}
    for d in range(lo, hi + 1):
        size = 0
        rows = []  # the nonzero rows of degree d
        for s, entries in columns:
            if d < s:
                continue
            labels = pieces[d - s]
            size += len(labels)
            for b in labels:
                row = {}
                for i, prods, c in entries:
                    n = num.get(prods[b])
                    if n is not None:
                        row[n * rank + i] = c
                if row:
                    rows.append(row)
        if size:
            dims[d] = size
        if rows:
            ranks[d] = linalg.rank(rows, p)
    return dims, ranks


def _tor_from(res, ideal, top, t, read):
    """Tor_t(M, R/I) off res, with top the top degree of R/I.  read(i)
    is the pass (`_rank_pass`) of maps[i] over R/I; read is None over
    k = R/m, where every map of a minimal resolution becomes zero."""
    if res.rank(t) == 0:
        # zero F_t, or past the end; certified_through reads the stages there are
        return TorResult(t, {}, 0, res.certified_through(t), (0, -1))
    ft = res.module(t)
    lo, hi, certified = _tor_window(res, top, t)
    if read is None:
        dims = {}
        for s in sorted(ft.shifts):
            dims[s] = dims.get(s, 0) + 1
        return TorResult(t, dims, ft.rank, certified, (lo, hi))
    # d_t = maps[t - 1] leaves F_t, and its pass counts F_t (x) R/I;
    # d_(t+1) = maps[t] enters F_t
    if t:
        size, leaving = read(t - 1)
    else:
        outside = ideal.outside
        size = {d: sum(len(outside(d - s)) for s in ft.shifts) for d in range(lo, hi + 1)}
        leaving = {}
    entering = read(t)[1]
    dims = {}
    total = 0
    for d in range(lo, hi + 1):
        k = size.get(d, 0) - leaving.get(d, 0) - entering.get(d, 0)
        if k:
            dims[d] = k
            total += k
    return TorResult(t, dims, total, certified, (lo, hi))


def annihilates(ideal, presentation, t):
    """Does J kill the t-th syzygy module?

    For t >= 1 the products j*c are evaluated literally in F_{t-1} for
    every generator j of J and every column c of the t-th differential.
    For t = 0 membership of j*(generator) in the relation image decides
    J*M = 0 degree by degree.
    """
    algebra = presentation.algebra
    if ideal.ring != algebra.ring:
        raise ValueError("ambient mismatch")
    _check_stage(t)
    jgens = ideal.min_gens()
    if t == 0:
        pmap = presentation.map
        zero = algebra.ring.zero_ideal()
        ranks = {}  # {d: ranks of pmap's pass at degree d}
        for i, s in enumerate(presentation.generators.shifts):
            for g in jgens:
                # g*e_i lies in the image iff, as one more column, it
                # leaves the rank of the degree-d piece unchanged; each
                # pass holds that rank alone, or nothing for rank 0
                d = s + algebra.deg(g)
                if d not in ranks:
                    ranks[d] = _rank_pass(pmap, zero, d, d)[1]
                wider = _trusted_map(
                    algebra, GradedFreeModule(pmap.source.shifts + (d,)),
                    pmap.target, pmap.elts + ({(i, g): 1},),
                )
                if _rank_pass(wider, zero, d, d)[1] != ranks[d]:
                    return False
        return True
    res = resolve(presentation, t)
    if t > len(res.maps):
        return True  # the resolution ended: zero syzygy
    for col in res.maps[t - 1].elts:
        for g in jgens:
            if scale_module_elt(algebra, col, g):
                return False
    return True


def audit_resolution(res):
    """Degreewise exactness and minimality checks.

    Verifies every differential has entries in the maximal ideal, that
    consecutive maps compose to zero on module generators, that
    dim ker(d_i)_d = dim im(d_{i+1})_d for every degree in the stage
    windows (homology vanishes strictly between stages), and the Euler
    identity of `euler_holds`.  Both sides of each equality come from
    passes over R (`_rank_pass` against the zero ideal), one per map of
    each consecutive pair, on the outer map's window.
    """
    algebra = res.algebra
    for pmap in res.maps:
        if not pmap.is_minimal:
            return False
    for a, b in zip(res.maps, res.maps[1:]):
        for col in b.elts:
            if a.apply_sparse(col):
                return False
    zero = algebra.ring.zero_ideal()
    for outer, inner in zip(res.maps, res.maps[1:]):
        if outer.source.rank == 0:
            continue
        lo = min(outer.source.shifts)
        hi = kernel_window(algebra, outer.source).bound
        dims, ranks = _rank_pass(outer, zero, lo, hi)
        images = _rank_pass(inner, zero, lo, hi)[1]
        for d, size in dims.items():
            if size - ranks.get(d, 0) != images.get(d, 0):
                return False
    return euler_holds(res)


def euler_holds(res):
    """sum_{i=0..n} (-1)^i dim (F_i)_d = dim (F_0)_d - rank (d_1)_d.

    F_n is the last module computed.  The alternating sum differs from
    dim M_d by (-1)^n dim (ker d_n)_d, and ker d_n is the image of the
    next minimal differential, zero up to min shift of F_n; so the
    identity is checked for every degree up to there, or, when F_n = 0
    and the resolution has ended, up to the last stage's window.  The
    F_0 term stands on both sides and cancels, so one pass of d_1 over R
    (`_rank_pass`) gives what is left of the right side and the i = 1
    term of the left.
    """
    algebra = res.algebra
    f0 = res.module(0)
    if not f0.rank:
        return True
    n = len(res.maps)
    last = res.module(n)
    if last.rank:
        hi = min(last.shifts)
    else:
        hi = kernel_window(algebra, res.module(n - 1)).bound
    lo = min(f0.shifts)
    dims, ranks = _rank_pass(res.maps[0], algebra.ring.zero_ideal(), lo, hi)
    modules = [res.module(i) for i in range(2, n + 1)]
    for d in range(lo, hi + 1):
        alt = sum((-1) ** i * f.dim(algebra, d) for i, f in enumerate(modules, 2))
        if alt - dims.get(d, 0) != -ranks.get(d, 0):
            return False
    return True
