"""Sparse GF(p) elimination: RREF, nullspace, row reduction, echelon spans.

A row is a dict {column: coefficient} holding its nonzero entries; a
matrix is a list of rows plus its column count.  Every kernel keeps its
rows in reduced row echelon form, where each pivot column is zero in
all other rows.  So the coefficient of a pivot row in a vector is the
vector's own entry in that pivot column, and reducing a vector touches
only the pivot rows its support meets.  The RREF of a row space is
unique, so results do not depend on the order rows arrive in.

Keeping other rows reduced when a pivot row arrives touches only the
rows with an entry in its pivot column.  An occurrence index maps each
non-pivot column to the rows that have held an entry there: lists that
only grow, where a row whose entry has since cancelled is skipped, and
a column's list is dropped once the column becomes a pivot.  `_echelon`
and `EchelonSpan` own their index; nothing else appends rows.

The modulus must be prime (`check_prime`): inverses are taken as
pow(x, -1, p).  Entries are reduced: every row handed to `rref`,
`rank`, `nullspace` or an `EchelonSpan` holds only coefficients in
1..p-1, and every row they return does too, so no kernel normalises its
input.
Only `reduce_row`, the public entry for arbitrary rows, reduces
coefficients mod p first.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache

# Miller-Rabin with the prime bases up to 41 is exact below this bound
# (Sorenson and Webster, 2017).
PRIME_BOUND = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@lru_cache(maxsize=64)
def check_prime(p):
    """Raise ValueError unless p is a prime below PRIME_BOUND."""
    if p >= PRIME_BOUND:
        raise ValueError("%d is too large: moduli must be below %d" % (p, PRIME_BOUND))
    if not _is_prime(p):
        raise ValueError("%d is not prime" % p)


def _is_prime(n):
    """Deterministic Miller-Rabin for n < PRIME_BOUND."""
    if n < 2:
        return False
    for b in _BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _residual(row, red, pivots, p):
    """Residual of the reduced row modulo the RREF rows red, as a new dict.

    The multiple of the pivot row for column c is row[c] itself, so only
    the pivot columns in the support of row are visited.
    """
    out = dict(row)
    if pivots:
        for c, f in row.items():
            at = pivots.get(c)
            if at is None:
                continue
            for k, y in red[at].items():
                x = (out.get(k, 0) - f * y) % p
                if x:
                    out[k] = x
                else:
                    del out[k]
    return out


def _insert(red, pivots, occ, res, p):
    """Append a nonzero residual as a pivot row and keep red reduced.

    occ is the occurrence index of red; only the rows it lists for the
    new pivot column are visited.
    """
    pc = min(res)
    f = res[pc]
    if f != 1:
        inv = pow(f, -1, p)
        res = {c: x * inv % p for c, x in res.items()}
    for at in occ.pop(pc, ()):
        row = red[at]
        f = row.get(pc)
        if not f:
            continue
        for k, y in res.items():
            x = row.get(k)
            if x is None:
                # nonzero: p is prime and f, y are units
                row[k] = -f * y % p
                occ[k].append(at)
            else:
                x = (x - f * y) % p
                if x:
                    row[k] = x
                else:
                    del row[k]
    at = len(red)
    for k in res:
        if k != pc:
            occ[k].append(at)
    pivots[pc] = at
    red.append(res)


def _echelon(rows, p):
    """Reduced echelon rows of the span of rows, in the order their
    pivots were found, and the dict from each pivot column to its row."""
    red, pivots = [], {}
    occ = defaultdict(list)
    for row in rows:
        out = _residual(row, red, pivots, p)
        if out:
            _insert(red, pivots, occ, out, p)
    return red, pivots


def rref(rows, ncols, p):
    """Reduced row echelon form of the row space.

    rows holds the nonzero entries of each row of a matrix with ncols
    columns, reduced mod p.  Returns (red, pivots): the nonzero RREF
    rows ordered by pivot column, and a dict mapping each pivot column,
    ascending, to the index of its row in red.
    """
    red, pivots = _echelon(rows, p)
    order = sorted(pivots)
    return [red[pivots[c]] for c in order], {c: i for i, c in enumerate(order)}


def rank(rows, p):
    """Dimension of the row space; rows are reduced mod p, as for `rref`,
    and may be keyed by any mutually comparable column names."""
    return len(_echelon(rows, p)[0])


def nullspace(rows, ncols, p, cols=None):
    """Basis of the right kernel {v : A v = 0}, one vector per free column.

    rows are A's, with entries reduced mod p, as for `rref`.  The vector
    for free column f has a 1 at f and -red[r][f] at the pivot of every
    row r; vectors come in ascending order of f.  cols, when given,
    names the ncols columns of A in ascending order, in place of
    0..ncols-1: the rows and the vectors are keyed by those names.
    """
    red, pivots = _echelon(rows, p)
    basis = {f: {f: 1} for f in (range(ncols) if cols is None else cols) if f not in pivots}
    for pc, at in pivots.items():
        for c, x in red[at].items():
            if c != pc:
                basis[c][pc] = p - x
    return list(basis.values())


def reduce_row(row, red, pivots, p):
    """Residual of row modulo the span of RREF rows; None if it is zero.

    pivots maps each pivot column to the index of its row in red, as
    `rref` returns it.  The coefficients of row may be any integers:
    they are taken mod p, and zero entries ignored, with row left as it
    was.
    """
    if row and not (0 < min(row.values()) and max(row.values()) < p):
        row = {c: r for c, x in row.items() if (r := x % p)}
    return _residual(row, red, pivots, p) or None


class EchelonSpan:
    """Incrementally maintained row space in reduced echelon form.

    Vectors passed to `add` have entries reduced mod p, as for `rref`;
    `reduce` takes any integers, as `reduce_row` does.  rows are kept in
    the order they were added; pivots maps each pivot column to the
    index of its row, as `reduce_row` expects.  Add rows
    only through `add` or `insert`, which keep the occurrence index.
    """

    def __init__(self, p: int):
        self.p = p
        self.rows = []
        self.pivots = {}
        self._occ = defaultdict(list)

    def reduce(self, vec):
        """Residual of vec modulo the span, or None if it lies inside."""
        return reduce_row(vec, self.rows, self.pivots, self.p)

    def add(self, vec) -> bool:
        """Insert vec; returns True if it enlarged the span."""
        res = _residual(vec, self.rows, self.pivots, self.p)
        if not res:
            return False
        _insert(self.rows, self.pivots, self._occ, res, self.p)
        return True

    def insert(self, res):
        """Insert a residual that `reduce` has just returned, with no
        second reduction.  The span takes res over and may edit it."""
        _insert(self.rows, self.pivots, self._occ, res, self.p)

    @property
    def rank(self) -> int:
        return len(self.rows)
