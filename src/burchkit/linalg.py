"""Sparse GF(p) elimination: RREF, nullspace, row reduction, echelon spans.

A row is a dict {column: coefficient} holding its nonzero entries; a
matrix is a list of rows plus its column count.  Every kernel keeps its
rows in reduced row echelon form, where each pivot column is zero in
all other rows.  So the coefficient of a pivot row in a vector is the
vector's own entry in that pivot column, and reducing a vector touches
only the pivot rows its support meets.  The RREF of a row space is
unique, so results do not depend on the order rows arrive in.

The modulus must be prime (`check_prime`): inverses are taken as
x^(p-2) mod p.
"""

from __future__ import annotations

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
    """Residual of row modulo the RREF rows red, as a new dict.

    The multiple of the pivot row for column c is row[c] itself, so only
    the pivot columns in the support of row are visited.
    """
    out = {c: x % p for c, x in row.items() if x % p}
    if pivots:
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


def _insert(red, pivots, res, p):
    """Append a nonzero residual as a pivot row and keep red reduced."""
    pc = min(res)
    f = res[pc]
    if f != 1:
        inv = pow(f, p - 2, p)
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


def _echelon(rows, p):
    """Reduced echelon rows of the row space, in the order they were found."""
    red, pivots = [], {}
    for row in rows:
        out = _residual(row, red, pivots, p)
        if out:
            _insert(red, pivots, out, p)
    return red, pivots


def rref(rows, ncols, p):
    """Reduced row echelon form of the row space.

    rows holds the nonzero entries of each row of a matrix with ncols
    columns.  Returns (red, pivots): the nonzero RREF rows ordered by
    pivot column, and a dict mapping each pivot column, ascending, to
    the index of its row in red.
    """
    red, pivots = _echelon(rows, p)
    order = sorted(pivots)
    return [red[pivots[c]] for c in order], {c: i for i, c in enumerate(order)}


def nullspace(rows, ncols, p):
    """Basis of the right kernel {v : A v = 0}, one vector per free column.

    The vector for free column f has a 1 at f and -red[r][f] at the
    pivot of every row r; vectors come in ascending order of f.
    """
    red, pivots = _echelon(rows, p)
    basis = {f: {f: 1} for f in range(ncols) if f not in pivots}
    for pc, at in pivots.items():
        for c, x in red[at].items():
            if c != pc:
                basis[c][pc] = p - x
    return list(basis.values())


def reduce_row(row, red, pivots, p):
    """Residual of row modulo the span of RREF rows; None if it is zero.

    pivots maps each pivot column to the index of its row in red, as
    `rref` returns it.
    """
    return _residual(row, red, pivots, p) or None


class EchelonSpan:
    """Incrementally maintained row space in reduced echelon form.

    rows are kept in the order they were added; pivots maps each pivot
    column to the index of its row, as `reduce_row` expects.
    """

    def __init__(self, p: int):
        self.p = p
        self.rows = []
        self.pivots = {}

    def reduce(self, vec):
        """Residual of vec modulo the span, or None if it lies inside."""
        return reduce_row(vec, self.rows, self.pivots, self.p)

    def add(self, vec) -> bool:
        """Insert vec; returns True if it enlarged the span."""
        res = _residual(vec, self.rows, self.pivots, self.p)
        if not res:
            return False
        _insert(self.rows, self.pivots, res, self.p)
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)
