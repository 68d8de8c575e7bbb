"""Sparse GF(p) kernels: RREF, nullspace, row reduction, echelon spans.

Rows are {column: coeff} dicts of nonzero entries.  Besides the
structural properties, every kernel is compared with the dense-list
reference in tests/oracles.py.
"""

import random

import pytest

from burchkit import linalg
from burchkit.linalg import PRIME_BOUND, EchelonSpan, check_prime
from oracles import (
    degree_monomials,
    dense_nullspace,
    dense_reduce_row,
    dense_rref,
    scan_echelon,
    scan_residual,
)

PRIMES = (2, 3, 101)
REFERENCE_PRIMES = (2, 3, 101, 2**31 - 1, 2**61 - 1)


def _sparse(row):
    return {c: x for c, x in enumerate(row) if x}


def _dense(row, ncols):
    out = [0] * ncols
    for c, x in row.items():
        out[c] = x
    return out


def _rand_row(rng, p, ncols, density):
    return [rng.randrange(1, p) if rng.random() < density else 0 for _ in range(ncols)]


def _rand_matrix(rng, p, density=1.0):
    """A dense matrix, entries nonzero with the given probability."""
    nrows = rng.randint(0, 5)
    ncols = rng.randint(1, 6)
    return [_rand_row(rng, p, ncols, density) for _ in range(nrows)], ncols


def _matvec(rows, v, p):
    return [sum(x * v.get(c, 0) for c, x in r.items()) % p for r in rows]


def test_rref_structure():
    rng = random.Random(31)
    for p in PRIMES:
        for _ in range(40):
            dense, ncols = _rand_matrix(rng, p)
            rows = [_sparse(r) for r in dense]
            red, pivots = linalg.rref(rows, ncols, p)
            assert len(red) == len(pivots)
            assert list(pivots) == sorted(pivots)
            for r, pc in enumerate(pivots):
                assert pivots[pc] == r
                assert red[r][pc] == 1
                # pivot column is elsewhere zero
                assert all(pc not in red[k] for k in range(len(red)) if k != r)
                # nothing left of the pivot, and only nonzero entries stored
                assert min(red[r]) == pc
                assert all(0 < x < p and 0 <= c < ncols for c, x in red[r].items())
            # idempotence
            again, pivots2 = linalg.rref(red, ncols, p)
            assert again == red and pivots2 == pivots


def test_nullspace_vectors_annihilate():
    rng = random.Random(32)
    for p in PRIMES:
        for _ in range(40):
            dense, ncols = _rand_matrix(rng, p)
            rows = [_sparse(r) for r in dense]
            basis = linalg.nullspace(rows, ncols, p)
            _, pivots = linalg.rref(rows, ncols, p)
            assert len(basis) == ncols - len(pivots)
            for v in basis:
                assert all(x == 0 for x in _matvec(rows, v, p))
            # basis vectors are independent: each has a 1 in a distinct free column
            red, piv = linalg.rref(basis, ncols, p)
            assert len(red) == len(basis)


def test_reduce_row_semantics():
    p = 101
    red, pivots = linalg.rref([{0: 1, 1: 2, 2: 3}, {1: 1, 2: 4}], 3, p)
    # a row in the span reduces to None
    combo = {c: (1 * red[0].get(c, 0) + 5 * red[1].get(c, 0)) % p for c in range(3)}
    assert linalg.reduce_row(combo, red, pivots, p) is None
    # an independent row leaves a nonzero residual
    res = linalg.reduce_row({2: 1}, red, pivots, p)
    assert res
    # coefficients are taken mod p, zero entries ignored, the input kept
    row = {0: p + 1, 1: 0, 2: -1}
    assert linalg.reduce_row(row, [], {}, p) == {0: 1, 2: p - 1}
    assert row == {0: p + 1, 1: 0, 2: -1}
    # an entry that vanishes mod p in a pivot column takes no multiple
    assert linalg.reduce_row({0: p, 1: 2 * p, 2: 5}, red, pivots, p) == {2: 5}


def test_echelon_span_incremental():
    rng = random.Random(33)
    p = 101
    for _ in range(30):
        ncols = rng.randint(1, 6)
        span = EchelonSpan(p)
        vecs = []
        for _ in range(rng.randint(1, 8)):
            v = _sparse([rng.randrange(p) for _ in range(ncols)])
            before = span.rank
            grew = span.add(v)
            vecs.append(v)
            red, pivots = linalg.rref(vecs, ncols, p)
            assert span.rank == len(pivots)
            assert grew == (span.rank > before)
        # every added vector now reduces to zero
        for v in vecs:
            assert span.reduce(v) is None


@pytest.mark.parametrize("p", REFERENCE_PRIMES)
def test_sparse_kernel_matches_dense_reference(p):
    rng = random.Random(p)
    for density in (0.15, 0.5, 1.0):
        for _ in range(30):
            nrows, ncols = rng.randint(0, 9), rng.randint(1, 12)
            dense = [_rand_row(rng, p, ncols, density) for _ in range(nrows)]
            rows = [_sparse(r) for r in dense]
            red, pivots = linalg.rref(rows, ncols, p)
            want_red, want_pivots = dense_rref(dense, ncols, p)
            assert [_dense(r, ncols) for r in red] == want_red
            assert list(pivots) == want_pivots
            # the rank, of the rows and of the columns keyed by row
            assert linalg.rank(rows, p) == len(want_red)
            cols = [{r: x for r, row in enumerate(dense) if (x := row[c])} for c in range(ncols)]
            assert linalg.rank([c for c in cols if c], p) == len(want_red)
            null = linalg.nullspace(rows, ncols, p)
            assert [_dense(v, ncols) for v in null] == dense_nullspace(dense, ncols, p)
            for _ in range(5):
                probe = _rand_row(rng, p, ncols, density)
                got = linalg.reduce_row(_sparse(probe), red, pivots, p)
                want = dense_reduce_row(probe, want_red, want_pivots, p)
                assert (got and _dense(got, ncols)) == want
            # the incremental span ends at the same RREF
            span = EchelonSpan(p)
            for r in rows:
                span.add(r)
            order = sorted(span.pivots)
            assert [_dense(span.rows[span.pivots[c]], ncols) for c in order] == want_red


def _scan_nullspace(rows, ncols, p):
    red, pivots = scan_echelon(rows, p)
    basis = {f: {f: 1} for f in range(ncols) if f not in pivots}
    for pc, at in pivots.items():
        for c, x in red[at].items():
            if c != pc:
                basis[c][pc] = p - x
    return list(basis.values())


@pytest.mark.parametrize("p", REFERENCE_PRIMES)
def test_indexed_elimination_matches_row_scanning_reference(p):
    # the occurrence index visits only rows that hold the new pivot
    # column; the reference clears it out of every row
    rng = random.Random(7 * p + 1)
    for density in (0.1, 0.3, 0.7):
        for _ in range(40):
            ncols = rng.randint(1, 14)
            rows = [_sparse(_rand_row(rng, p, ncols, density)) for _ in range(rng.randint(0, 12))]
            red, pivots = scan_echelon(rows, p)
            order = sorted(pivots)
            assert linalg.rref(rows, ncols, p) == (
                [red[pivots[c]] for c in order],
                {c: i for i, c in enumerate(order)},
            )
            assert linalg.nullspace(rows, ncols, p) == _scan_nullspace(rows, ncols, p)
            # a span keeps the reference's rows, in order
            more = [_sparse(_rand_row(rng, p, ncols, density)) for _ in range(rng.randint(0, 8))]
            span = EchelonSpan(p)
            grew = [span.add(r) for r in more]
            want, want_pivots = scan_echelon(more, p)
            assert span.rows == want and span.pivots == want_pivots
            assert grew.count(True) == len(want)
            probe = _sparse(_rand_row(rng, p, ncols, density))
            assert span.reduce(probe) == (scan_residual(probe, want, want_pivots, p) or None)


@pytest.mark.parametrize("p", (2, 101, 2**31 - 1))
def test_nullspace_vectors_end_at_their_free_columns(p):
    rng = random.Random(3 * p + 2)
    for density in (0.2, 0.5, 0.9):
        for _ in range(40):
            ncols = rng.randint(1, 12)
            rows = [_sparse(_rand_row(rng, p, ncols, density)) for _ in range(rng.randint(0, 10))]
            want = linalg.nullspace(rows, ncols, p)
            _, pivots = linalg.rref(rows, ncols, p)
            # one vector per free column, in ascending order; the free
            # column is the vector's highest, with entry 1 there
            free = [c for c in range(ncols) if c not in pivots]
            assert [max(v) for v in want] == free
            assert all(v[max(v)] == 1 for v in want)


def test_a_row_that_loses_and_regains_a_column_is_cleared():
    p = 101
    added = [{0: 1, 1: 1, 2: 1, 3: 1}, {1: 1, 3: 1}, {2: 1, 3: 1}, {3: 1}]
    span = EchelonSpan(p)
    for n, row in enumerate(added, 1):
        assert span.add(row)
        want, _ = scan_echelon(added[:n], p)
        assert span.rows == want
        if n == 2:
            assert span.rows[0] == {0: 1, 2: 1}  # column 3 cancelled
        if n == 3:
            assert span.rows[0] == {0: 1, 3: p - 1}  # and came back
    assert span.rows == [{0: 1}, {1: 1}, {2: 1}, {3: 1}]
    # the same rows through rref
    assert linalg.rref(added, 4, p)[0] == [{0: 1}, {1: 1}, {2: 1}, {3: 1}]


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_check_prime():
    for n in range(3000):
        if _trial_division(n):
            check_prime(n)
        else:
            with pytest.raises(ValueError, match="not prime"):
                check_prime(n)
    for p in (2**31 - 1, 2**61 - 1):
        check_prime(p)
    # strong pseudoprimes to every prime base up to 7, up to 23, and up
    # to 37 (the last one is caught by base 41 alone)
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        with pytest.raises(ValueError, match="not prime"):
            check_prime(n)
    with pytest.raises(ValueError, match="too large"):
        check_prime(PRIME_BOUND)


def test_engine_hands_the_kernels_reduced_rows(monkeypatch):
    # rref, nullspace and EchelonSpan.add take rows with entries in
    # 1..p-1 and do not reduce them again; reduce_row reduces its own
    from burchkit import fuzz, homalg, rings

    real = linalg._residual
    calls, bad = [], []

    def checking(row, red, pivots, p):
        calls.append(p)
        if not all(0 < x < p for x in row.values()):
            bad.append((dict(row), p))
        return real(row, red, pivots, p)

    monkeypatch.setattr(linalg, "_residual", checking)
    cube = degree_monomials(2, 3)
    square = degree_monomials(3, 2)
    ci = [(2, 0, 0), (0, 3, 0), (0, 0, 4)]
    inputs = [
        (rings.QuotientRing(2, cube), 101, 6),
        (rings.SemigroupRing((6, 7, 9, 11)), 101, 4),
        (rings.QuotientRing(3, square), 101, 4),
        (rings.QuotientRing(3, ci), 2**31 - 1, 5),
        (rings.SemigroupRing((4, 5, 6, 7)), 2**31 - 1, 4),
    ]
    for ring, p, depth in inputs:
        del calls[:]
        homalg.resolve(homalg.cyclic_presentation(homalg.GradedAlgebra(ring, p), ring.maximal_ideal()), depth)
        assert calls, ring
    # a monomial suite and a semigroup suite; an exception inside a trial
    # would become a counterexample, so the check only records
    for name in ("prop26", "cor210"):
        del calls[:]
        assert fuzz.run_suite(name, fuzz.FuzzConfig(seed=11, trials=15)).passed
        assert calls, name
    assert bad == []
