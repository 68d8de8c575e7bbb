"""Built-in worked examples with independently checkable claims.

Each example constructs its ring and ideals from scratch and returns a
list of (claim, ok) pairs computed by the engine.  The CLI `paper`
subcommand and the acceptance tests require every claim to hold, so
these double as end-to-end regression fixtures over both backends.

Example names are stable identifiers used on the command line.  Each
example ideal has one `ColonTable`, so a product m*I or a colon by a
power of m that several claims read is formed once.
"""

from __future__ import annotations

from .classify import ColonTable, loewy_length
from .homalg import GradedAlgebra, cyclic_presentation, is_free, tor_dim
from .rings import QuotientRing, SemigroupRing


def _e41():
    """Cube of the maximal ideal in two variables; I = y*m, L = (x^2)."""
    ring = QuotientRing(2, [(3, 0), (2, 1), (1, 2), (0, 3)])
    i = ring.ideal([(1, 1), (0, 2)])
    l = ring.ideal([(2, 0)])
    t = ColonTable(i)
    algebra = GradedAlgebra(ring)
    pres_i = cyclic_presentation(algebra, i)
    pres_l = cyclic_presentation(algebra, l)
    return [
        ("(I : m) = (y, x^2)", t.colon(1) == ring.ideal([(0, 1), (2, 0)])),
        ("I is weakly m-full with respect to (I : m)", t.wmf_wrt(t.colon(1))),
        ("I is Burch", t.burch()),
        ("I cap L = 0", i.intersect(l).is_zero()),
        ("I * L = 0", (i * l).is_zero()),
        ("Tor_1(R/I, R/L) = 0", tor_dim(pres_i, l, 1).total_dim == 0),
        ("Tor_2(R/I, R/L) > 0", tor_dim(pres_i, l, 2).total_dim > 0),
        ("R/L is not free", not is_free(pres_l)),
    ]


def _e42():
    """The square of the maximal ideal of <4,5,11> fails weak m-fullness."""
    ring = SemigroupRing((4, 5, 11))
    m2 = ring.mpow(2)
    t = ColonTable(m2)  # m * m^2 = m^3
    return [
        ("t^11 not in m^2", not m2.member(11)),
        ("t^11 in (m^3 : m)", t.mi_colon(1).member(11)),
        ("m^2 is not weakly m-full", not t.weakly_mfull()),
    ]


def _e43():
    """A four-variable monomial ideal that is full with respect to n only."""
    ring = QuotientRing(4)
    gens = [
        (0, 0, 0, 2),  # w^2
        (0, 1, 0, 1),  # wy
        (0, 0, 2, 1),  # wz^2
        (2, 0, 0, 0),  # x^2
        (1, 2, 0, 0),  # xy^2
        (1, 0, 1, 0),  # xz
        (0, 3, 0, 0),  # y^3
        (0, 2, 1, 0),  # y^2 z
        (0, 1, 2, 0),  # y z^2
        (0, 0, 3, 0),  # z^3
    ]
    a = ring.ideal(gens)
    t = ColonTable(a)
    wx = (1, 0, 0, 1)
    # binomial relations of the analytic isomorphism, one term tuple each
    relations = [
        ((0, 0, 4, 0), (3, 0, 0, 1)),
        ((0, 4, 0, 0), (3, 0, 1, 0)),
        ((17, 0, 0, 0), (0, 0, 0, 16)),
    ]
    return [
        ("the ten given generators are minimal", set(a.min_gens()) == set(gens)),
        ("n^3 contained in a", ring.mpow(3).subset_of(a)),
        ("a contained in n^2", a.subset_of(ring.mpow(2))),
        ("wx in (n a : n)", t.mi_colon(1).member(wx)),
        ("wx not in a", not a.member(wx)),
        ("a is not weakly n-full", not t.weakly_mfull()),
        ("(n a : n^2) = n^2", t.mi_colon(2) == ring.mpow(2)),
        ("a is weakly n-full with respect to n", t.wmf_mpow(1)),
        ("all relation terms have degree >= 4", all(sum(term) >= 4 for rel in relations for term in rel)),
    ]


def _e44():
    """I = (x^5, x^3 y, x y^3, y^5) in two variables."""
    ring = QuotientRing(2)
    i = ring.ideal([(5, 0), (3, 1), (1, 3), (0, 5)])
    t = ColonTable(i)
    return [
        ("m^5 strictly inside I", ring.mpow(5).subset_of(i) and ring.mpow(5) != i),
        ("I strictly inside m^4", i.subset_of(ring.mpow(4)) and i != ring.mpow(4)),
        ("(I : m^3) = m^2", t.colon(3) == ring.mpow(2)),
        ("(m I : m^4) = m^2", t.mi_colon(4) == ring.mpow(2)),
        ("I is weakly m-full with respect to m^3", t.wmf_mpow(3)),
        ("x^2 y^2 in (m I : m)", t.mi_colon(1).member((2, 2))),
        ("x^2 y^2 not in I", not i.member((2, 2))),
        ("I is not weakly m-full", not t.weakly_mfull()),
        ("Loewy length of R/I is 5", loewy_length(i) == 5),
        ("I is Burch", t.burch()),
    ]


def _e45():
    """I = (t^17, t^19, t^20) over <4,5,6>."""
    ring = SemigroupRing((4, 5, 6))
    m = ring.maximal_ideal()
    i = ring.ideal([17, 19, 20])
    t = ColonTable(i)
    return [
        ("m^3 = (t^12, t^13, t^14, t^15)", set(ring.mpow(3).min_gens()) == {12, 13, 14, 15}),
        ("m^4 = (t^16, t^17, t^18, t^19)", set(ring.mpow(4).min_gens()) == {16, 17, 18, 19}),
        ("m I = (t^21, t^22, t^23, t^24)", set(t.mi.min_gens()) == {21, 22, 23, 24}),
        ("t^6 not in (I : m^3)", not t.colon(3).member(6)),
        ("t^6 in (m I : m^4)", t.mi_colon(4).member(6)),
        ("I is not weakly m-full with respect to m^3", not t.wmf_mpow(3)),
        ("(I : m^4) = m", t.colon(4) == m),
        ("(m I : m^5) = m", t.mi_colon(5) == m),
        ("I is weakly m-full with respect to m^4", t.wmf_mpow(4)),
        ("m^5 strictly inside I", ring.mpow(5).subset_of(i) and ring.mpow(5) != i),
        ("I strictly inside m^4", i.subset_of(ring.mpow(4)) and i != ring.mpow(4)),
        ("Loewy length of R/I is 5", loewy_length(i) == 5),
        ("I is Burch", t.burch()),
        ("I is not weakly m-full", not t.weakly_mfull()),
    ]


def _r27():
    """Socle element outside an ideal gives Tor_1 = 0 but Tor_2 != 0."""
    ring = QuotientRing(2, [(0, 2), (1, 1)])
    yr = ring.ideal([(0, 1)])
    xr = ring.ideal([(1, 0)])
    algebra = GradedAlgebra(ring)
    pres = cyclic_presentation(algebra, yr)
    return [
        ("socle of R is spanned by y", set(ring.socle()) == {(0, 1)}),
        ("Tor_1(R/yR, R/xR) = 0", tor_dim(pres, xr, 1).total_dim == 0),
        ("Tor_2(R/yR, R/xR) > 0", tor_dim(pres, xr, 2).total_dim > 0),
        ("R/yR is not free", not is_free(pres)),
    ]


EXAMPLES = {
    "e4.1": _e41,
    "e4.2": _e42,
    "e4.3": _e43,
    "e4.4": _e44,
    "e4.5": _e45,
    "r2.7": _r27,
}


def run_example(name: str):
    """Claim table for one example: list of (claim, ok) pairs."""
    fn = EXAMPLES.get(name)
    if fn is None:
        raise ValueError("unknown example: %s" % name)
    return fn()
