"""Problem-file grammar: good paths, rejections, line numbers."""

import time

import pytest

from burchkit.homalg import DEFAULT_PRIME, GradedAlgebra, free_presentation
from burchkit.problemfile import ProblemFileError, load_problem, parse_problem
from burchkit.rings import QuotientRing, SemigroupRing

GOOD = """\
# two rings, two ideals, two modules
field GF(7)

ring r = poly(x, y) mod [x^3, y^3, x*y^2]
ring s = semigroup(4, 5, 6)

ideal i in r = [x*y, y^2]       # trailing comment
ideal j in s = [17, 19, 20]

module m in r = coker rows=2 cols=1 entries=[(1, 1, y), (2, 1, x)] shifts=[1, 1]
module f in s = coker rows=1 cols=0 entries=[] shifts=[0]
"""


def perr(text):
    with pytest.raises(ProblemFileError) as info:
        parse_problem(text)
    return info.value


def test_good_file_resolves_every_declaration():
    prob = parse_problem(GOOD)
    assert prob.prime == 7
    assert isinstance(prob.rings["r"], QuotientRing)
    assert isinstance(prob.rings["s"], SemigroupRing)
    assert prob.rings["r"].nvars == 2
    assert set(prob.get_ideal("i").min_gens()) == {(1, 1), (0, 2)}
    assert set(prob.get_ideal("j").rep.gens) == {17, 19, 20}
    assert prob.get_ideal("i").ring is prob.rings["r"]
    assert prob.get_ideal("j").ring is prob.rings["s"]
    # column degree is inferred: shift 1 + entry degree 1
    pres = prob.get_module("m")
    assert pres.map.source.shifts == (2,)
    assert pres.map.target.shifts == (1, 1)
    free = prob.get_module("f")
    assert free.map.source.shifts == ()
    # cols=0 gives the zero relation map that free_presentation builds
    want = free_presentation(GradedAlgebra(prob.rings["s"], 7), (0,)).map
    assert (free.map.source, free.map.target, free.map.elts) == (want.source, want.target, want.elts)
    assert free.algebra.p == want.algebra.p
    # each module is over its declared ring, with the file's field
    assert pres.algebra.ring is prob.rings["r"] and pres.algebra.p == 7
    assert free.algebra.ring is prob.rings["s"] and free.algebra.p == 7


def test_lookup_of_missing_names_raises():
    prob = parse_problem(GOOD)
    with pytest.raises(ValueError, match="unknown ideal"):
        prob.get_ideal("nope")
    with pytest.raises(ValueError, match="unknown module"):
        prob.get_module("nope")


def test_default_prime_without_field_line():
    prob = parse_problem("ring r = poly(x)\n")
    assert prob.prime == DEFAULT_PRIME


def test_monomial_syntax_variants():
    prob = parse_problem("ring r = poly(x, y)\nideal i in r = [x*x*y^3, 1]\n")
    # repeated factors accumulate; the unit monomial makes the ideal unit
    assert prob.get_ideal("i").is_unit()
    assert parse_problem(
        "ring r = poly(x, y)\nideal i in r = [x^2*y^3]\n"
    ).get_ideal("i").min_gens() == ((2, 3),)


def test_load_problem_reads_files(tmp_path):
    path = tmp_path / "p.prob"
    path.write_text(GOOD, encoding="utf-8")
    prob = load_problem(str(path))
    assert set(prob.rings) == {"r", "s"}


def test_field_line_rules():
    e = perr("# c\n\nfield GF(10)\n")
    assert e.line == 3
    assert "not prime" in e.message
    assert "line 3" in str(e)
    e = perr("ring r = poly(x)\nfield GF(7)\n")
    assert "before any ring" in e.message
    e = perr("field GF(5)\nfield GF(7)\nring r = poly(x)\n")
    assert "duplicate field" in e.message
    assert perr("field GF(q)\n").message == "bad field declaration"


def test_field_moduli_are_tested_by_miller_rabin():
    # a 61-bit Mersenne prime: trial division would need ~1.5e9 divisions
    start = time.perf_counter()
    prob = parse_problem(
        "field GF(2305843009213693951)\nring s = semigroup(3, 4)\n"
        "module f in s = coker rows=1 cols=0 entries=[] shifts=[0]\n"
    )
    assert time.perf_counter() - start < 0.5
    assert prob.prime == 2**61 - 1
    assert prob.get_module("f").algebra.p == 2**61 - 1
    assert "4 is not prime" in perr("field GF(4)\n").message
    # 2^89 - 1 is prime but above the bound where the test is exact
    e = perr("# c\nfield GF(618970019642690137449562111)\n")
    assert e.line == 2 and "too large" in e.message


def test_ring_declaration_rejections():
    assert "at least one variable" in perr("ring r = poly()\n").message
    assert "repeated variable" in perr("ring r = poly(x, x)\n").message
    assert "bad variable name" in perr("ring r = poly(x, 2y)\n").message
    assert "at least one generator" in perr("ring s = semigroup()\n").message
    assert "must be positive" in perr("ring s = semigroup(0, 3)\n").message
    # gcd failure comes from the engine but keeps the line tag
    e = perr("line one is fine # nothing\nring s = semigroup(2, 4)\n".replace(
        "line one is fine # nothing", "# header"))
    assert e.line == 2
    assert "must be an integer" in perr("ring s = semigroup(3, x)\n").message
    assert "duplicate ring" in perr("ring r = poly(x)\nring r = poly(y)\n").message
    assert "bad ring declaration" in perr("ring r = matrix(2)\n").message
    assert "must not be a unit" in perr("ring r = poly(x) mod [1]\n").message


def test_ideal_declaration_rejections():
    assert "unknown ring" in perr("ideal i in q = [3]\n").message
    base = "ring r = poly(x, y)\nring s = semigroup(3, 4, 5)\n"
    assert "duplicate ideal" in perr(
        base + "ideal i in r = [x]\nideal i in r = [y]\n"
    ).message
    assert "unknown variable" in perr(base + "ideal i in r = [x*z]\n").message
    assert "bad monomial factor" in perr(base + "ideal i in r = [x^]\n").message
    assert "must be nonnegative" in perr(base + "ideal i in s = [-3]\n").message
    assert "must be an integer" in perr(base + "ideal i in s = [x]\n").message
    e = perr(base + "ideal i in s = [2]\n")
    assert "not in the semigroup" in e.message
    assert e.line == 3


def test_module_declaration_rejections():
    base = "ring r = poly(x, y) mod [x^2, y^2]\nring s = semigroup(4, 5, 6)\n"

    def mod(body):
        return base + "module m in r = coker " + body + "\n"

    assert "unknown ring" in perr(
        "module m in q = coker rows=1 cols=0 entries=[] shifts=[0]\n"
    ).message
    assert "at least 1" in perr(mod("rows=0 cols=0 entries=[] shifts=[]")).message
    assert "expected 2 shifts" in perr(
        mod("rows=2 cols=0 entries=[] shifts=[0]")
    ).message
    assert "must be nonnegative" in perr(
        mod("rows=1 cols=0 entries=[] shifts=[-1]")
    ).message
    assert "out of range" in perr(
        mod("rows=1 cols=1 entries=[(2, 1, x)] shifts=[0]")
    ).message
    assert "duplicate entry" in perr(
        mod("rows=2 cols=1 entries=[(1, 1, x), (1, 1, y)] shifts=[0, 0]")
    ).message
    assert "bad entry" in perr(mod("rows=1 cols=1 entries=[(1, x)] shifts=[0]")).message
    assert "column 2 has no entries" in perr(
        mod("rows=1 cols=2 entries=[(1, 1, x)] shifts=[0]")
    ).message
    assert "not homogeneous" in perr(
        mod("rows=2 cols=1 entries=[(1, 1, x), (2, 1, x)] shifts=[0, 1]")
    ).message
    assert "positive degree" in perr(
        mod("rows=1 cols=1 entries=[(1, 1, 1)] shifts=[0]")
    ).message
    assert "zero in the ring" in perr(
        mod("rows=1 cols=1 entries=[(1, 1, x^2)] shifts=[0]")
    ).message
    assert "duplicate module" in perr(
        base
        + "module m in r = coker rows=1 cols=0 entries=[] shifts=[0]\n"
        + "module m in r = coker rows=1 cols=0 entries=[] shifts=[0]\n"
    ).message
    assert "not in the semigroup" in perr(
        base + "module m in s = coker rows=1 cols=1 entries=[(1, 1, 7)] shifts=[0]\n"
    ).message
    assert "positive degree" in perr(
        base + "module m in s = coker rows=1 cols=1 entries=[(1, 1, 0)] shifts=[0]\n"
    ).message


def test_semigroup_module_good_path():
    prob = parse_problem(
        "ring s = semigroup(4, 5, 6)\n"
        "module m in s = coker rows=2 cols=1 entries=[(1, 1, 5), (2, 1, 4)] shifts=[4, 5]\n"
    )
    pres = prob.get_module("m")
    assert pres.map.source.shifts == (9,)
    assert pres.map.target.shifts == (4, 5)


def test_unrecognized_statement():
    e = perr("ring r = poly(x)\nthing foo = 3\n")
    assert e.line == 2
    assert "unrecognized statement" in e.message


def test_label_errors_carry_exact_messages_and_lines():
    # each family's ideal generators and matrix entries; the offending
    # statement sits on line 4 or 5, after a comment line
    base = "ring r = poly(x, y) mod [x^2, y^2]\n# gap\nring s = semigroup(3, 5, 7)\n"

    def entry(ring, label):
        return "module m in %s = coker rows=1 cols=1 entries=[(1, 1, %s)] shifts=[0]\n" % (ring, label)

    cases = (
        ("ideal i in s = [-3]\n", 4, "valuations must be nonnegative"),
        ("ideal i in s = [3, 5]\nideal j in s = [5, 4]\n", 5, "value 4 is not in the semigroup"),
        ("ideal i in s = [3, x]\n", 4, "valuation must be an integer: 'x'"),
        (entry("s", "0"), 4, "entry must have positive degree"),
        (entry("s", "-2"), 4, "entry must have positive degree"),
        (entry("s", "4"), 4, "valuation 4 is not in the semigroup"),
        (entry("s", "y"), 4, "entry valuation must be an integer: 'y'"),
        (entry("r", "1"), 4, "entry must have positive degree"),
        (entry("r", "x*y^2"), 4, "entry is zero in the ring"),
        (entry("r", "3"), 4, "bad monomial factor: '3'"),
        ("ideal i in r = [x, 4]\n", 4, "bad monomial factor: '4'"),
    )
    for body, line, message in cases:
        e = perr(base + body)
        assert (e.line, e.message) == (line, message), body
