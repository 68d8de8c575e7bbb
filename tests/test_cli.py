"""End-to-end command-line checks: exit codes, JSON payload shapes."""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

import burchkit.cli as cli
from burchkit.classify import classification_report
from burchkit.cli import build_parser, main
from burchkit.fuzz import FuzzConfig, SuiteReport, run_suite
from burchkit.homalg import kernel_memo, tor_dim, tor_dims
from burchkit.hw import hw_report
from burchkit.problemfile import load_problem

E45 = """\
ring s = semigroup(4, 5, 6)
ideal i in s = [17, 19, 20]
ideal m3 in s = [12, 13, 14, 15]
ideal m4 in s = [16, 17, 18, 19]
ideal j45 in s = [4, 5]
ideal imj in s = [8, 9, 10, 11]
ideal one in s = [0]
"""

E42 = """\
ring s = semigroup(4, 5, 11)
ideal m2 in s = [8, 9, 10, 15, 16, 22]
"""

E41 = """\
ring r = poly(x, y) mod [x^3, x^2*y, x*y^2, y^3]
ideal i in r = [x*y, y^2]
ideal l in r = [x^2]
module RmodI in r = coker rows=1 cols=2 entries=[(1, 1, x*y), (1, 2, y^2)] shifts=[0]
module F in r = coker rows=2 cols=0 entries=[] shifts=[0, 1]
"""

R27 = """\
ring r = poly(x, y) mod [y^2, x*y]
ideal ix in r = [x]
ideal iy in r = [y]
module RmodY in r = coker rows=1 cols=1 entries=[(1, 1, y)] shifts=[0]
"""

HW = """\
ring s3 = semigroup(3, 4, 5)
ideal m in s3 = [3, 4, 5]
ideal p in s3 = [6]
ring s4 = semigroup(4, 5, 6)
ideal m3 in s4 = [12, 13, 14, 15]
"""


@pytest.fixture
def files(tmp_path):
    out = {}
    for stem, text in (
        ("e45", E45),
        ("e42", E42),
        ("e41", E41),
        ("r27", R27),
        ("hw", HW),
    ):
        path = tmp_path / (stem + ".prob")
        path.write_text(text, encoding="utf-8")
        out[stem] = str(path)
    return out


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return rc, payload, captured.err


def test_classify_burch_not_wmf(files, capsys):
    rc, payload, _ = run(capsys, ["classify", files["e45"], "i", "--wrt", "m4"])
    assert rc == 0
    assert payload["ideal"] == "i"
    assert payload["is_burch"] is True
    assert payload["is_weakly_mfull"] is False
    assert payload["loewy_R_mod_I"] == 5
    assert payload["loewy_R_mod_mI"] == 6
    assert payload["wmf_wrt_named"] == {"m4": True}
    assert payload["open_pd_question"] is True


def test_classify_power_square_not_wmf(files, capsys):
    rc, payload, _ = run(capsys, ["classify", files["e42"], "m2"])
    assert rc == 0
    assert payload["is_weakly_mfull"] is False


def test_classify_power_range_override(files, capsys):
    rc, payload, _ = run(
        capsys, ["classify", files["e45"], "i", "--wrt-mpow-range", "4..5"]
    )
    assert rc == 0
    assert payload["wmf_wrt_mpow"] == {"4": True, "5": True}


def _box_file(tmp_path, e):
    path = tmp_path / "box.prob"
    text = "ring r = poly(x, y)\nideal i in r = [x^%d, y^%d, x*y]\n" % (e, e)
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_classify_errors_exit_2(files, capsys, tmp_path):
    rc, payload, err = run(capsys, ["classify", files["e45"], "one"])
    assert rc == 2 and payload is None and "error:" in err

    rc, _, err = run(capsys, ["classify", files["e45"], "ghost"])
    assert rc == 2 and "unknown ideal" in err

    rc, _, err = run(capsys, ["classify", str(tmp_path / "missing.prob"), "i"])
    assert rc == 2

    bad = tmp_path / "bad.prob"
    bad.write_text("ring r = poly()\n", encoding="utf-8")
    rc, _, err = run(capsys, ["classify", str(bad), "i"])
    assert rc == 2 and "line 1" in err

    rc, _, err = run(capsys, ["classify", files["e45"], "i", "--wrt-mpow-range", "5..4"])
    assert rc == 2 and "empty" in err

    # the staircase masks of (x^3000, y^3000, xy) would take about 6.4 GiB
    rc, _, err = run(capsys, ["classify", _box_file(tmp_path, 3000), "i"])
    assert rc == 2 and "staircase box too large" in err


def test_classify_answers_within_the_staircase_limit(tmp_path, capsys):
    # the staircase masks of (x^300, y^300, xy) hold 602 * 301^2 bits, under 2^26
    rc, payload, _ = run(capsys, ["classify", _box_file(tmp_path, 300), "i"])
    assert rc == 0
    assert payload["is_burch"] is True and payload["loewy_R_mod_I"] == 300


def test_tor_over_a_ring_in_600_variables(tmp_path, capsys):
    # the degree-1 piece of a ring in 600 variables, built for m, must not
    # take one stack frame per variable; R is free, so Tor_1 = Tor_2 = 0
    path = tmp_path / "wide.prob"
    names = ", ".join("x%d" % k for k in range(600))
    path.write_text(
        "ring r = poly(%s)\nideal i in r = [x0]\n"
        "module f in r = coker rows=1 cols=0 entries=[] shifts=[0]\n" % names,
        encoding="utf-8",
    )
    rc, payload, _ = run(capsys, ["tor", str(path), "f", "i"])
    assert rc == 0
    assert [(r["t"], r["total_dim"]) for r in payload["tor"]] == [(1, 0), (2, 0)]


def test_classify_over_a_ring_in_600_variables_exits_2(tmp_path, capsys):
    # m*I holds 1200 generators of degree 2, which minimalizing compares
    # with no other; the staircase box of its 600 variables is too large
    path = tmp_path / "wide.prob"
    names = ", ".join("x%d" % k for k in range(600))
    path.write_text("ring r = poly(%s)\nideal i in r = [x0, x1]\n" % names, encoding="utf-8")
    rc, payload, err = run(capsys, ["classify", str(path), "i"])
    assert rc == 2 and payload is None and "staircase box too large" in err


def test_tor_detects_nonfree_quotient(files, capsys):
    rc, payload, _ = run(capsys, ["tor", files["e41"], "RmodI", "l"])
    assert rc == 0
    t1, t2 = payload["tor"]
    assert t1["t"] == 1 and t1["total_dim"] == 0
    assert t2["t"] == 2 and t2["total_dim"] > 0
    assert t1["bound_certified"] is True


def test_tor_vanishes_on_free_modules(files, capsys):
    rc, payload, _ = run(capsys, ["tor", files["e41"], "F", "l", "--range", "1..3"])
    assert rc == 0
    assert [t["total_dim"] for t in payload["tor"]] == [0, 0, 0]
    assert all(t["bound_certified"] for t in payload["tor"])


def test_tor_on_the_socle_example(files, capsys):
    rc, payload, _ = run(capsys, ["tor", files["r27"], "RmodY", "ix"])
    assert rc == 0
    dims = [t["total_dim"] for t in payload["tor"]]
    assert dims[0] == 0 and dims[1] > 0


def test_tor_ring_mismatch_exits_2(files, capsys, tmp_path):
    mixed = tmp_path / "mixed.prob"
    mixed.write_text(E41 + "ring s = semigroup(3, 4)\nideal v in s = [3]\n")
    rc, _, err = run(capsys, ["tor", str(mixed), "RmodI", "v"])
    assert rc == 2 and "different rings" in err


def test_tor_same_ring_declared_twice_exits_2(capsys, tmp_path):
    # each declaration is its own ring, even when two are equal
    twice = tmp_path / "twice.prob"
    twice.write_text(
        "ring r = poly(x, y) mod [x^2, y^2]\n"
        "ring q = poly(x, y) mod [x^2, y^2]\n"
        "module M in r = coker rows=1 cols=1 entries=[(1, 1, x)] shifts=[0]\n"
        "ideal l in r = [y]\n"
        "ideal lq in q = [y]\n"
    )
    rc, payload, _ = run(capsys, ["tor", str(twice), "M", "l"])
    assert rc == 0 and payload["tor"]
    rc, _, err = run(capsys, ["tor", str(twice), "M", "lq"])
    assert rc == 2 and "different rings" in err


def test_wrt_in_same_ring_declared_twice_exits_2(capsys, tmp_path):
    # classify and hw compare --wrt rings as tor does: by declaration
    twice = tmp_path / "twice.prob"
    twice.write_text(
        "ring s = semigroup(4, 5, 6)\n"
        "ring t = semigroup(4, 5, 6)\n"
        "ideal i in s = [8, 9]\n"
        "ideal i2 in s = [4, 5]\n"
        "ideal j in t = [4, 5]\n"
    )
    for cmd in (["classify", str(twice), "i"], ["hw", str(twice), "i"]):
        rc, _, _ = run(capsys, cmd + ["--wrt", "i2"])
        assert rc == 0, cmd
        rc, _, err = run(capsys, cmd + ["--wrt", "j"])
        assert rc == 2 and "different rings" in err, cmd


def test_hw_maximal_ideal_has_torsion(files, capsys):
    rc, payload, _ = run(capsys, ["hw", files["hw"], "m"])
    assert rc == 0
    assert payload["has_torsion"] is True
    assert payload["certified"] is True
    assert payload["is_principal"] is False


def test_hw_principal_is_torsion_free(files, capsys):
    rc, payload, _ = run(capsys, ["hw", files["hw"], "p"])
    assert rc == 0
    assert payload["has_torsion"] is False
    assert payload["is_principal"] is True


def test_hw_cube_of_maximal_ideal(files, capsys):
    rc, payload, _ = run(capsys, ["hw", files["hw"], "m3"])
    assert rc == 0
    assert payload["has_torsion"] is True


def test_hw_with_hypothesis_ideal(files, capsys):
    rc, payload, _ = run(capsys, ["hw", files["e45"], "imj", "--wrt", "j45"])
    assert rc == 0
    assert payload["subset_mj"] is True
    assert payload["wmf_wrt_j"] is True
    assert payload["hypotheses_hold"] is True
    assert payload["has_torsion"] is True


def test_hw_rejects_monomial_rings(files, capsys):
    rc, _, err = run(capsys, ["hw", files["e41"], "i"])
    assert rc == 2 and "semigroup ring" in err


def test_tor_range_matches_separate_tor_dim_calls(tmp_path, capsys):
    # over k[x,y] the Koszul resolution of R/(x, y) ends at t = 2, inside
    # the range; every row must equal its own tor_dim call
    path = tmp_path / "koszul.prob"
    path.write_text(
        "ring r = poly(x, y)\n"
        "ideal m in r = [x, y]\n"
        "ideal l in r = [x^2, y]\n"
        "module K in r = coker rows=1 cols=2 entries=[(1, 1, x), (1, 2, y)] shifts=[0]\n",
        encoding="utf-8",
    )
    prob = load_problem(str(path))
    for ideal, span in (("m", "0..5"), ("l", "2..4")):
        rc, payload, _ = run(capsys, ["tor", str(path), "K", ideal, "--range", span])
        assert rc == 0
        lo, hi = (int(t) for t in span.split(".."))
        want = [
            tor_dim(prob.get_module("K"), prob.get_ideal(ideal), t)
            for t in range(lo, hi + 1)
        ]
        assert payload["tor"] == json.loads(json.dumps(cli._jsonable(want)))
    assert [row["total_dim"] for row in payload["tor"]] == [1, 0, 0]


def test_hw_report_is_the_same_over_every_field(files, tmp_path, capsys):
    rc, at_101, _ = run(capsys, ["hw", files["e45"], "imj", "--wrt", "j45"])
    assert rc == 0
    assert at_101["tor1_dim"] > 0
    path = tmp_path / "field.prob"
    for prime in (2, 101, 103, 2**61 - 1):
        path.write_text("field GF(%d)\n%s" % (prime, E45), encoding="utf-8")
        rc, payload, _ = run(capsys, ["hw", str(path), "imj", "--wrt", "j45"])
        assert rc == 0
        assert payload == at_101, prime


def test_bad_field_modulus_exits_2(tmp_path, capsys):
    # a composite, and the prime 2^89 - 1 above the Miller-Rabin bound
    path = tmp_path / "bad_field.prob"
    for modulus, why in ((4, "not prime"), (2**89 - 1, "too large")):
        path.write_text("field GF(%d)\n%s" % (modulus, E45), encoding="utf-8")
        rc, payload, err = run(capsys, ["hw", str(path), "imj"])
        assert rc == 2 and payload is None
        assert "line 1" in err and why in err


def test_paper_all_examples_pass(capsys):
    rc, payload, _ = run(capsys, ["paper", "--all"])
    assert rc == 0
    assert payload["pass"] is True
    assert set(payload["examples"]) == {"e4.1", "e4.2", "e4.3", "e4.4", "e4.5", "r2.7"}
    for table in payload["examples"].values():
        assert table["pass"] is True
        assert table["claims"]
        assert all(c["ok"] for c in table["claims"])


def test_paper_single_example(capsys):
    rc, payload, _ = run(capsys, ["paper", "--example", "e4.2"])
    assert rc == 0
    assert list(payload["examples"]) == ["e4.2"]


def test_paper_unknown_example_exits_2(capsys):
    rc, _, err = run(capsys, ["paper", "--example", "e9.9"])
    assert rc == 2 and "unknown example" in err


def test_paper_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_example", lambda name: [("claim text", False)])
    rc, payload, _ = run(capsys, ["paper", "--example", "e4.1"])
    assert rc == 1
    assert payload["pass"] is False


def test_fuzz_pass_and_defaults(capsys):
    rc, payload, _ = run(
        capsys, ["fuzz", "--suite", "remark23", "--trials", "30", "--seed", "11"]
    )
    assert rc == 0
    assert payload["suite"] == "remark23"
    assert payload["seed"] == 11
    assert payload["passed"] is True
    args = build_parser().parse_args(["fuzz", "--suite", "remark23"])
    assert args.seed == 2024
    assert args.trials == 200


def test_fuzz_zero_trials_is_vacuous_pass(capsys):
    rc, payload, _ = run(capsys, ["fuzz", "--suite", "thm25", "--trials", "0"])
    assert rc == 0
    assert payload["vacuous"] is True
    assert payload["passed"] is True


def test_fuzz_bad_inputs_exit_2(capsys):
    rc, _, err = run(capsys, ["fuzz", "--suite", "nosuch"])
    assert rc == 2 and "unknown suite" in err
    rc, _, err = run(capsys, ["fuzz", "--suite", "thm25", "--trials", "-1"])
    assert rc == 2


def test_fuzz_failure_exits_1_with_counterexample(capsys, monkeypatch):
    fake = SuiteReport(
        suite="thm25",
        seed=1,
        trials=1,
        effective=1,
        failures=1,
        passed=False,
        vacuous=False,
        counterexample={"family": "monomial", "gens": [[1, 1]]},
    )
    monkeypatch.setattr(cli, "run_suite", lambda name, cfg: fake)
    rc, payload, _ = run(capsys, ["fuzz", "--suite", "thm25"])
    assert rc == 1
    assert payload["counterexample"]["gens"] == [[1, 1]]


def test_output_is_stable_strict_json(files, capsys):
    rc1 = main(["classify", files["e45"], "i"])
    first = capsys.readouterr().out
    rc2 = main(["classify", files["e45"], "i"])
    second = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert first == second
    decoded = json.loads(first)
    assert "NaN" not in first and "Infinity" not in first
    # round-trip: dumping the decoded object reproduces the text
    assert json.dumps(decoded, sort_keys=True, indent=2) + "\n" == first


@pytest.fixture
def parser_builds(monkeypatch):
    """Calls to build_parser, starting from no cached parser."""
    builds = []

    def counting():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    return builds


def test_main_builds_its_parser_once(files, capsys, parser_builds):
    for argv in (
        ["classify", files["e45"], "i"],
        ["tor", files["e41"], "RmodI", "l"],
        ["hw", files["hw"], "m"],
        ["paper", "--example", "e4.2"],
        ["classify", files["e45"], "ghost"],
    ):
        main(argv)
    capsys.readouterr()
    assert len(parser_builds) == 1


def test_repeated_main_calls_are_stateless(files, capsys, parser_builds):
    argv = ["classify", files["e45"], "i", "--wrt-mpow-range", "0..5"]
    first = (main(argv), capsys.readouterr().out)
    with pytest.raises(SystemExit) as usage:
        main(["classify", files["e45"]])
    assert usage.value.code == 2
    assert "usage:" in capsys.readouterr().err
    rc, _, err = run(capsys, ["classify", files["e45"], "ghost"])
    assert rc == 2 and "unknown ideal" in err
    assert (main(argv), capsys.readouterr().out) == first
    assert first[0] == 0 and len(parser_builds) == 1


DEMO = """\
ring s = semigroup(4, 5, 6)
ideal i in s = [17, 19, 20]
ideal m4 in s = [16, 17, 18, 19]

ring r = poly(x, y) mod [x^3, x^2*y, x*y^2, y^3]
ideal l in r = [x^2]
module M in r = coker rows=1 cols=1 entries=[(1, 1, x*y)] shifts=[0]
"""

GF107 = """\
field GF(107)
ring s = semigroup(6, 7, 9, 11)
ideal i in s = [13, 14, 15, 16, 18]
ideal j in s = [7, 9, 12, 17]

ring r = poly(x, y, z) mod [x^3, y^3, z^2, x*y*z]
ideal l in r = [x^2*y, x*y^2, x*z]
module M in r = coker rows=1 cols=2 entries=[(1, 1, x*y), (1, 2, z)] shifts=[0]
"""

# exit code and stdout of each command, hashed in order; recorded
# before main() kept its parser and reports shared their colons
PINNED_CLI_SHA256 = "57efe02c74bef0cc2527350dd5f06bafd01864d44719f24decfc76a9f41c075c"


def _pinned_commands(files):
    for path, wrt in files:
        for ideal in ("i", "l"):
            yield ["classify", path, ideal]
            yield ["classify", path, ideal, "--wrt-mpow-range", "0..5"]
        yield ["classify", path, "i", "--wrt", wrt]
        yield ["tor", path, "M", "l", "--range", "1..3"]
        yield ["hw", path, "i"]
        yield ["hw", path, "i", "--wrt", wrt]
    yield ["paper", "--all"]


def test_cli_reports_are_pinned(tmp_path, capsys):
    files = []
    for stem, text, wrt in (("demo", DEMO, "m4"), ("gf107", GF107, "j")):
        path = tmp_path / (stem + ".prob")
        path.write_text(text, encoding="utf-8")
        files.append((str(path), wrt))
    h = hashlib.sha256()
    for argv in _pinned_commands(files):
        rc = main(argv)
        h.update(("%d\n%s" % (rc, capsys.readouterr().out)).encode())
    assert h.hexdigest() == PINNED_CLI_SHA256


def test_readme_demo_is_the_pinned_demo():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```text\n# demo.prob\n", 1)[1].split("```", 1)[0]
    assert block == DEMO


def _random_payload(rng, depth=0):
    kind = rng.randrange(12 if depth < 4 else 6)
    if kind == 0:
        return rng.choice((True, False, None))
    if kind == 1:
        return rng.randint(-(10**20), 10**20)
    if kind == 2:
        return rng.choice((0.5, -2.25, 1e300, float("inf"), float("-inf"), -0.0))
    if kind in (3, 4):
        return "".join(rng.choice('ab"\\\n\té∞⊗\U0001d504') for _ in range(rng.randint(0, 6)))
    if kind == 5:
        # one element type per set, so that the converted elements sort
        draw = rng.choice((lambda: rng.randint(0, 9), lambda: (rng.randint(0, 3), 1), lambda: rng.choice("xyé")))
        return frozenset(draw() for _ in range(rng.randint(0, 4)))
    if kind in (6, 7):
        items = [_random_payload(rng, depth + 1) for _ in range(rng.randint(0, 4))]
        return items if kind == 6 else tuple(items)
    keys = (
        lambda: rng.choice(("k", "é", "10", "2", "")),
        lambda: rng.randint(-3, 12),
        lambda: (rng.randint(0, 2), rng.randint(0, 2)),
    )
    return {rng.choice(keys)(): _random_payload(rng, depth + 1) for _ in range(rng.randint(0, 5))}


def _report_payloads(files):
    e45 = load_problem(files["e45"])
    e41 = load_problem(files["e41"])
    i, m4 = e45.get_ideal("i"), e45.get_ideal("m4")
    yield classification_report(i, named={"m4": m4})
    yield classification_report(e41.get_ideal("i"), powers=(0, 3))
    yield hw_report(e45.get_ideal("imj"), e45.get_ideal("j45"))
    yield hw_report(i)
    yield run_suite("thm25", FuzzConfig(seed=3, trials=20))
    yield tor_dims(e41.get_module("RmodI"), e41.get_ideal("l"), 0, 2)


def test_writer_matches_json_dumps(files):
    rng = random.Random(2411)
    payloads = [_random_payload(rng) for _ in range(400)]
    payloads += list(_report_payloads(files))
    payloads.append({"report": payloads[-2], ("a", 1): payloads[-3], 7: []})
    for obj in payloads:
        want = json.dumps(cli._jsonable(obj), sort_keys=True, indent=2, allow_nan=False)
        assert cli._dump(obj) == want
    for obj in (float("nan"), {"x": [1, float("nan")]}, {float("nan")}):
        with pytest.raises(ValueError):
            cli._dump(obj)
    with pytest.raises(TypeError):
        cli._dump({"x": object()})


def _nested_main(argv):
    """main() as it was before it parsed with the subcommand's own parser."""
    args = build_parser().parse_args(argv)
    try:
        with kernel_memo():
            return args.fn(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def _outcome(capsys, fn, argv):
    try:
        code = fn(argv)
    except SystemExit as stop:
        code = ("exit", stop.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_direct_subcommand_parse_matches_the_nested_parse(tmp_path, capsys):
    demo = tmp_path / "demo.prob"
    demo.write_text(DEMO, encoding="utf-8")
    demo = str(demo)
    cases = [
        ["classify", demo, "i"],
        ["classify", demo],
        ["classify", demo, "i", "extra", "more"],
        ["classify", demo, "i", "--bogus"],
        ["classify", demo, "i", "--wrt-m", "0..2"],
        ["classify", demo, "i", "--wrt", "m4", "--wrt-mpow-range", "0..2"],
        ["classify", "--", demo, "i"],
        ["classify", "-h"],
        ["-h"],
        [],
        ["nosuch", demo],
        ["tor", demo, "M", "l", "--range=1..3"],
        ["hw", demo, "i", "--wrt", "m4"],
        ["paper", "--example", "e4.2", "-x"],
        ["fuzz", "--suite", "thm25", "--trials", "x"],
        ["fuzz", "--suite", "thm25", "--trials", "5", "--seed", "-4"],
    ]
    for argv in cases:
        got = _outcome(capsys, main, list(argv))
        assert got == _outcome(capsys, _nested_main, list(argv)), argv
