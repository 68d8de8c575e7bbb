"""Built-in worked examples all hold, and the lookup API behaves."""

import time

import pytest

from burchkit.fixtures import EXAMPLES, run_example


def _all_tables():
    return {name: run_example(name) for name in EXAMPLES}


def test_example_names():
    assert set(EXAMPLES) == {"e4.1", "e4.2", "e4.3", "e4.4", "e4.5", "r2.7"}


def test_every_claim_holds():
    for name, claims in _all_tables().items():
        assert claims, name
        for claim, ok in claims:
            assert ok, "%s: %s" % (name, claim)


def test_single_example_matches_run_all():
    assert run_example("e4.2") == _all_tables()["e4.2"]


def test_unknown_example_rejected():
    with pytest.raises(ValueError):
        run_example("e9.9")


def test_examples_are_fast():
    start = time.time()
    _all_tables()
    assert time.time() - start < 10.0


def test_paper_forms_each_product_and_colon_once(monkeypatch, capsys):
    # one ColonTable per example ideal; asking each claim of a public
    # predicate on its own formed 21 products on 11 distinct operand
    # pairs and 32 colons on 18
    from burchkit import cli
    from burchkit.rings import QIdeal, SgIdeal

    products, colons = [], []
    for cls in (QIdeal, SgIdeal):
        mul, colon = cls.__mul__, cls.colon
        monkeypatch.setattr(cls, "__mul__", lambda a, b, f=mul: products.append((a, b)) or f(a, b))
        monkeypatch.setattr(cls, "colon", lambda a, b, f=colon: colons.append((a, b)) or f(a, b))
    assert cli.main(["paper", "--all"]) == 0
    capsys.readouterr()
    assert (len(products), len(set(products))) == (7, 7)
    assert (len(colons), len(set(colons))) == (18, 18)
