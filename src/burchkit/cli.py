"""Command-line front end: classify, tor, hw, paper, fuzz.

JSON goes to stdout, diagnostics to stderr.  Exit codes: 0 success or
property pass, 1 property failure (counterexample in the JSON report;
for `fuzz` this includes a check that raised), 2 usage, parse, or
resolution error.

Output contract: every report is strict JSON (infinity is the string
"infinity", NaN is refused) with sorted keys and a two-space indent, and
the same question gives the same bytes in every call; it is the text of
json.dumps(_jsonable(payload), sort_keys=True, indent=2, allow_nan=False).
`_dump` writes that text by hand, applying `_jsonable`'s conversions as
it goes: with an indent, json.dumps falls back to its pure-Python
encoder, and with `_jsonable` before it each payload is walked twice,
about a tenth of a short call.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import re
import sys

from .classify import classification_report
from .fixtures import EXAMPLES, run_example
from .fuzz import FuzzConfig, run_suite
from .homalg import kernel_memo, tor_dims
from .hw import hw_report
from .problemfile import load_problem

_DEFAULT_SEED = FuzzConfig().seed
_DEFAULT_TRIALS = FuzzConfig().trials

# built by the first main() call and reused by every later one
_parser = None


def _jsonable(obj):
    """Strict-JSON view: inf -> \"infinity\", sets sorted, tuples as lists."""
    if isinstance(obj, float):
        return "infinity" if math.isinf(obj) else obj
    if isinstance(obj, (set, frozenset)):
        return sorted(_jsonable(x) for x in obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(_fields(obj))
    return obj


def _fields(obj):
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


_encode_str = json.encoder.encode_basestring_ascii


def _dump(obj, pad=""):
    """json.dumps(_jsonable(obj), sort_keys=True, indent=2,
    allow_nan=False), written in one pass; pad is the indent of the
    line obj starts on."""
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if math.isinf(obj):
            return '"infinity"'
        if obj != obj:
            raise ValueError("Out of range float values are not JSON compliant: nan")
        return float.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, (set, frozenset)):
        obj = _jsonable(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [_dump(x, inner) for x in obj]
        return "[\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "]"
    if isinstance(obj, dict):
        obj = {str(k): v for k, v in obj.items()}
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = _fields(obj)
    else:
        raise TypeError("Object of type %s is not JSON serializable" % type(obj).__name__)
    if not obj:
        return "{}"
    parts = [_encode_str(k) + ": " + _dump(obj[k], inner) for k in sorted(obj)]
    return "{\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "}"


def _emit(payload):
    print(_dump(payload))


def _parse_span(text, what):
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if m is None:
        raise ValueError("bad %s: %r (expected a..b)" % (what, text))
    a, b = int(m.group(1)), int(m.group(2))
    if a > b:
        raise ValueError("empty %s: %r" % (what, text))
    return a, b


def _check_one_ring(first, second, what):
    # by identity: each ring declaration is its own ring, even when two are equal
    if first is not second:
        raise ValueError("%s live in different rings" % what)


def _wrt_ideal(prob, ideal, name):
    """The --wrt ideal, checked to lie in the ring of ideal; None without --wrt."""
    if not name:
        return None
    wrt = prob.get_ideal(name)
    _check_one_ring(ideal.ring, wrt.ring, "ideal and --wrt ideal")
    return wrt


def _cmd_classify(args):
    prob = load_problem(args.file)
    ideal = prob.get_ideal(args.ideal)
    wrt = _wrt_ideal(prob, ideal, args.wrt)
    powers = None
    if args.wrt_mpow_range:
        powers = _parse_span(args.wrt_mpow_range, "power range")
    named = {} if wrt is None else {args.wrt: wrt}
    report = classification_report(ideal, named=named, powers=powers)
    _emit({**_fields(report), "ideal": args.ideal})
    return 0


def _cmd_tor(args):
    prob = load_problem(args.file)
    pres = prob.get_module(args.module)
    ideal = prob.get_ideal(args.ideal)
    _check_one_ring(pres.algebra.ring, ideal.ring, "module and ideal")
    t0, t1 = _parse_span(args.range, "range")
    results = tor_dims(pres, ideal, t0, t1)
    _emit({"module": args.module, "ideal": args.ideal, "tor": results})
    return 0


def _cmd_hw(args):
    prob = load_problem(args.file)
    ideal = prob.get_ideal(args.ideal)
    report = hw_report(ideal, _wrt_ideal(prob, ideal, args.wrt))
    _emit({**_fields(report), "ideal": args.ideal})
    return 0


def _cmd_paper(args):
    names = [args.example] if args.example else sorted(EXAMPLES)
    tables = {name: run_example(name) for name in names}
    payload = {"examples": {}, "pass": True}
    for name, claims in tables.items():
        ok_all = all(ok for _, ok in claims)
        payload["examples"][name] = {
            "claims": [{"claim": c, "ok": ok} for c, ok in claims],
            "pass": ok_all,
        }
        payload["pass"] = payload["pass"] and ok_all
    _emit(payload)
    return 0 if payload["pass"] else 1


def _cmd_fuzz(args):
    report = run_suite(args.suite, FuzzConfig(seed=args.seed, trials=args.trials))
    _emit(report)
    return 0 if report.passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="burchkit",
        description="Exact Burch / weakly m-full ideal classification toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="full predicate report for one ideal")
    p.add_argument("file", help="problem file path")
    p.add_argument("ideal", help="declared ideal name")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--wrt", metavar="NAME", help="also test weak fullness with respect to this ideal")
    group.add_argument(
        "--wrt-mpow-range",
        metavar="A..B",
        help="replace the maximal-ideal-power table with powers A..B",
    )
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("tor", help="Tor dimensions of a module against R/I")
    p.add_argument("file")
    p.add_argument("module")
    p.add_argument("ideal")
    p.add_argument("--range", default="1..2", metavar="T0..T1", help="homological degrees (default 1..2)")
    p.set_defaults(fn=_cmd_tor)

    p = sub.add_parser("hw", help="torsion in I tensor Hom(I,R) over a semigroup ring")
    p.add_argument("file")
    p.add_argument("ideal")
    p.add_argument("--wrt", metavar="NAME", help="hypothesis ideal J for the report")
    p.set_defaults(fn=_cmd_hw)

    p = sub.add_parser("paper", help="run the built-in worked examples")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", help="run every example (default)")
    group.add_argument("--example", metavar="NAME", help="run one example, e.g. e4.5")
    p.set_defaults(fn=_cmd_paper)

    p = sub.add_parser("fuzz", help="run one falsification suite")
    p.add_argument("--suite", required=True, metavar="NAME")
    p.add_argument("--trials", type=int, default=_DEFAULT_TRIALS, metavar="N")
    p.add_argument("--seed", type=int, default=_DEFAULT_SEED, metavar="S")
    p.set_defaults(fn=_cmd_fuzz)

    # command name -> its subparser, for main() to parse with directly
    parser.commands = sub.choices
    return parser


def main(argv=None):
    """Run one command; may be called repeatedly in one process.

    The parser is built once and holds no state between calls, and
    each command runs in its own kernel_memo scope.  A bad file, name,
    range or suite is reported on stderr with exit code 2.  When argv
    starts with a command name, that command's parser reads the rest,
    as the full parser would hand it on, at half the cost.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command = _parser.commands.get(argv[0]) if argv else None
    if command is None:
        args = _parser.parse_args(argv)
    else:
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            _parser.error("unrecognized arguments: %s" % " ".join(extras))
    try:
        with kernel_memo():
            return args.fn(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
