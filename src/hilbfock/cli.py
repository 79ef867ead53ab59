"""Command line interface for the operator calculus engine.

Subcommands:

* ``verify``     -- run one of the named verification suites
* ``segre``      -- a top Segre number, numeric or as a universal polynomial
* ``dm``         -- log-series coefficients d_m, checked against known values
* ``conjecture`` -- compare computed numbers with the closed-form series
* ``chern``      -- total Chern class of a tautological bundle

Exit codes: 0 success / verification passed, 1 verification failed,
2 usage error, 3 degenerate intersection form.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import List, Optional

from . import ENGINE_VERSION
from .fock import render_monomial, render_vector
from .linear import q_str
from .operators import OperatorEngine
from .segre import (
    KNOWN_DM,
    Sampler,
    check_conjecture,
    dm_coefficients,
    fit_dm_linear,
    segre_polynomial,
    segre_series,
)
from .surface import (
    CohClass,
    DegeneratePairing,
    KClassSpec,
    new_model,
    parse_class,
    render_class,
)
from .verify import SUITES, UnknownSuite, run_suite

Q = Fraction

#: Refuse computations beyond this weight n (the number of points of the
#: Hilbert scheme), which the ``--max-weight`` guard compares against.
DEFAULT_MAX_WEIGHT = 12


class UsageError(ValueError):
    pass


def _rat_arg(text: str) -> Q:
    try:
        return Q(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("not a rational: %r" % text)


def _jobs_arg(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % n)
    return n


def _emit(command: str, parameters: dict, result, ok: bool = True) -> None:
    doc = {
        "engine_version": ENGINE_VERSION,
        "command": command,
        "parameters": parameters,
        "ok": ok,
        "result": result,
    }
    print(json.dumps(doc, indent=2, default=str))


_BUNDLE_RE = re.compile(r"^(-?)L\(c1=([^)]*)\)$")
_BUNDLE_K_RE = re.compile(r"^(-?)K\(rank=(-?\d+),c1=([^,)]*),c2=([+-]?\d+(?:/\d+)?)\)$")
# a space between two characters of a numeral, which deleting it would join
_NUMERAL_GAP_RE = re.compile(r"[\d/]\s+[\d/]")


def parse_bundle(text: str, model) -> KClassSpec:
    """Parse a K-class literal such as ``L(c1=h)`` or ``-L(c1=2h-k)``.

    On the command line a negated literal must be joined to its option,
    ``--bundle=-L(c1=2h-k)``: argparse reads a separate value that starts
    with ``-`` as an option.  Spaces are ignored, except inside a numeral:
    ``L(c1=1 0h)`` is malformed.
    """
    if _NUMERAL_GAP_RE.search(text):
        raise UsageError("space inside a numeral in bundle literal: %r" % text)
    text = text.strip().replace(" ", "")
    m = _BUNDLE_RE.match(text)
    if m:
        u = KClassSpec.line_bundle(parse_class(m.group(2), model))
        return u.negate(model) if m.group(1) else u
    m = _BUNDLE_K_RE.match(text)
    if m:
        c1 = parse_class(m.group(3), model)
        try:
            c2 = CohClass({"pt": Q(m.group(4))})
        except ZeroDivisionError:
            raise UsageError("zero denominator in bundle literal: %r" % text) from None
        u = KClassSpec(int(m.group(2)), c1, c2)
        return u.negate(model) if m.group(1) else u
    raise UsageError("malformed bundle literal: %r" % text)


def _model_params(args, **first) -> dict:
    """The JSON parameters ``first`` followed by the model options of ``args``."""
    return dict(
        first,
        d=q_str(args.d),
        pi=q_str(args.pi),
        kappa=q_str(args.kappa),
        b2_extra=args.b2_extra,
    )


def _check_weight(n: int, max_weight: int, least: int = 0) -> None:
    if n < least:
        raise UsageError("weight %d is below the least allowed (%d)" % (n, least))
    if n > max_weight:
        raise UsageError(
            "weight %d exceeds the --max-weight guard (%d)" % (n, max_weight)
        )


def _model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=_rat_arg, default=Q(1))
    p.add_argument("--pi", type=_rat_arg, default=Q(0))
    p.add_argument("--kappa", type=_rat_arg, default=Q(-1))
    p.add_argument("--b2-extra", type=int, default=0)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hilbfock",
        description="Exact operator calculus on cohomology of Hilbert schemes",
    )
    top.add_argument(
        "--max-weight",
        type=int,
        default=DEFAULT_MAX_WEIGHT,
        help="refuse computations beyond this total weight",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", help="one of: %s" % ", ".join(SUITES))
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("segre", help="top Segre numbers")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--symbolic", action="store_true")
    _model_args(p)
    p.add_argument("--jobs", type=_jobs_arg, default=1)
    p.add_argument("--cache", default=None, help="sample cache file (JSONL)")
    p.set_defaults(func=_cmd_segre)

    p = sub.add_parser("dm", help="log-series coefficients")
    p.add_argument("--max-m", type=int, default=5)
    p.add_argument("--jobs", type=_jobs_arg, default=1)
    p.add_argument("--cache", default=None)
    p.set_defaults(func=_cmd_dm)

    p = sub.add_parser("conjecture", help="compare with the closed form")
    p.add_argument("--n-max", type=int, default=4)
    _model_args(p)
    p.add_argument("--cache", default=None)
    p.set_defaults(func=_cmd_conjecture)

    p = sub.add_parser("chern", help="tautological total Chern class")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--bundle",
        required=True,
        help='e.g. "L(c1=h)"; join a negated literal: --bundle=-L(c1=2h-k)',
    )
    p.add_argument("--character", action="store_true")
    _model_args(p)
    p.set_defaults(func=_cmd_chern)
    return top


def _cmd_verify(args) -> int:
    if args.max_n is not None:
        _check_weight(args.max_n, args.max_weight, least=1)
    report = run_suite(args.suite, max_n=args.max_n, seed=args.seed)
    _emit(
        "verify",
        {"suite": args.suite, "max_n": args.max_n, "seed": args.seed},
        report,
        ok=report["pass"],
    )
    return 0 if report["pass"] else 1


def _cmd_segre(args) -> int:
    _check_weight(args.n, args.max_weight)
    if args.symbolic:
        sampler = Sampler(args.cache)
        poly = segre_polynomial(args.n, sampler, jobs=args.jobs)
        result = {"n": args.n, "polynomial": poly.render(), "terms": poly.json_map()}
        _emit("segre", {"n": args.n, "symbolic": True}, result)
        return 0
    model = new_model(args.d, args.pi, args.kappa, args.b2_extra)
    value = segre_series(args.n, model)[args.n]
    result = {"n": args.n, "value": q_str(value)}
    _emit("segre", _model_params(args, n=args.n), result)
    return 0


def _cmd_dm(args) -> int:
    _check_weight(args.max_m, args.max_weight)
    sampler = Sampler(args.cache)
    symbolic_up_to = min(args.max_m, 5)
    polys = [segre_polynomial(n, sampler, jobs=args.jobs) for n in range(symbolic_up_to + 1)]
    dms = fitted = dm_coefficients(polys)
    if args.max_m > symbolic_up_to:
        # the fit gives d_1..d_5 a second time, which must agree
        fitted = fit_dm_linear(args.max_m, sampler, jobs=args.jobs)
        dms = dms + fitted[symbolic_up_to + 1:]
    rows = []
    all_match = True
    for m in range(1, args.max_m + 1):
        known = KNOWN_DM.get(m)
        match = dms[m] == fitted[m] and (known is None or dms[m] == known)
        all_match = all_match and match
        rows.append(
            {
                "m": m,
                "d_m": dms[m].render(),
                "known": known.render() if known is not None else None,
                "match": match,
            }
        )
    _emit("dm", {"max_m": args.max_m}, rows, ok=all_match)
    return 0 if all_match else 1


def _cmd_conjecture(args) -> int:
    _check_weight(args.n_max, args.max_weight)
    sampler = Sampler(args.cache)
    params = (args.d, args.pi, args.kappa, args.b2_extra)
    rows = check_conjecture(args.n_max, params, sampler)
    ok = all(r["match"] for r in rows)
    _emit("conjecture", _model_params(args, n_max=args.n_max), rows, ok=ok)
    return 0 if ok else 1


def _render_chern(v, n: int) -> str:
    terms = v.terms
    if not terms:
        return "0"
    # group weight-1 results into a single class argument
    if all(len(M) == 1 and M[0][0] == n for M in terms):
        cls = CohClass({M[0][1]: c for M, c in terms.items()})
        return "q%d[%s]" % (n, render_class(cls))
    return render_vector(v)


def _cmd_chern(args) -> int:
    _check_weight(args.n, args.max_weight)
    model = new_model(args.d, args.pi, args.kappa, args.b2_extra)
    u = parse_bundle(args.bundle, model)
    engine = OperatorEngine(model)
    if args.character:
        v = engine.chern_char_class(u, args.n)
    else:
        v = engine.total_chern_classes(u, args.n)[args.n]
    result = {
        "n": args.n,
        "bundle": args.bundle,
        "class": _render_chern(v, args.n),
        "terms": {
            render_monomial(M): q_str(c)
            for M, c in sorted(v.terms.items())
        },
    }
    _emit("chern", {"n": args.n, "bundle": args.bundle}, result)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except DegeneratePairing as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (UsageError, UnknownSuite, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
