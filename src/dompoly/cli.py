"""Command-line front end.

One verb per library operation chain, JSON on stdout by default
(`--format table` for a human-readable rendering), diagnostics on stderr.
Exit codes: 0 all requested checks pass, 1 a verification failed, 2 usage
error, 3 input error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
from pathlib import Path

from . import cycles, graphs, verify
from .errors import (
    Graph6FormatError,
    Graph6ParseError,
    Graph6RangeError,
    ParameterDomainError,
    SizeGuardError,
    ValuationError,
)
from .graphs import Graph, iter_graph6_records, parse_family_spec, parse_graph6, split_family_spec
from .oracle import DEFAULT_GUARD, _check_guard, domination_number, domination_polynomial

_INPUT_ERRORS = (
    ParameterDomainError,
    SizeGuardError,
    Graph6ParseError,
    Graph6FormatError,
    Graph6RangeError,
    ValuationError,
    OSError,
)

def _add_common_options(parser, for_subparser: bool):
    # On subparsers the defaults are SUPPRESS so a flag given after the
    # verb overrides the top-level value instead of being reset.
    suppress = argparse.SUPPRESS
    parser.add_argument(
        "--format", choices=("json", "table"),
        default=suppress if for_subparser else "json",
        help="output format (default json)",
    )
    parser.add_argument(
        "--guard-override", type=int, metavar="N",
        default=suppress if for_subparser else None,
        help="raise the enumeration and corpus size guards to order N",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dompoly",
        description="Exact domination polynomials and desk-scale uniqueness checks.",
    )
    _add_common_options(parser, for_subparser=False)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_verb(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        _add_common_options(p, for_subparser=True)
        p.set_defaults(func=func)
        return p

    def add_graph_input(p):
        grp = p.add_mutually_exclusive_group(required=True)
        grp.add_argument("--family", metavar="NAME:PARAMS",
                         help="builtin family, e.g. cycle:7 or complete-cycle-join:2,5")
        grp.add_argument("--graph6", metavar="FILE",
                         help="graph6 file, one record per line")

    p = add_verb(
        "poly", _run_poly,
        help="domination polynomial of a graph (brute force; the cycle "
             "family uses its recurrence, so any order works)",
    )
    add_graph_input(p)

    p = add_verb("cycle", _run_cycle, help="cycle polynomial D(C_n,x) via the recurrence")
    p.add_argument("n", type=int)

    p = add_verb("eval", _run_eval, help="evaluate D (or a derivative) at an integer")
    add_graph_input(p)
    p.add_argument("--at", type=int, required=True, metavar="T")
    p.add_argument("--derivative", type=int, default=0, metavar="K",
                   help="evaluate the K-th formal derivative (default 0)")

    p = add_verb("gamma", _run_gamma, help="domination number by short-circuit enumeration")
    add_graph_input(p)

    p = add_verb("verify", _run_verify, help="run a verification check (or 'all')")
    p.add_argument("lemma", choices=[*verify.CHECKS, "all"])
    p.add_argument("--max-n", type=int, default=None, metavar="N")
    p.add_argument("--min-part", type=int, choices=(1, 3), default=None,
                   help="cycle-partition check only: smallest cycle part (default 3)")
    p.add_argument("--n", type=int, default=None,
                   help="graph order for corpus-backed checks")
    p.add_argument("--corpus", metavar="FILE",
                   help="graph6 corpus for COR-wheel / P-path-class")
    p.add_argument("--corpus-dir", metavar="DIR",
                   help="directory of order<k>.g6 files; enables corpus checks under 'all'")

    p = add_verb("search-partitions", _run_search_partitions,
                 help="list cycle partitions of n and which match D(C_n,x)")
    p.add_argument("n", type=int)
    p.add_argument("--min-part", type=int, choices=(1, 3), default=3)

    p = add_verb("classify", _run_classify, help="group a graph6 corpus by domination polynomial")
    p.add_argument("corpus", metavar="FILE")

    # The corpus verbs are `verify COR-wheel|P-path-class --n N --corpus FILE`
    # under another name.
    for verb, lemma, help_text in (
        ("path-class", "P-path-class", "check the size-two class of P_n over a corpus"),
        ("wheel", "COR-wheel", "check that W_n's class is a singleton over a corpus"),
    ):
        p = add_verb(verb, _run_verify, help=help_text)
        p.set_defaults(lemma=lemma, max_n=None, min_part=None, corpus_dir=None)
        p.add_argument("n", type=int)
        p.add_argument("corpus", metavar="FILE")

    return parser


# ---------------------------------------------------------------------------
# Graph input plumbing
# ---------------------------------------------------------------------------

def _read_corpus(path: str | Path) -> list[bytes]:
    return list(iter_graph6_records(Path(path).read_bytes().splitlines()))


def _read_corpus_dir(dir_str: str) -> dict[int, list[bytes]]:
    """The order<k>.g6 files of a directory, keyed by k. A directory that
    gives no corpus check an order to run on is an input error."""
    if not Path(dir_str).is_dir():
        raise ParameterDomainError(f"--corpus-dir {dir_str} is not a directory")
    corpora = {}
    for f in sorted(Path(dir_str).glob("order*.g6")):
        try:
            order = int(f.stem.removeprefix("order"))
        except ValueError:
            raise ParameterDomainError(
                f"corpus file {f} is not named order<k>.g6 with an integer k"
            ) from None
        corpora[order] = _read_corpus(f)
    if not any(c.covers(k) for c in verify.CHECKS.values() if c.default_n is None
               for k in corpora):
        raise ParameterDomainError(
            f"--corpus-dir {dir_str} holds no order<k>.g6 file of an order a corpus check covers"
        )
    return corpora


def _input_graphs(args) -> list[tuple[str, Graph]]:
    """Resolve --family / --graph6 into labeled graphs."""
    if args.family:
        # A family's order is the sum of its parameters, so an oversized one is
        # refused before it is built; a spec the builder rejects (unknown name,
        # wrong parameter count, a parameter below 1) gets the builder's message.
        name, params = split_family_spec(args.family)
        if len(params) == graphs.FAMILY_NAMES.get(name, (None, None))[1] and min(params) >= 1:
            _check_guard(sum(params), _guard(args))
        return [(args.family, parse_family_spec(args.family))]
    records = _read_corpus(args.graph6)
    out = []
    for i, rec in enumerate(records):
        out.append((f"{args.graph6}#{i}", parse_graph6(rec)))
    return out


def _cycle_order(args) -> int | None:
    """Order n when the input is the cycle family (recurrence applies)."""
    match split_family_spec(args.family) if args.family else None:
        case ("cycle", (n,)):
            return n
    return None


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------

def _guard(args) -> int:
    return DEFAULT_GUARD if args.guard_override is None else args.guard_override


def _corpus_guard(args) -> int:
    if args.guard_override is None:
        return verify.DEFAULT_CORPUS_GUARD
    return args.guard_override


def _reject_guard(args, what: str):
    """--guard-override where nothing enumerates subsets is an input error, not a no-op."""
    if args.guard_override is not None:
        raise ParameterDomainError(f"{what} does not take --guard-override")


def _run_poly(args):
    n_cycle = _cycle_order(args)
    if n_cycle is not None:
        _reject_guard(args, f"poly --family {args.family}")
        poly = cycles.cycle_polynomial(n_cycle)
        results = [{"source": args.family, "order": n_cycle,
                    "coefficients": poly.coefficient_strings()}]
    else:
        results = []
        for label, g in _input_graphs(args):
            poly = domination_polynomial(g, guard=_guard(args))
            results.append({"source": label, "order": g.n,
                            "coefficients": poly.coefficient_strings()})
    return {"results": results}, True


def _run_cycle(args):
    _reject_guard(args, "cycle")
    poly = cycles.cycle_polynomial(args.n)
    return {"n": args.n, "coefficients": poly.coefficient_strings()}, True


def _run_eval(args):
    k = args.derivative
    if k < 0:
        raise ParameterDomainError(f"--derivative must be >= 0, got {k}")
    n_cycle = _cycle_order(args)
    if n_cycle is not None:
        _reject_guard(args, f"eval --family {args.family}")
        # The jet stops at D^(n): every higher derivative of D(C_n) is 0.
        jet = cycles.cycle_jet(n_cycle, args.at, k)
        values = [(args.family, jet[k] if k < len(jet) else 0)]
    else:
        values = []
        for label, g in _input_graphs(args):
            poly = domination_polynomial(g, guard=_guard(args))
            for _ in range(k):
                poly = poly.derivative()
            values.append((label, poly.eval_at(args.at)))
    results = [
        {"source": label, "point": str(args.at), "derivative": k, "value": str(value)}
        for label, value in values
    ]
    return {"results": results}, True


def _run_gamma(args):
    results = []
    for label, g in _input_graphs(args):
        results.append({
            "source": label, "order": g.n,
            "gamma": domination_number(g, guard=_guard(args)),
        })
    return {"results": results}, True


def _reject_ignored_verify_flags(args):
    """A flag the chosen check would ignore is an input error, not a no-op."""
    check = verify.CHECKS.get(args.lemma)
    if check is None:
        kind, options = "all", {}
    else:
        kind = "range" if check.default_n is not None else "corpus"
        options = inspect.signature(check.run).parameters
    # A corpus check reads the corpus guard; a range check reads the
    # options its runner declares.
    taken_by = (
        ("--guard-override", args.guard_override, kind == "corpus" or "guard" in options),
        ("--max-n", args.max_n, kind == "range"),
        ("--min-part", args.min_part, "min_part" in options),
        ("--n", args.n, kind == "corpus"),
        ("--corpus", args.corpus, kind == "corpus"),
        ("--corpus-dir", args.corpus_dir, kind == "all"),
    )
    for flag, value, taken in taken_by:
        if value is not None and not taken:
            raise ParameterDomainError(f"verify {args.lemma} does not take {flag}")


def _run_verify(args):
    def need(flag, value):
        if value is None:
            raise ParameterDomainError(
                f"verify {args.lemma} requires {flag}"
            )
        return value

    _reject_ignored_verify_flags(args)
    if args.lemma == "all":
        corpora = _read_corpus_dir(args.corpus_dir) if args.corpus_dir else None
        reports = verify.run_all(corpora=corpora)
        ok = all(r.passed for r in reports)
        return {"reports": [r.to_json_dict() for r in reports]}, ok

    check = verify.CHECKS[args.lemma]
    if check.default_n is None:
        records = _read_corpus(need("--corpus", args.corpus))
        n = need("--n", args.n)
        rep = check.run(n, verify.classify_corpus(records, corpus_guard=_corpus_guard(args)))
    else:
        max_n = check.default_n if args.max_n is None else args.max_n
        if max_n < check.min_n:
            raise ParameterDomainError(
                f"verify {args.lemma} covers n >= {check.min_n}; --max-n {max_n} "
                f"leaves nothing to check"
            )
        given = {"guard": args.guard_override, "min_part": args.min_part}
        rep = check.run(max_n, **{k: v for k, v in given.items() if v is not None})
    return rep.to_json_dict(), rep.passed


def _run_search_partitions(args):
    _reject_guard(args, "search-partitions")
    rows = [
        {"parts": list(parts), "matches": bool(outcome)}
        for parts, outcome in verify.match_partitions(args.n, args.min_part)
    ]
    payload = {
        "n": args.n,
        "min_part": args.min_part,
        "partitions": rows,
        "match_count": sum(row["matches"] for row in rows),
    }
    return payload, True


def _run_classify(args):
    records = _read_corpus(args.corpus)
    result = verify.classify_corpus(records, corpus_guard=_corpus_guard(args))
    return result.to_json_dict(), True


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _render_table(verb: str, payload: dict) -> str:
    lines = []
    if verb == "verify" and "reports" in payload:
        reports = payload["reports"]
    elif verb in ("verify", "path-class", "wheel"):
        reports = [payload]
    else:
        reports = None
    if reports is not None:
        lines.append(f"{'check':<14} {'range':<12} {'status':<12} {'cex':>4}  claim")
        for r in reports:
            rng = f"{r['range'][0]}..{r['range'][1]}"
            claim = verify.CHECKS[r["lemma_id"]].claim
            lines.append(
                f"{r['lemma_id']:<14} {rng:<12} {r['status']:<12} "
                f"{len(r['counterexamples']):>4}  {claim}"
            )
        return "\n".join(lines)
    if verb == "classify":
        lines.append(f"{'size':>6}  {'degree':>6}  members")
        for c in payload["classes"]:
            members = " ".join(c["members"][:4])
            if c["class_size"] > 4:
                members += " ..."
            degree = len(c["key_polynomial"]) - 1
            lines.append(f"{c['class_size']:>6}  {degree:>6}  {members}")
        if payload["parse_errors"]:
            lines.append(f"parse errors: {len(payload['parse_errors'])}")
        return "\n".join(lines)
    if verb == "search-partitions":
        for row in payload["partitions"]:
            mark = "=" if row["matches"] else " "
            lines.append(f"{mark} {'+'.join(str(p) for p in row['parts'])}")
        lines.append(f"{payload['match_count']} of {len(payload['partitions'])} match")
        return "\n".join(lines)
    # generic key/value fallback
    return json.dumps(payload, indent=2, sort_keys=True)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        payload, ok = args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"dompoly: {exc}", file=sys.stderr)
        return 3

    try:
        if args.format == "table":
            print(_render_table(args.verb, payload))
        else:
            print(json.dumps(payload, indent=2, sort_keys=True))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (`... | head`). As in Python's documented
        # recipe, point stdout at devnull so the interpreter's final flush
        # does not raise again, and report the run's own outcome.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
