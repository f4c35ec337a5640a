"""Command-line front end.

One verb per library operation chain, JSON on stdout by default
(`--format table` for a human-readable rendering), diagnostics on stderr.
Exit codes: 0 all requested checks pass, 1 a verification failed, 2 usage
error, 3 input error (an `errors.InputError`, or an OSError reading a file).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import cycles, graphs
from .errors import InputError, ParameterDomainError, SizeGuardError
from .graphs import iter_graph6_records, parse_graph6, split_family_spec
from .oracle import DEFAULT_GUARD, _check_guard, domination_number, domination_polynomial


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


class _VerbParser(argparse.ArgumentParser):
    """A verb's parser. The `verify` verb's `lemma` argument is added at its
    parser's first parse, not as the parser is built: argparse reads an
    argument's choices as the argument is added, and those choices are the
    ids of `verify.CHECKS`, a module most verbs never import."""

    add_lemma = False

    def parse_known_args(self, args=None, namespace=None):
        if self.add_lemma:
            from . import verify

            self.add_argument("lemma", choices=[*verify.CHECKS, "all"])
            self.add_lemma = False
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dompoly",
        description="Exact domination polynomials and desk-scale uniqueness checks.",
    )
    _add_common_options(parser, for_subparser=False)
    sub = parser.add_subparsers(dest="verb", required=True, parser_class=_VerbParser)

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
             "family uses its recurrence, up to order 4000)",
    )
    add_graph_input(p)

    p = add_verb("cycle", _run_cycle, help="cycle polynomial D(C_n,x) by recurrence, n <= 4000")
    p.add_argument("n", type=int)

    p = add_verb("eval", _run_eval, help="evaluate D (or a derivative) at an integer")
    add_graph_input(p)
    p.add_argument("--at", type=int, required=True, metavar="T")
    p.add_argument("--derivative", type=int, default=0, metavar="K",
                   help="evaluate the K-th formal derivative (default 0)")

    p = add_verb("gamma", _run_gamma,
                 help="domination number: lowest index of the oracle's profile")
    add_graph_input(p)

    p = add_verb("verify", _run_verify, help="run a verification check (or 'all')")
    p.add_lemma = True
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
    """The order<k>.g6 files of a directory, keyed by k. A name whose k is
    not ASCII digits, two files of one order (order6.g6 and order06.g6), or
    a directory that gives no corpus check an order to run on, is an input
    error, refused before any file is read."""
    from . import verify

    if not Path(dir_str).is_dir():
        raise ParameterDomainError(f"--corpus-dir {dir_str} is not a directory")
    files = {}
    for f in sorted(Path(dir_str).glob("order*.g6")):
        digits = f.stem.removeprefix("order")
        if not (digits.isascii() and digits.isdigit()):
            raise ParameterDomainError(
                f"corpus file {f} is not named order<k>.g6 with an integer k"
            )
        order = int(digits)
        if order in files:
            raise ParameterDomainError(
                f"corpus files {files[order]} and {f} are both of order {order}"
            )
        files[order] = f
    if not any(c.covers(k) for c in verify.CHECKS.values() if c.default_n is None
               for k in files):
        raise ParameterDomainError(
            f"--corpus-dir {dir_str} holds no order<k>.g6 file of an order a corpus check covers"
        )
    return {order: _read_corpus(f) for order, f in files.items()}


def _input_graphs(args):
    """Resolve --family / --graph6 into labeled graphs, one at a time: a
    --graph6 record is decoded only when the verb reaches it, so the
    oracle's guard refuses an oversized record before the next is decoded."""
    if args.family:
        # A family's order is the sum of its parameters, so an oversized one is
        # refused before it is built; a spec the builder rejects (unknown name,
        # wrong parameter count, a parameter below 1) gets the builder's message.
        name, params = split_family_spec(args.family)
        if len(params) == graphs.FAMILY_NAMES.get(name, (None, None))[1] and min(params) >= 1:
            _check_guard(sum(params), _guard(args))
        yield args.family, graphs.build_family(name, *params)
    else:
        for i, rec in enumerate(_read_corpus(args.graph6)):
            yield f"{args.graph6}#{i}", parse_graph6(rec)


def _cycle_order(args) -> int | None:
    """Order n when the input is the cycle family. The recurrence serves it
    and walks no subsets, so --guard-override is refused here."""
    match split_family_spec(args.family) if args.family else None:
        case ("cycle", (n,)):
            _reject_guard(args)
            return n
    return None


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------

def _guard(args) -> int:
    return DEFAULT_GUARD if args.guard_override is None else args.guard_override


def _reject_guard(args):
    """--guard-override where nothing enumerates subsets is an input error, not a no-op."""
    if args.guard_override is not None:
        family = getattr(args, "family", None)
        what = args.verb if family is None else f"{args.verb} --family {family}"
        raise ParameterDomainError(f"{what} does not take --guard-override")


# The largest n for which `cycle` and `poly` build D(C_n): its n + 1
# coefficients have up to about n/4 digits, so the walk takes about n^3
# digit operations, 3 s at n = 4000 on a 2-CPU machine and 6 s at 5000.
MAX_CYCLE_ORDER = 4000


def _cycle_polynomial(n: int):
    if n > MAX_CYCLE_ORDER:
        raise SizeGuardError(f"D(C_{n}) is not built above order {MAX_CYCLE_ORDER}; "
                             f"eval --family cycle:{n} --at T evaluates it at a point")
    return cycles.cycle_polynomial(n)


def _run_poly(args):
    n_cycle = _cycle_order(args)
    if n_cycle is not None:
        poly = _cycle_polynomial(n_cycle)
        results = [{"source": args.family, "order": n_cycle,
                    "coefficients": poly.coefficient_strings()}]
    else:
        results = [{"source": label, "order": g.n,
                    "coefficients": domination_polynomial(g, guard=_guard(args)).coefficient_strings()}
                   for label, g in _input_graphs(args)]
    return {"results": results}, True


def _run_cycle(args):
    _reject_guard(args)
    poly = _cycle_polynomial(args.n)
    return {"n": args.n, "coefficients": poly.coefficient_strings()}, True


def _run_eval(args):
    k = args.derivative
    if k < 0:
        raise ParameterDomainError(f"--derivative must be >= 0, got {k}")
    n_cycle = _cycle_order(args)
    if n_cycle is not None:
        # The jet stops at D^(n): every higher derivative of D(C_n) is 0.
        jet = cycles.cycle_jet(n_cycle, args.at, k)
        values = [(args.family, jet[k] if k < len(jet) else 0)]
    else:
        values = []
        for label, g in _input_graphs(args):
            poly = domination_polynomial(g, guard=_guard(args))
            # After degree + 1 derivatives the polynomial is 0 for good.
            for _ in range(min(k, poly.degree + 1)):
                poly = poly.derivative()
            values.append((label, poly.eval_at(args.at)))
    results = [
        {"source": label, "point": str(args.at), "derivative": k, "value": str(value)}
        for label, value in values
    ]
    return {"results": results}, True


def _run_gamma(args):
    results = [
        {"source": label, "order": g.n, "gamma": domination_number(g, guard=_guard(args))}
        for label, g in _input_graphs(args)
    ]
    return {"results": results}, True


def _run_verify(args):
    """One pass: the check's kind and options say which flags it takes, so
    a flag it would ignore is refused, then a missing one it needs, then an
    order its registry entry does not cover or its walk guard refuses, all
    before any corpus is read."""
    from . import verify

    check = verify.CHECKS.get(args.lemma)
    if check is None:
        # `all` hands the guard to the corpus classification and checks only.
        kind, options = "all", {"guard"} if args.corpus_dir else set()
    else:
        kind = "range" if check.default_n is not None else "corpus"
        # The options a check reads are its runner's parameters.
        code = check.run.__code__
        options = code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]
    for flag, value, taken in (
        ("--guard-override", args.guard_override, "guard" in options),
        ("--max-n", args.max_n, kind == "range"),
        ("--min-part", args.min_part, "min_part" in options),
        ("--n", args.n, kind == "corpus"),
        ("--corpus", args.corpus, kind == "corpus"),
        ("--corpus-dir", args.corpus_dir, kind == "all"),
    ):
        if value is not None and not taken:
            raise ParameterDomainError(f"verify {args.lemma} does not take {flag}")

    if kind == "all":
        corpora = _read_corpus_dir(args.corpus_dir) if args.corpus_dir else None
        reports = verify.run_all(corpora=corpora, guard=args.guard_override)
        ok = all(r.passed for r in reports)
        return {"reports": [r.to_json_dict() for r in reports]}, ok

    given = {"guard": args.guard_override, "min_part": args.min_part}
    kwargs = {k: v for k, v in given.items() if v is not None}
    if kind == "corpus":
        for flag, value in (("--corpus", args.corpus), ("--n", args.n)):
            if value is None:
                raise ParameterDomainError(f"verify {args.lemma} requires {flag}")
        verify._require_covered(args.lemma, args.n)
        # The check walks W_n or P_n, of order n, under the walk guard.
        _check_guard(args.n, _guard(args))
        result = verify.classify_corpus(_read_corpus(args.corpus), corpus_guard=args.guard_override)
        rep = check.run(args.n, result, **kwargs)
    else:
        max_n = check.default_n if args.max_n is None else args.max_n
        if max_n < check.min_n:
            raise ParameterDomainError(
                f"verify {args.lemma} covers n >= {check.min_n}; --max-n {max_n} "
                f"leaves nothing to check"
            )
        rep = check.run(max_n, **kwargs)
    return rep.to_json_dict(), rep.passed


# The most partitions `search-partitions` lists; its memory runs about ten
# times its JSON: 44,004 rows and 83 MB peak RSS at n = 62 with parts >= 3.
MAX_SEARCH_ROWS = 50_000


def _partition_count(n: int, min_part: int) -> int:
    """Partitions of n >= 0 into parts >= min_part, one part size at a time."""
    ways = [1] + [0] * n
    for part in range(min_part, n + 1):
        for m in range(part, n + 1):
            ways[m] += ways[m - part]
    return ways[n]


def _run_search_partitions(args):
    _reject_guard(args)
    # n < 1 is left to the enumeration, which refuses it with its own message.
    if args.n >= 1 and (count := _partition_count(args.n, args.min_part)) > MAX_SEARCH_ROWS:
        raise SizeGuardError(f"search-partitions {args.n} would list {count} partitions, "
                             f"above {MAX_SEARCH_ROWS}; verify T5-partitions --max-n {args.n} "
                             f"--min-part {args.min_part} decides uniqueness without listing them")
    from . import verify

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
    from . import verify

    records = _read_corpus(args.corpus)
    result = verify.classify_corpus(records, corpus_guard=args.guard_override)
    return result.to_json_dict(), True


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _render_table(payload: dict) -> str:
    """The layout follows the payload: check reports (one, or `verify all`'s
    list), a corpus classification, a partition search, or else the JSON."""
    lines = []
    if "reports" in payload or "lemma_id" in payload:
        from . import verify

        lines.append(f"{'check':<14} {'range':<12} {'status':<12} {'cex':>4}  claim")
        for r in payload.get("reports", [payload]):
            rng = f"{r['range'][0]}..{r['range'][1]}"
            claim = verify.CHECKS[r["lemma_id"]].claim
            lines.append(
                f"{r['lemma_id']:<14} {rng:<12} {r['status']:<12} "
                f"{len(r['counterexamples']):>4}  {claim}"
            )
        return "\n".join(lines)
    if "classes" in payload:
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
    if "partitions" in payload:
        for row in payload["partitions"]:
            mark = "=" if row["matches"] else " "
            lines.append(f"{mark} {'+'.join(str(p) for p in row['parts'])}")
        lines.append(f"{payload['match_count']} of {len(payload['partitions'])} match")
        return "\n".join(lines)
    # generic key/value fallback
    return json.dumps(payload, indent=2, sort_keys=True)


def main(argv: list[str] | None = None) -> int:
    # `eval` answers at any N, and its values can run to tens of thousands
    # of digits: lift CPython's int-to-str limit (3.10.7 on) for them.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        payload, ok = args.func(args)
    except (InputError, OSError) as exc:
        print(f"dompoly: {exc}", file=sys.stderr)
        return 3

    try:
        if args.format == "table":
            print(_render_table(payload))
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
