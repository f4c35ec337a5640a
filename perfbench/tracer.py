"""Run one dompoly CLI operation with per-module call accounting.

    PYTHONPATH=src python3 perfbench/tracer.py TRACE.json VERB [ARGS...]

The public functions of each dompoly module are wrapped by rebinding
their names in every loaded dompoly module that holds them (so
`dompoly.verify.cycle_polynomial` is wrapped as well as
`dompoly.cycles.cycle_polynomial`), and the IntPolynomial methods are
wrapped on the class. Then `dompoly.cli.main(argv)` runs as the CLI would.
The program's sources are not edited.

Coarse calls (the CLI entry, each verification check, corpus
classification) are recorded as spans: name, start, end, parent id. Hot
inner calls (polynomial products, graph6 decodes, oracle walks, cycle
polynomial lookups) only bump per-function counters, so memory stays
bounded. A function's self time is its own duration minus the time spent
in wrapped calls beneath it. Everything is held in memory and written to
TRACE.json when the operation ends; `summarize` turns the traces of a
workload's operations into the per-layer metrics.
"""

from __future__ import annotations

import json
import sys
import time

perf = time.perf_counter

# Per-layer metrics: name -> (unit, better). Counts repeat exactly between
# runs; the `*_s` times and rates do not.
PER_LAYER = {
    "graphs.parse_graph6.calls": ("count", "lower"),
    "graphs.parse_graph6.self_s": ("s", "lower"),
    "graphs.bytes_decoded": ("bytes", "lower"),
    "oracle.domination_profile.calls": ("count", "lower"),
    "oracle.domination_profile.self_s": ("s", "lower"),
    "oracle.masks_walked": ("count", "lower"),
    "oracle.masks_per_s": ("1/s", "higher"),
    "oracle.domination_number.self_s": ("s", "lower"),
    "polynomials.mul.calls": ("count", "lower"),
    "polynomials.mul.self_s": ("s", "lower"),
    "polynomials.coeff_products": ("count", "lower"),
    "polynomials.add.self_s": ("s", "lower"),
    "polynomials.eval_at.self_s": ("s", "lower"),
    "polynomials.derivative.self_s": ("s", "lower"),
    "cycles.cycle_polynomial.calls": ("count", "lower"),
    "cycles.cycle_polynomial.self_s": ("s", "lower"),
    "cycles.max_n": ("count", "lower"),
    "cycles.scalar.calls": ("count", "lower"),
    "cycles.scalar.self_s": ("s", "lower"),
    "verify.partitions_enumerated": ("count", "lower"),
    "verify.full_compares": ("count", "lower"),
    "verify.compare_yield": ("ratio", "higher"),
    "verify.classify_corpus.self_s": ("s", "lower"),
    **{
        f"verify.check_s.{lemma}": ("s", "lower")
        for lemma in (
            "L2-union", "L3-cycle", "L4-gamma", "L5-alpha", "L6-ord3",
            "R1-remark", "REL2-beta", "REL3-theta", "T5-partitions",
            "T5-ten-cases", "COR-wheel", "P-path-class",
        )
    },
    "cli.main.self_s": ("s", "lower"),
}

# Metrics derived from counts alone; all others are timings.
COUNT_METRICS = frozenset(
    name for name, (unit, _) in PER_LAYER.items() if unit in ("count", "bytes", "ratio")
)

# The routes behind the scalar cycle sequences, grouped as cycles.scalar.
_SCALAR_ROUTES = (
    "alpha_by_recurrence", "beta_by_recurrence", "theta_by_recurrence",
    "a_value", "b_value", "b_value_by_factoring",
)


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}      # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {
            "bytes_decoded": 0, "masks_walked": 0, "coeff_products": 0,
            "max_n": 0, "partitions_enumerated": 0, "compare_matches": 0,
        }
        self.spans: list[list] = []           # [id, parent, name, start, end, lemma]
        self.stack: list[list] = []           # [child_s, span id] per open call

    def open_span(self, name: str) -> list:
        parent = self.stack[-1][1] if self.stack else None
        span = [len(self.spans), parent, name, perf(), None, None]
        self.spans.append(span)
        self.stack.append([0.0, span[0]])
        return span

    def close_span(self, span: list):
        span[4] = perf()
        self.stack.pop()

    def wrap(self, name, fn, *, span=False, before=None, after=None):
        """A wrapper that accounts each call of fn under `name`."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans = self.stack, self.spans

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            parent = stack[-1]
            if span:
                rec = [len(spans), parent[1], name, 0.0, 0.0, None]
                spans.append(rec)
                frame = [0.0, rec[0]]
            else:
                frame = [0.0, parent[1]]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                elapsed = t1 - t0
                parent[0] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if span:
                    rec[3], rec[4] = t0, t1
            if span:
                rec[5] = getattr(result, "lemma_id", None)
            if after is not None:
                result = after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def to_json(self) -> dict:
        return {"stats": self.stats, "counters": self.counters, "spans": self.spans}


def _rebind(modules, fn, wrapper):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer):
    """Wrap dompoly's public functions; absent ones are skipped."""
    import dompoly
    import dompoly.cli
    from dompoly import cycles, graphs, oracle, polynomials, verify

    modules = [m for k, m in sys.modules.items() if k == "dompoly" or k.startswith("dompoly.")]
    c = tracer.counters

    def hook(mod, attr, name, **kw):
        fn = getattr(mod, attr, None)
        if callable(fn):
            _rebind(modules, fn, tracer.wrap(name, fn, **kw))

    def count_bytes(args):
        c["bytes_decoded"] += len(args[0])

    def count_masks(args):
        c["masks_walked"] += 1 << args[0].n

    def note_n(args):
        if args[0] > c["max_n"]:
            c["max_n"] = args[0]

    def count_partitions(args, it):
        for parts in it:
            c["partitions_enumerated"] += 1
            yield parts

    reference_cycle = getattr(cycles, "cycle_polynomial", None)

    def count_match(args, product):
        parts = args[0]
        if isinstance(parts, (tuple, list)) and parts and reference_cycle is not None:
            c["compare_matches"] += product == reference_cycle(sum(parts))
        return product

    hook(graphs, "parse_graph6", "graphs.parse_graph6", before=count_bytes)
    hook(oracle, "domination_profile", "oracle.domination_profile", before=count_masks)
    hook(oracle, "domination_number", "oracle.domination_number")
    hook(cycles, "cycle_polynomial", "cycles.cycle_polynomial", before=note_n)
    for attr in _SCALAR_ROUTES:
        hook(cycles, attr, "cycles.scalar")
    hook(verify, "enumerate_partitions", "verify.enumerate_partitions", after=count_partitions)
    hook(verify, "partition_polynomial", "verify.partition_polynomial", after=count_match)
    hook(verify, "classify_corpus", "verify.classify_corpus", span=True)
    hook(verify, "run_all", "verify.run_all", span=True)
    for attr in getattr(verify, "__all__", ()):
        if attr.startswith("verify_"):
            hook(verify, attr, f"verify.{attr}", span=True)
    hook(dompoly.cli, "main", "cli.main", span=True)

    poly = polynomials.IntPolynomial

    def count_products(args):
        c["coeff_products"] += len(args[0].coeffs) * len(getattr(args[1], "coeffs", ()))

    for attr, name, before in (
        ("__mul__", "polynomials.mul", count_products),
        ("__add__", "polynomials.add", None),
        ("eval_at", "polynomials.eval_at", None),
        ("derivative", "polynomials.derivative", None),
    ):
        setattr(poly, attr, tracer.wrap(name, getattr(poly, attr), before=before))


def summarize(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics over the traces of one workload pass."""
    stats: dict[str, list] = {}
    counters: dict[str, int] = {}
    for tr in traces:
        for name, (calls, total, self_s) in tr["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for name, value in tr["counters"].items():
            if name == "max_n":
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    masks = counters.get("masks_walked", 0)
    profile_s = self_s("oracle.domination_profile")
    compares = calls("verify.partition_polynomial")
    m = {
        "graphs.parse_graph6.calls": calls("graphs.parse_graph6"),
        "graphs.parse_graph6.self_s": self_s("graphs.parse_graph6"),
        "graphs.bytes_decoded": counters.get("bytes_decoded", 0),
        "oracle.domination_profile.calls": calls("oracle.domination_profile"),
        "oracle.domination_profile.self_s": profile_s,
        "oracle.masks_walked": masks,
        "oracle.masks_per_s": masks / profile_s if profile_s else 0.0,
        "oracle.domination_number.self_s": self_s("oracle.domination_number"),
        "polynomials.mul.calls": calls("polynomials.mul"),
        "polynomials.mul.self_s": self_s("polynomials.mul"),
        "polynomials.coeff_products": counters.get("coeff_products", 0),
        "polynomials.add.self_s": self_s("polynomials.add"),
        "polynomials.eval_at.self_s": self_s("polynomials.eval_at"),
        "polynomials.derivative.self_s": self_s("polynomials.derivative"),
        "cycles.cycle_polynomial.calls": calls("cycles.cycle_polynomial"),
        "cycles.cycle_polynomial.self_s": self_s("cycles.cycle_polynomial"),
        "cycles.max_n": counters.get("max_n", 0),
        "cycles.scalar.calls": calls("cycles.scalar"),
        "cycles.scalar.self_s": self_s("cycles.scalar"),
        "verify.partitions_enumerated": counters.get("partitions_enumerated", 0),
        "verify.full_compares": compares,
        "verify.compare_yield": counters.get("compare_matches", 0) / compares if compares else 0.0,
        "verify.classify_corpus.self_s": self_s("verify.classify_corpus"),
        "cli.main.self_s": self_s("cli.main"),
    }
    # A check's time is its outermost span: a range check that calls the
    # single-n check of the same lemma counts once.
    for name in PER_LAYER:
        if name.startswith("verify.check_s."):
            m[name] = 0.0
    for tr in traces:
        by_id = {s[0]: s for s in tr["spans"]}
        for sid, parent, _, start, end, lemma in tr["spans"]:
            key = f"verify.check_s.{lemma}"
            if key not in m:
                continue
            while parent is not None and by_id[parent][5] != lemma:
                parent = by_id[parent][1]
            if parent is None:
                m[key] += end - start
    return m


def main(argv: list[str]) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    op = tracer.open_span("op")
    imp = tracer.open_span("import")
    install(tracer)
    tracer.close_span(imp)
    import dompoly.cli

    try:
        code = dompoly.cli.main(cli_argv)
    finally:
        tracer.close_span(op)
        with open(out_path, "w") as fh:
            json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
