"""Benchmark workloads: the dompoly CLI operations each one runs, the
seeded inputs they read, and the check applied to every answer.

Each operation is one `dompoly` invocation with default flags only (no
`--threads`, no `--guard-override`), so removing the process pools or the
guard knob cannot break the benchmark. A check returns None for a correct
answer, or a one-line reason. Checks read answer fields only: the exit
code, each report's lemma_id / range / status / counterexamples, the
coefficient vectors and the evaluated values. Fields a later version may
add (a route name, work counters) are ignored.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text())

# Seed whose oracle-walk answers are stored in expected.json; other seeds
# are checked through invariants of the domination polynomial.
DEFAULT_SEED = 1

# Graphs on n unlabeled vertices (OEIS A000088): a complete corpus has
# exactly this many records.
CORPUS_SIZES = {4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}

ORACLE_WALK_ORDERS = (21, 22, 22, 23)
CYCLE_EVAL_N = 2000

Check = Callable[[int, str], Optional[str]]


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the check its exit code and stdout must pass."""

    argv: tuple[str, ...]
    check: Check


# ---------------------------------------------------------------------------
# Answer checks
# ---------------------------------------------------------------------------

def _load(code: int, out: str) -> tuple[Optional[dict], Optional[str]]:
    if code != 0:
        return None, f"exit code {code}, expected 0"
    try:
        return json.loads(out), None
    except ValueError as exc:
        return None, f"stdout is not JSON: {exc}"


def _report_error(report: dict, lemma_id: str, lo: int, hi: int) -> Optional[str]:
    """A report answers the claim when it covers [lo, hi] and passes."""
    if report.get("lemma_id") != lemma_id:
        return f"lemma_id {report.get('lemma_id')!r}, expected {lemma_id!r}"
    rng = report.get("range")
    if not (isinstance(rng, list) and len(rng) == 2 and rng[0] <= lo and rng[1] >= hi):
        return f"{lemma_id}: range {rng} does not cover [{lo}, {hi}]"
    if report.get("status") != "pass":
        return f"{lemma_id}: status {report.get('status')!r}"
    if report.get("counterexamples") != []:
        return f"{lemma_id}: counterexamples reported"
    return None


def check_report(lemma_id: str, lo: int, hi: int) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        payload, err = _load(code, out)
        return err or _report_error(payload, lemma_id, lo, hi)
    return check


# The reports `verify all --corpus-dir data/corpora` must contain, at the
# default ranges of the seed version. A wider range also answers the claim.
VERIFY_ALL_REPORTS = (
    ("L2-union", 1, 8),
    ("L3-cycle", 1, 15),
    ("L4-gamma", 1, 15),
    ("L5-alpha", 1, 200),
    ("REL2-beta", 1, 200),
    ("REL3-theta", 1, 200),
    ("L6-ord3", 1, 1000),
    ("R1-remark", 1, 1000),
    ("T5-partitions", 3, 40),
    ("T5-ten-cases", 9, 60),
    *(("COR-wheel", n, n) for n in sorted(CORPUS_SIZES)),
    ("P-path-class", 6, 6),
)


def check_verify_all(code: int, out: str) -> Optional[str]:
    payload, err = _load(code, out)
    if err:
        return err
    reports = payload.get("reports")
    if not isinstance(reports, list):
        return "no reports list"
    for rep in reports:
        if rep.get("status") != "pass" or rep.get("counterexamples") != []:
            return f"{rep.get('lemma_id')}: status {rep.get('status')!r}"
    for lemma_id, lo, hi in VERIFY_ALL_REPORTS:
        matching = [
            r for r in reports
            if _report_error(r, lemma_id, lo, hi) is None
        ]
        if not matching:
            return f"no passing {lemma_id} report covering [{lo}, {hi}]"
        if lemma_id == "COR-wheel":
            size = matching[0].get("details", {}).get("corpus_size")
            if size != CORPUS_SIZES[lo]:
                return f"COR-wheel {lo}: corpus_size {size}, expected {CORPUS_SIZES[lo]}"
    return None


def _results(payload: dict, count: int) -> tuple[list, Optional[str]]:
    results = payload.get("results")
    if not isinstance(results, list) or len(results) != count:
        return [], f"expected {count} results"
    return results, None


def check_cycle_one(code: int, out: str) -> Optional[str]:
    payload, err = _load(code, out)
    if err:
        return err
    if payload.get("coefficients") != ["0", "1"]:
        return f"D(C_1) = {payload.get('coefficients')}, expected x"
    return None


def check_eval(expected: int) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        payload, err = _load(code, out)
        if err:
            return err
        results, err = _results(payload, 1)
        if err:
            return err
        if results[0].get("value") != str(expected):
            return f"value {results[0].get('value')!r:.40}, expected {expected}"
        return None
    return check


def theta_closed_form(n: int) -> int:
    """D''(C_n, -1) by n mod 4 (the paper's closed form)."""
    return {
        0: n * (n - 4) // 4,
        1: -n * (n - 1) // 2,
        2: n * (n + 2) // 4,
        3: 0,
    }[n % 4]


def polynomial_invariant_error(coeffs: list[int], closed: list[int]) -> Optional[str]:
    """Checks any domination polynomial must pass, from the graph alone.

    d(G,0) = 0, d(G,n) = 1, d(G,n-1) = number of non-isolated vertices,
    d(G,1) = number of universal vertices.
    """
    n = len(closed)
    full = (1 << n) - 1
    universal = sum(1 for m in closed if m == full)
    non_isolated = sum(1 for v, m in enumerate(closed) if m != 1 << v)
    if len(coeffs) != n + 1 or coeffs[0] != 0:
        return f"coefficient vector of length {len(coeffs)} for order {n}"
    if coeffs[n] != 1:
        return f"d(G,n) = {coeffs[n]}, expected 1"
    if coeffs[n - 1] != non_isolated:
        return f"d(G,n-1) = {coeffs[n - 1]}, expected {non_isolated}"
    if coeffs[1] != universal:
        return f"d(G,1) = {coeffs[1]}, expected {universal}"
    return None


def check_oracle_walk(graphs: list[list[int]], stored: Optional[list[list[str]]]) -> Check:
    def check(code: int, out: str) -> Optional[str]:
        payload, err = _load(code, out)
        if err:
            return err
        results, err = _results(payload, len(graphs))
        if err:
            return err
        for i, (res, closed) in enumerate(zip(results, graphs)):
            coeffs = res.get("coefficients")
            if res.get("order") != len(closed) or not isinstance(coeffs, list):
                return f"graph {i}: order {res.get('order')}, expected {len(closed)}"
            if stored is not None and coeffs != stored[i]:
                return f"graph {i}: coefficients differ from the stored answer"
            err = polynomial_invariant_error([int(c) for c in coeffs], closed)
            if err:
                return f"graph {i}: {err}"
        return None
    return check


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

def random_connected_graph(rng: random.Random, n: int) -> list[int]:
    """Closed-neighbourhood masks of a random connected graph of order n.

    A random recursive tree makes it connected; extra edges come at a
    seeded density. With probability 1/2 one vertex is made universal, so
    the d(G,1) invariant sees both zero and nonzero answers.
    """
    closed = [1 << v for v in range(n)]

    def link(u: int, v: int):
        closed[u] |= 1 << v
        closed[v] |= 1 << u

    for v in range(1, n):
        link(rng.randrange(v), v)
    density = rng.choice((0.1, 0.2, 0.3, 0.5))
    for v in range(n):
        for u in range(v):
            if rng.random() < density:
                link(u, v)
    if rng.random() < 0.5:
        hub = rng.randrange(n)
        for v in range(n):
            if v != hub:
                link(hub, v)
    return closed


def encode_graph6(closed: list[int]) -> str:
    """graph6 record (n <= 62): upper triangle, column by column."""
    n = len(closed)
    bits = [(closed[v] >> u) & 1 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    groups = (
        int("".join(map(str, bits[i:i + 6])), 2) for i in range(0, len(bits), 6)
    )
    return chr(n + 63) + "".join(chr(g + 63) for g in groups)


def oracle_walk_graphs(seed: int) -> list[list[int]]:
    rng = random.Random(seed)
    return [random_connected_graph(rng, n) for n in ORACLE_WALK_ORDERS]


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def verify_all(seed: int, workdir: Path, root: Path) -> list[Op]:
    return [Op(("verify", "all", "--corpus-dir", "data/corpora"), check_verify_all)]


def partitions_deep(seed: int, workdir: Path, root: Path) -> list[Op]:
    return [
        Op(("verify", "T5-partitions", "--max-n", "42"),
           check_report("T5-partitions", 3, 42)),
        Op(("verify", "T5-partitions", "--max-n", "25", "--min-part", "1"),
           check_report("T5-partitions", 3, 25)),
        Op(("verify", "T5-ten-cases", "--max-n", "66"),
           check_report("T5-ten-cases", 9, 66)),
    ]


def oracle_walk(seed: int, workdir: Path, root: Path) -> list[Op]:
    graphs = oracle_walk_graphs(seed)
    path = workdir / f"oracle-walk-seed{seed}.g6"
    path.write_text("".join(encode_graph6(g) + "\n" for g in graphs))
    stored = EXPECTED["oracle_walk_seed1"] if seed == DEFAULT_SEED else None
    return [Op(("poly", "--graph6", str(path.relative_to(root))),
               check_oracle_walk(graphs, stored))]


def cycle_eval(seed: int, workdir: Path, root: Path) -> list[Op]:
    family = f"cycle:{CYCLE_EVAL_N}"
    return [
        Op(("eval", "--family", family, "--at", "-1", "--derivative", "2"),
           check_eval(theta_closed_form(CYCLE_EVAL_N))),
        Op(("eval", "--family", family, "--at", "-3"),
           check_eval(int(EXPECTED["a_2000"]))),
    ]


WORKLOADS: dict[str, Callable[[int, Path, Path], list[Op]]] = {
    "verify-all": verify_all,
    "partitions-deep": partitions_deep,
    "oracle-walk": oracle_walk,
    "cycle-eval": cycle_eval,
}

# `dompoly cycle 1`: the fixed cost of one CLI call with near-zero work.
SETUP_OP = Op(("cycle", "1"), check_cycle_one)
