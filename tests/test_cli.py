import ast
import gc
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import time
from functools import cache
from pathlib import Path

import pytest

from dompoly import checks, cli, cycles, errors, graphs, oracle, verify
from dompoly.cli import main, split_family_spec
from dompoly.errors import ParameterDomainError
from dompoly.graphs import (
    build_family,
    complete,
    complete_cycle_join,
    cycle,
    encode_graph6,
    parse_graph6,
    path,
    wheel,
)
from dompoly.polynomials import IntPolynomial
from dompoly.verify import CHECKS, classify_corpus, path_companion, run_all

from conftest import CORPUS_DIR

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize(
    "name,argv",
    [
        ("cycle6", ["cycle", "6"]),
        ("search_partitions6", ["search-partitions", "6"]),
        ("gamma_cycle7", ["gamma", "--family", "cycle:7"]),
    ],
)
def test_golden_outputs(capsys, name, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN_DIR / f"{name}.json").read_text()


def test_every_verb_emits_valid_json(capsys, tmp_path):
    corpus6 = CORPUS_DIR / "order6.g6"
    small = tmp_path / "two.g6"
    small.write_bytes(encode_graph6(cycle(5)) + b"\n" + encode_graph6(path(5)) + b"\n")
    invocations = [
        ["poly", "--family", "wheel:5"],
        ["cycle", "9"],
        ["eval", "--family", "cycle:8", "--at", "-1"],
        ["gamma", "--graph6", str(small)],
        ["verify", "L5-alpha", "--max-n", "50"],
        ["search-partitions", "9"],
        ["classify", str(small)],
        ["path-class", "6", str(corpus6)],
        ["wheel", "6", str(corpus6)],
    ]
    for argv in invocations:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        json.loads(out)


def test_cycle_verb_matches_spec_coefficients(capsys):
    code, out, _ = run(capsys, "cycle", "6")
    payload = json.loads(out)
    assert payload["coefficients"] == ["0", "0", "3", "14", "15", "6", "1"]


def test_eval_uses_recurrence_for_large_cycles(capsys):
    # order 200 is far beyond the enumeration guard; the cycle family
    # is computed by recurrence instead
    code, out, _ = run(capsys, "eval", "--family", "cycle:200", "--at", "-1")
    assert code == 0
    assert json.loads(out)["results"][0]["value"] == "3"
    code, out, _ = run(capsys, "eval", "--family", "cycle:9", "--at", "-1",
                       "--derivative", "1")
    assert json.loads(out)["results"][0]["value"] == "9"
    # theta's closed form n(n-4)/4 at n = 100000, from a flat-memory jet walk
    code, out, _ = run(capsys, "eval", "--family", "cycle:100000", "--at", "-1",
                       "--derivative", "2")
    assert code == 0
    assert json.loads(out)["results"][0]["value"] == "2499900000"
    # D(C_5) has degree 5, so its 50th derivative vanishes
    code, out, _ = run(capsys, "eval", "--family", "cycle:5", "--at", "2",
                       "--derivative", "50")
    assert code == 0
    assert json.loads(out)["results"][0]["value"] == "0"


def test_eval_stops_differentiating_at_zero(capsys, tmp_path):
    """A non-cycle graph's polynomial is 0 after degree + 1 derivatives, so
    a huge --derivative answers at once instead of looping K times."""
    f = tmp_path / "one.g6"
    f.write_bytes(encode_graph6(wheel(5)) + b"\n")
    for source in (("--family", "wheel:5"), ("--graph6", str(f))):
        code, out, _ = run(capsys, "eval", *source, "--at", "2", "--derivative", "1000000000")
        assert code == 0 and json.loads(out)["results"][0]["value"] == "0", source


def test_eval_prints_values_past_the_int_to_str_limit(capsys):
    # D(C_20000, -3) has about 5000 digits, above CPython's default limit
    # of 4300 for int-to-str conversion.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        code, out, err = run(capsys, "eval", "--family", "cycle:20000", "--at", "-3")
        assert (code, err) == (0, "")
        expected = str(cycles.cycle_jet(20000, -3, 0)[0])
        assert len(expected) > 4300
        assert json.loads(out)["results"][0]["value"] == expected
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_cycle_family_takes_the_recurrence_route(capsys, monkeypatch):
    """poly and eval answer cycle:n from the recurrence and never build C_n;
    a malformed cycle spec fails as the graph builder would fail on it."""
    def no_graph(*args):
        raise AssertionError(f"built a graph for {args}")

    monkeypatch.setattr(graphs, "build_family", no_graph)
    for verb, extra, n in (("poly", (), 100), ("eval", ("--at", "-1"), 100000)):
        code, out, _ = run(capsys, verb, "--family", f"cycle:{n}", *extra)
        assert code == 0 and json.loads(out)["results"][0]["source"] == f"cycle:{n}"
        for spec, message in (
            ("cycle:0", "cycle sequences need n >= 1, got 0"),
            ("cycle:-1", "cycle sequences need n >= 1, got -1"),
            ("cycle:abc", "non-integer parameter in family spec 'cycle:abc'"),
            ("cycle", "family spec 'cycle' is missing ':params'"),
        ):
            code, out, err = run(capsys, verb, "--family", spec, *extra)
            assert (code, out, err) == (3, "", f"dompoly: {message}\n"), spec
        code, _, err = run(capsys, "--guard-override", "5", verb, "--family", "cycle:7", *extra)
        refusal = f"dompoly: {verb} --family cycle:7 does not take --guard-override\n"
        assert (code, err) == (3, refusal)
        with pytest.raises(AssertionError, match="built a graph"):
            run(capsys, verb, "--family", "cycle:3,4", *extra)


def test_parse_family_spec():
    assert split_family_spec("cycle:6") == ("cycle", (6,))
    assert split_family_spec("cycle:0") == ("cycle", (0,))
    assert split_family_spec("complete-cycle-join:2,5") == ("complete-cycle-join", (2, 5))
    name, params = split_family_spec("complete-cycle-join:2,5")
    assert build_family(name, *params) == complete_cycle_join(2, 5)
    with pytest.raises(ParameterDomainError):
        split_family_spec("cycle")
    with pytest.raises(ParameterDomainError):
        split_family_spec("cycle:x")


def test_cycle_polynomial_bound_refuses_before_the_walk(capsys, monkeypatch):
    """`cycle N` and `poly --family cycle:N` above the bound exit 3 with a
    pointer to `eval` and walk nothing; `eval` stays unbounded, and
    --guard-override is still refused rather than raising the bound."""
    walks = []
    walk = cycles.cycle_polynomials
    monkeypatch.setattr(cycles, "cycle_polynomials", lambda: walks.append(1) or walk())
    n = cli.MAX_CYCLE_ORDER + 1
    for argv in (("cycle", str(n)), ("poly", "--family", f"cycle:{n}")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("dompoly: ") and f"eval --family cycle:{n}" in err, argv
    code, _, err = run(capsys, "--guard-override", "30", "cycle", str(n))
    assert (code, err) == (3, "dompoly: cycle does not take --guard-override\n")
    assert walks == []
    code, out, _ = run(capsys, "eval", "--family", f"cycle:{n}", "--at", "2")
    assert code == 0 and json.loads(out)["results"][0]["source"] == f"cycle:{n}"
    code, out, _ = run(capsys, "cycle", "7")
    assert code == 0 and len(json.loads(out)["coefficients"]) == 8
    assert walks == [1]


def test_family_guard_refuses_before_building(capsys, monkeypatch):
    """A family's order is the sum of its parameters, so an order above the
    guard is refused with the oracle's message before any builder runs; an
    unknown name, a wrong parameter count or a parameter below 1 is still
    the builder's error."""
    built = []
    for name, (builder, arity) in list(graphs.FAMILY_NAMES.items()):
        spy = lambda *params, builder=builder: built.append(params) or builder(*params)
        monkeypatch.setitem(graphs.FAMILY_NAMES, name, (spy, arity))
    refusal = ("dompoly: order {} exceeds the enumeration guard ({}); raise it via "
               "the guard argument (CLI: --guard-override)\n")
    # No guard reaches order 100000, so the ceiling is named, not the guard.
    ceiling = "dompoly: order 100000 exceeds 40, the largest order any guard lets a 2^n enumeration reach\n"
    for verb, extra in (("gamma", ()), ("poly", ()), ("eval", ("--at", "2"))):
        code, out, err = run(capsys, verb, "--family", "complete:100000", *extra)
        assert (code, out, err) == (3, "", ceiling), verb
    code, out, err = run(capsys, "--guard-override", "30", "gamma",
                         "--family", "complete-cycle-join:20,20")
    assert (code, out, err) == (3, "", refusal.format(40, 30))
    assert built == []
    for spec, message in (
        ("nosuch:100", "unknown family 'nosuch'"),
        ("complete:50,50", "family 'complete' takes 1 parameter(s), got 2"),
        ("complete-cycle-join:-1,100", "complete-cycle-join needs m, n >= 1, got (-1,100)"),
    ):
        code, out, err = run(capsys, "gamma", "--family", spec)
        assert code == 3 and out == "" and err.startswith(f"dompoly: {message}"), spec
    code, out, _ = run(capsys, "gamma", "--family", "complete:24")
    assert code == 0 and json.loads(out)["results"][0]["gamma"] == 1
    assert built == [(-1, 100), (24,)]


def test_poly_on_graph6_file(capsys, tmp_path):
    f = tmp_path / "k3.g6"
    outs = []
    # A header line; then CRLF line ends, a blank line and a header glued
    # to the record, which must read the same, as must the file with no
    # header at all, with those line ends or none.
    for content in (b">>graph6<<\nBw\n", b"\r\n>>graph6<<Bw\r\n\r\n", b"\r\nBw\r\n\r\n", b"Bw"):
        f.write_bytes(content)
        code, out, _ = run(capsys, "poly", "--graph6", str(f))
        assert code == 0
        outs.append(out)
    assert json.loads(outs[0])["results"][0]["coefficients"] == ["0", "3", "3", "1"]
    assert outs[1:] == outs[:1] * 3


def test_verify_verbs(capsys):
    code, out, _ = run(capsys, "verify", "L5-alpha", "--max-n", "200")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert payload["range"] == [1, 200]

    code, out, _ = run(capsys, "verify", "T5-partitions", "--max-n", "12")
    assert code == 0
    assert json.loads(out)["details"]["min_part"] == 3

    code, out, _ = run(capsys, "verify", "T5-partitions")
    assert code == 0
    payload = json.loads(out)
    assert payload["range"] == [3, 1000]
    assert payload["status"] == "pass"
    assert payload["details"]["route"] == "elimination"

    code, out, _ = run(capsys, "verify", "T5-partitions", "--min-part", "1")
    assert code == 0
    payload = json.loads(out)
    assert (payload["range"], payload["status"]) == ([3, 1000], "pass")
    assert (payload["details"]["route"], payload["details"]["min_part"]) == ("elimination", 1)


def test_verify_all_with_corpus_dir(capsys):
    code, out, _ = run(
        capsys, "verify", "all", "--corpus-dir", str(CORPUS_DIR),
    )
    assert code == 0
    ids = [r["lemma_id"] for r in json.loads(out)["reports"]]
    assert ids == [
        "L2-union", "L3-cycle", "L4-gamma", "L5-alpha", "REL2-beta",
        "REL3-theta", "L6-ord3", "R1-remark", "T5-partitions", "T5-ten-cases",
        *["COR-wheel"] * 5, "P-path-class",
    ]


def test_verify_all_matches_golden(capsys):
    """Every report of `verify all --corpus-dir` stays byte-identical, but
    for its timing."""
    code, out, _ = run(capsys, "verify", "all", "--corpus-dir", str(CORPUS_DIR))
    assert code == 0
    payload = json.loads(out)
    for report in payload["reports"]:
        report.pop("timing_ms")
    golden = (GOLDEN_DIR / "verify_all.json").read_text()
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == golden


def test_verify_all_classifies_each_corpus_order_once(capsys, monkeypatch):
    orders = []

    def counting(records, **kwargs):
        records = list(records)
        orders.append(parse_graph6(records[0]).n)
        return classify_corpus(records, **kwargs)

    monkeypatch.setattr(verify, "classify_corpus", counting)
    code, _, _ = run(capsys, "verify", "all", "--corpus-dir", str(CORPUS_DIR))
    assert code == 0
    # order 6 serves both COR-wheel and P-path-class
    assert orders == [4, 5, 6, 7, 8]


def _without_timing(out: str):
    payload = json.loads(out) if out else None
    if payload is not None:
        payload.pop("timing_ms")
    return payload


@pytest.mark.parametrize("verb,lemma", [("wheel", "COR-wheel"), ("path-class", "P-path-class")])
@pytest.mark.parametrize("n,complete_corpus,expected_code", [
    (6, True, 0),
    (6, False, 1),  # two records are not the order-6 corpus: inconclusive
    (3, True, 3),  # below either check's first order
])
def test_corpus_verbs_are_the_verify_checks(
    capsys, tmp_path, verb, lemma, n, complete_corpus, expected_code
):
    corpus = CORPUS_DIR / "order6.g6"
    if not complete_corpus:
        corpus = tmp_path / "two.g6"
        corpus.write_bytes(encode_graph6(wheel(6)) + b"\n" + encode_graph6(path(6)) + b"\n")
    code, out, err = run(capsys, verb, str(n), str(corpus))
    assert code == expected_code
    again = run(capsys, "verify", lemma, "--n", str(n), "--corpus", str(corpus))
    assert (again[0], _without_timing(again[1]), again[2]) == (code, _without_timing(out), err)


def _refuse_reading(monkeypatch):
    def no_read(*args, **kwargs):
        raise AssertionError("a corpus was read")

    monkeypatch.setattr(cli, "_read_corpus", no_read)
    monkeypatch.setattr(verify, "classify_corpus", no_read)


def test_uncovered_order_is_refused_before_the_corpus_is_read(capsys, monkeypatch):
    """An --n the registry's `covers` leaves out, or the walk guard refuses,
    exits 3 with that message before the corpus is read or classified, as
    alias or as verify."""
    _refuse_reading(monkeypatch)
    corpus8 = str(CORPUS_DIR / "order8.g6")
    for argv, message in (
        (("verify", "COR-wheel", "--n", "3", "--corpus", corpus8), "COR-wheel covers n = 4, 5, 6, ...; got 3"),
        (("wheel", "3", corpus8), "COR-wheel covers n = 4, 5, 6, ...; got 3"),
        (("path-class", "7", corpus8), "P-path-class covers n = 6, 9, 12, ...; got 7"),
        # W_n and P_n are walked under the enumeration guard, which --n meets or not.
        (("wheel", "30", corpus8), "order 30 exceeds the enumeration guard (24); raise it via "
                                   "the guard argument (CLI: --guard-override)"),
        (("path-class", "30", corpus8), "order 30 exceeds the enumeration guard (24); raise it via "
                                        "the guard argument (CLI: --guard-override)"),
        (("verify", "P-path-class", "--n", "30", "--corpus", corpus8),
         "order 30 exceeds the enumeration guard (24); raise it via the guard argument "
         "(CLI: --guard-override)"),
        (("--guard-override", "50", "wheel", "45", corpus8),
         "order 45 exceeds 40, the largest order any guard lets a 2^n enumeration reach"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (3, "", f"dompoly: {message}\n"), argv


def test_corpus_dir_of_uncovered_orders_is_refused_before_reading(capsys, monkeypatch, tmp_path):
    _refuse_reading(monkeypatch)
    for k in (1, 3):
        shutil.copy(CORPUS_DIR / "order4.g6", tmp_path / f"order{k}.g6")
    code, out, err = run(capsys, "verify", "all", "--corpus-dir", str(tmp_path))
    assert (code, out) == (3, "")
    assert err == (f"dompoly: --corpus-dir {tmp_path} holds no order<k>.g6 file of an "
                   "order a corpus check covers\n")


@pytest.mark.parametrize("name", ["order6_0.g6", "order-4.g6", "order+6.g6", "order 6.g6",
                                  "order\u0666.g6", "order.g6"])
def test_corpus_file_names_take_ascii_digits_only(capsys, monkeypatch, tmp_path, name):
    """k in order<k>.g6 is ASCII digits: int()'s signs, spaces, underscores
    and non-ASCII digits are refused, before any file is read."""
    _refuse_reading(monkeypatch)
    shutil.copy(CORPUS_DIR / "order4.g6", tmp_path / "order4.g6")
    shutil.copy(CORPUS_DIR / "order6.g6", tmp_path / name)
    code, out, err = run(capsys, "verify", "all", "--corpus-dir", str(tmp_path))
    assert (code, out) == (3, "")
    assert err == f"dompoly: corpus file {tmp_path / name} is not named order<k>.g6 with an integer k\n"


def test_graph6_records_are_decoded_as_they_are_walked(capsys, monkeypatch, tmp_path):
    """The oracle's guard refuses an oversized --graph6 record before the
    next record is decoded, so the rest of the file is never parsed."""
    f = tmp_path / "k62-first.g6"
    f.write_bytes(b"\n".join([encode_graph6(complete(62))] + [encode_graph6(cycle(5))] * 999) + b"\n")
    parsed = []
    monkeypatch.setattr(graphs, "parse_graph6", lambda rec: parsed.append(rec) or parse_graph6(rec))
    # Only corpus classification reads records through the oracle's bit lanes.
    layouts = cache(oracle._graph6_layout.__wrapped__)
    monkeypatch.setattr(oracle, "_graph6_layout", layouts)
    refusal = "dompoly: order 62 exceeds 40, the largest order any guard lets a 2^n enumeration reach\n"
    for verb, extra in (("poly", ()), ("eval", ("--at", "2")), ("gamma", ())):
        parsed.clear()
        code, out, err = run(capsys, verb, "--graph6", str(f), *extra)
        assert (code, out, err, len(parsed)) == (3, "", refusal, 1), verb
    assert layouts.cache_info().misses == 0
    # In file order, so an oversized record before a malformed one is the one reported.
    f.write_bytes(encode_graph6(complete(62)) + b"\nnot a record!!\n")
    assert run(capsys, "gamma", "--graph6", str(f))[2] == refusal


def test_verify_choices_are_the_check_registry(capsys):
    # `verify`'s lemma argument is added when its parser first parses, so
    # the choices are read from what argparse prints: the registry's ids in
    # order, then `all`.
    ids = [*CHECKS, "all"]
    code, out, err = run(capsys, "verify", "--help")
    assert (code, err) == (0, "")
    assert "{" + ",".join(ids) + "}" in out
    code, out, err = run(capsys, "verify", "L99-nope")
    assert (code, out) == (2, "")
    assert "argument lemma: invalid choice: 'L99-nope' (choose from " in err
    listed = err[err.index("(choose from ") + len("(choose from "):err.rindex(")")]
    assert re.findall(r"[\w-]+", listed) == ids


GRAPH_CODE = {"dompoly.graphs", "dompoly.oracle", "dompoly.polynomials"}


@pytest.mark.parametrize("argv,loaded", [
    (["eval", "--family", "cycle:6", "--at", "-1"], set()),
    (["cycle", "6"], {"dompoly.polynomials"}),
    (["verify", "L5-alpha", "--max-n", "5"], {"dompoly.checks", "dompoly.polynomials"}),
    (["poly", "--family", "wheel:6"], GRAPH_CODE),
    (["verify", "T5-partitions", "--max-n", "42"], {"dompoly.checks"}),
    (["verify", "T5-ten-cases", "--max-n", "66"], {"dompoly.checks"}),
    (["search-partitions", "12"], {"dompoly.checks", "dompoly.polynomials"}),
    (["verify", "L2-union", "--max-n", "2"], GRAPH_CODE | {"dompoly.checks", "dompoly.verify"}),
])
def test_a_cold_call_imports_only_what_its_verb_runs(argv, loaded):
    # From source, as with no .pyc; modules the bare interpreter already
    # imports (site hooks, say) are not the package's doing.
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), PYTHONDONTWRITEBYTECODE="1")

    def imported(*args):
        child = subprocess.run([sys.executable, "-X", "importtime", *args],
                               env=env, capture_output=True, text=True, check=True)
        return {line.rsplit("|", 1)[1].strip() for line in child.stderr.splitlines()
                if line.startswith("import time:")}

    watched = GRAPH_CODE | {"dompoly.checks", "dompoly.verify", "dataclasses", "inspect"}
    names = imported("-m", "dompoly.cli", *argv) - imported("-c", "pass")
    assert {"dompoly", "dompoly.cycles"} <= names
    assert names & watched == loaded


def test_the_tracer_reaches_every_check(tmp_path):
    """perfbench/tracer.py wraps the names it finds in the loaded dompoly
    modules: `verify`'s `verify_*`, `classify_corpus` and the partition
    routes. A check whose runner no longer reaches its function through
    one of those names would trace as 0 s, so every check's outermost
    span must take time, and the work counts must stay as they were."""
    root = CORPUS_DIR.parents[1]
    script = root / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", script)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    subprocess.run([sys.executable, str(script), str(out), "verify", "all", "--corpus-dir", str(CORPUS_DIR)],
                   env=env, cwd=root, capture_output=True, check=True)
    metrics = tracer.summarize([json.loads(out.read_text())])
    assert [lemma for lemma in CHECKS if not metrics[f"verify.check_s.{lemma}"] > 0] == []
    assert len(CHECKS) == 12
    assert metrics["verify.classify_corpus.self_s"] > 0
    counts = {name: metrics[name] for name in (
        "oracle.domination_profile.calls", "oracle.masks_walked",
        "graphs.parse_graph6.calls", "cycles.scalar.calls",
    )}
    assert counts == {
        "oracle.domination_profile.calls": 638, "oracle.masks_walked": 1_041_160,
        # 0 parses: every corpus record is read by the oracle's bit lanes,
        # whose layout comes from `graphs._g6_layout`, not from decoding.
        # 0: `dompoly.cycles` has none of the scalar routes the tracer hooks.
        "graphs.parse_graph6.calls": 0, "cycles.scalar.calls": 0,
    }


def test_verify_default_range_matches_run_all(capsys):
    suite = {r.lemma_id: list(r.range_checked) for r in run_all()}
    range_ids = [i for i, c in CHECKS.items() if c.default_n is not None]
    assert list(suite) == range_ids
    for lemma in range_ids:
        code, out, _ = run(capsys, "verify", lemma)
        assert code == 0, lemma
        check = CHECKS[lemma]
        assert json.loads(out)["range"] == suite[lemma] == [check.min_n, check.default_n]


def test_exit_code_1_on_verification_failure(capsys, tmp_path):
    # a corpus of just P_6 is incomplete, so it decides nothing
    f = tmp_path / "only_path.g6"
    f.write_bytes(encode_graph6(path(6)) + b"\n")
    code, out, _ = run(capsys, "path-class", "6", str(f))
    assert code == 1
    assert json.loads(out)["status"] == "inconclusive"

    # W_6's record plus one unparseable line is not the order-6 corpus
    f = tmp_path / "wheel_and_junk.g6"
    f.write_bytes(encode_graph6(wheel(6)) + b"\nnot a record!!\n")
    code, out, _ = run(capsys, "wheel", "6", str(f))
    assert code == 1
    assert json.loads(out)["status"] == "inconclusive"

    f2 = tmp_path / "two_wheels.g6"
    f2.write_bytes(encode_graph6(wheel(5)) + b"\n" + encode_graph6(wheel(5)) + b"\n")
    code, out, _ = run(capsys, "wheel", "5", str(f2))
    assert code == 1


def test_exit_code_2_on_usage_errors(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["cycle"]) == 2
    assert main(["verify", "L99-nope"]) == 2
    assert main(["poly"]) == 2  # neither --family nor --graph6
    assert main(["poly", "--family", "cycle:3", "--graph6", "x.g6"]) == 2


def test_the_process_exit_path(tmp_path):
    """`python -m dompoly.cli` exits through `main_and_exit`: the answer,
    the message and the exit code are `main()`'s."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))

    def child(*argv):
        done = subprocess.run([sys.executable, "-m", "dompoly.cli", *argv],
                              env=env, capture_output=True, text=True)
        return done.returncode, done.stdout, done.stderr

    assert child("cycle", "6") == (0, (GOLDEN_DIR / "cycle6.json").read_text(), "")
    code, out, err = child("frobnicate")
    assert (code, out) == (2, "") and "invalid choice: 'frobnicate'" in err
    missing = tmp_path / "missing.g6"
    assert child("wheel", "6", str(missing)) == (
        3, "", f"dompoly: [Errno 2] No such file or directory: '{missing}'\n")


def test_main_leaves_the_collector_as_it_found_it(capsys, monkeypatch):
    """Only the exit path freezes: `main()` runs in-process many times."""
    state = gc.get_freeze_count(), gc.isenabled()
    for argv in (["cycle", "6"], ["frobnicate"], ["classify", "missing.g6"]):
        main(argv)
        assert (gc.get_freeze_count(), gc.isenabled()) == state, argv
    monkeypatch.setattr(sys, "argv", ["dompoly", "cycle", "1"])
    try:
        with pytest.raises(SystemExit) as exc:
            cli.main_and_exit()
        assert exc.value.code == 0 and gc.get_freeze_count() > state[0]
    finally:
        gc.unfreeze()


def test_the_script_and_the_module_exit_through_one_function():
    root = CORPUS_DIR.parents[1]
    scripts = re.findall(r'^dompoly = "dompoly\.cli:(\w+)"$',
                         (root / "pyproject.toml").read_text(), re.MULTILINE)
    tree = ast.parse(Path(cli.__file__).read_text())
    [block] = [node for node in tree.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(node) for node in block.body] == [f"{scripts[0]}()"]
    assert scripts == ["main_and_exit"]


def test_exit_code_3_on_input_errors(capsys, tmp_path):
    code, _, err = run(capsys, "classify", str(tmp_path / "missing.g6"))
    assert code == 3 and "dompoly:" in err
    code, _, err = run(capsys, "poly", "--family", "wheel:3")
    assert code == 3
    code, _, err = run(capsys, "poly", "--family", "complete:30")
    assert code == 3 and "guard" in err
    code, _, err = run(capsys, "verify", "COR-wheel")  # missing --n/--corpus
    assert code == 3
    # a --max-n below the check's first n would pass over an empty range
    for lemma, max_n in (("L5-alpha", "0"), ("T5-partitions", "2"),
                         ("T5-ten-cases", "5"), ("L3-cycle", "-4")):
        code, out, err = run(capsys, "verify", lemma, "--max-n", max_n)
        assert code == 3 and "dompoly:" in err and out == "", lemma
    code, out, err = run(capsys, "eval", "--family", "cycle:6", "--at", "-1",
                         "--derivative", "-1")
    assert code == 3 and "dompoly:" in err and out == ""
    corpus_dir = tmp_path / "corpora"
    corpus_dir.mkdir()
    shutil.copy(CORPUS_DIR / "order4.g6", corpus_dir / "order4.g6")
    (corpus_dir / "orderX.g6").write_bytes(b"@\n")
    code, out, err = run(capsys, "verify", "all", "--corpus-dir", str(corpus_dir))
    assert code == 3 and "orderX.g6" in err and out == ""
    # a --corpus-dir that gives no corpus check anything to run on
    no_covered_order = tmp_path / "small"
    no_covered_order.mkdir()
    shutil.copy(CORPUS_DIR / "order4.g6", no_covered_order / "order3.g6")
    for corpus_dir in (CORPUS_DIR.parent / "corpra", CORPUS_DIR / "order6.g6", no_covered_order):
        code, out, err = run(capsys, "verify", "all", "--corpus-dir", str(corpus_dir))
        assert code == 3 and "dompoly: --corpus-dir" in err and out == "", corpus_dir
    # a flag the chosen check would ignore
    corpus6 = str(CORPUS_DIR / "order6.g6")
    for argv in (
        ("all", "--max-n", "0"),
        ("all", "--min-part", "1"),
        ("all", "--n", "6"),
        ("all", "--corpus", corpus6),
        ("COR-wheel", "--n", "6", "--corpus", corpus6, "--max-n", "6"),
        ("COR-wheel", "--n", "6", "--corpus", corpus6, "--min-part", "3"),
        ("P-path-class", "--n", "6", "--corpus", corpus6, "--corpus-dir", str(CORPUS_DIR)),
        ("L5-alpha", "--min-part", "1"),
        ("T5-ten-cases", "--min-part", "3"),
        ("L5-alpha", "--n", "6"),
        ("T5-partitions", "--corpus", corpus6),
        ("L3-cycle", "--corpus-dir", str(CORPUS_DIR)),
    ):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 3 and "dompoly:" in err and argv[-2] in err and out == "", argv
    # --guard-override where nothing walks subsets or reads a corpus
    for argv in (
        ("cycle", "6"),
        ("search-partitions", "6"),
        ("poly", "--family", "cycle:6"),
        ("eval", "--family", "cycle:6", "--at", "-1"),
        ("verify", "all"),
        ("verify", "L5-alpha"),
    ):
        code, out, err = run(capsys, "--guard-override", "30", *argv)
        assert code == 3 and "--guard-override" in err and out == "", argv


def test_exit_code_3_is_input_error_and_nothing_else(capsys, monkeypatch):
    """Every input-error class is an `InputError`, which main maps to exit 3;
    a plain ValueError from a bug, or a failed cross-check, is not."""
    input_errors = (
        errors.ParameterDomainError("bad"), errors.SizeGuardError("bad"),
        errors.Graph6ParseError("bad", 0), errors.Graph6FormatError("bad"),
        errors.Graph6RangeError("bad"), errors.ValuationError("bad"),
    )
    assert not isinstance(errors.InternalInconsistencyError("bug"), errors.InputError)

    def raising(exc):
        def verb(args):
            raise exc
        return verb

    for exc in input_errors:
        assert isinstance(exc, errors.InputError)
        monkeypatch.setattr(cli, "_run_cycle", raising(exc))
        code, out, err = run(capsys, "cycle", "6")
        assert (code, out, err) == (3, "", f"dompoly: {exc}\n"), exc
    for bug in (ValueError("bug"), errors.InternalInconsistencyError("bug")):
        monkeypatch.setattr(cli, "_run_cycle", raising(bug))
        with pytest.raises(type(bug), match="^bug$"):
            main(["cycle", "6"])


@pytest.mark.parametrize("full,partial", (("order6.g6", "order06.g6"), ("order06.g6", "order6.g6")))
def test_two_corpus_files_of_one_order_are_refused(capsys, tmp_path, full, partial):
    """order6.g6 and order06.g6 both name order 6: whichever sorts first,
    the run is refused, and the message names both files."""
    records = (CORPUS_DIR / "order6.g6").read_bytes()
    (tmp_path / full).write_bytes(records)
    (tmp_path / partial).write_bytes(b"".join(records.splitlines(keepends=True)[:3]))
    code, out, err = run(capsys, "verify", "all", "--corpus-dir", str(tmp_path))
    assert code == 3 and out == ""
    assert "order6.g6" in err and "order06.g6" in err and "order 6" in err


def test_closed_stdout_is_not_a_traceback(capsys, monkeypatch, tmp_path):
    class ClosedPipe:
        def __init__(self):
            self.fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    pipe = ClosedPipe()
    monkeypatch.setattr(sys, "stdout", pipe)
    assert main(["--format", "table", "verify", "L3-cycle", "--max-n", "8"]) == 0
    os.close(pipe.fd)
    assert capsys.readouterr().err == ""
    # a failing run keeps its own exit code
    only_path = tmp_path / "only_path.g6"
    only_path.write_bytes(encode_graph6(path(6)) + b"\n")
    pipe = ClosedPipe()
    monkeypatch.setattr(sys, "stdout", pipe)
    assert main(["path-class", "6", str(only_path)]) == 1
    os.close(pipe.fd)
    assert capsys.readouterr().err == ""


def test_guard_override(capsys, tmp_path):
    f = tmp_path / "c10.g6"
    f.write_bytes(encode_graph6(cycle(10)) + b"\n")
    code, _, _ = run(capsys, "classify", str(f))
    assert code == 3
    code, out, _ = run(capsys, "--guard-override", "10", "classify", str(f))
    assert code == 0
    assert json.loads(out)["classes"][0]["class_size"] == 1
    # L3-cycle's oracle walk takes the guard too
    code, _, err = run(capsys, "--guard-override", "8", "verify", "L3-cycle", "--max-n", "10")
    assert code == 3 and "guard (8)" in err
    code, _, _ = run(capsys, "--guard-override", "10", "verify", "L3-cycle", "--max-n", "10")
    assert code == 0


def test_verify_all_corpus_dir_takes_the_guard_override(capsys, tmp_path):
    """With --corpus-dir, --guard-override reaches the corpus classification
    and the corpus checks' walks; the range checks keep their own guards
    (L3-cycle walks C_15, above 10), so nothing exits 3."""
    shutil.copy(CORPUS_DIR / "order4.g6", tmp_path)
    (tmp_path / "order10.g6").write_bytes(encode_graph6(cycle(10)) + b"\n")
    code, out, err = run(capsys, "verify", "all", "--corpus-dir", str(tmp_path))
    assert code == 3 and out == "" and "above the corpus guard (9)" in err
    code, out, err = run(capsys, "--guard-override", "10", "verify", "all",
                         "--corpus-dir", str(tmp_path))
    assert code == 1 and err == ""
    reports = {(r["lemma_id"], r["range"][0]): r for r in json.loads(out)["reports"]}
    assert reports.pop(("COR-wheel", 10))["status"] == "inconclusive"
    assert reports.pop(("COR-wheel", 4))["status"] == "pass"
    assert {key: r["range"] for key, r in reports.items()} == {
        (lemma, c.min_n): [c.min_n, c.default_n]
        for lemma, c in CHECKS.items() if c.default_n is not None
    }
    assert all(r["status"] == "pass" for r in reports.values())


def test_corpus_checks_walk_under_the_guard_override(capsys, monkeypatch):
    """The W_n, P_n and companion walks of the corpus checks run under
    --guard-override; the spy stands in for the walks above order 9."""
    walks = []
    walk = verify.domination_polynomial

    def spy(g, *, guard=oracle.DEFAULT_GUARD):
        walks.append((g.n, guard))
        return walk(g, guard=guard) if g.n <= 9 else IntPolynomial.one()

    monkeypatch.setattr(verify, "domination_polynomial", spy)
    corpus4 = str(CORPUS_DIR / "order4.g6")
    for argv, targets in (
        (("--guard-override", "30", "wheel", "25", corpus4), [(25, 30)]),
        (("--guard-override", "30", "path-class", "27", corpus4), [(27, 30)] * 3),
        (("verify", "COR-wheel", "--n", "25", "--corpus", corpus4, "--guard-override", "26"),
         [(25, 26)]),
        (("wheel", "6", corpus4), [(6, oracle.DEFAULT_GUARD)]),
    ):
        walks.clear()
        code, _, err = run(capsys, *argv)
        assert code == 1 and err == "", argv
        assert [w for w in walks if w[0] != 4] == targets, argv


def test_oversized_guard_override_is_refused_before_allocating(capsys, monkeypatch, tmp_path):
    def no_walk(*args):
        raise AssertionError("a walk above the order ceiling started")

    monkeypatch.setattr(oracle, "_cover_table", no_walk)
    for n in (50, 60):
        (tmp_path / f"c{n}.g6").write_bytes(encode_graph6(cycle(n)) + b"\n")
    refusal = "dompoly: order {} exceeds 40, the largest order any guard lets a 2^n enumeration reach\n"
    for argv, n in (
        (("--guard-override", "60", "poly", "--graph6", str(tmp_path / "c60.g6")), 60),
        (("--guard-override", "60", "gamma", "--family", "cycle:60"), 60),
        (("--guard-override", "45", "eval", "--family", "complete:41", "--at", "1"), 41),
        (("--guard-override", "70", "classify", str(tmp_path / "c50.g6")), 50),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (3, "", refusal.format(n)), argv


def test_union_check_refuses_unions_above_the_guard_before_walking(capsys, monkeypatch):
    # Its random unions reach order 2 * --max-n: the check refuses that
    # before the first walk, not once a union above the guard comes up.
    def no_walk(*args):
        raise AssertionError("a walk started")

    monkeypatch.setattr(oracle, "_cover_table", no_walk)
    for argv, reach in (
        (("verify", "L2-union", "--max-n", "13"), 24),
        (("--guard-override", "30", "verify", "L2-union", "--max-n", "16"), 30),
        (("--guard-override", "60", "verify", "L2-union", "--max-n", "25"), 40),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("dompoly: L2-union walks unions of order up to 2 * --max-n = "
                              f"{2 * int(argv[-1])}, above {reach},"), argv
        assert "--guard-override" in err and f"lower --max-n to {reach // 2}\n" in err, argv
    monkeypatch.undo()
    code, out, _ = run(capsys, "verify", "L2-union", "--max-n", "12")
    assert code == 0 and json.loads(out)["range"] == [1, 12]


def test_cycle_recurrence_check_refuses_past_the_guard_before_walking(capsys, monkeypatch):
    # L3-cycle walks C_1..C_max-n through the oracle: an order the guard or
    # the ceiling would refuse is refused before C_1 is walked.
    def no_walk(*args):
        raise AssertionError("a walk started")

    monkeypatch.setattr(oracle, "_cover_table", no_walk)
    for argv, reach in (
        (("verify", "L3-cycle", "--max-n", "25"), 24),
        (("--guard-override", "40", "verify", "L3-cycle", "--max-n", "41"), 40),
        (("--guard-override", "60", "verify", "L3-cycle", "--max-n", "50"), 40),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith(f"dompoly: L3-cycle walks C_n up to --max-n = {argv[-1]}, "
                              f"above {reach},"), argv
        assert f"guard ({argv[1] if argv[0] != 'verify' else 24})" in err, argv
        assert f"lower --max-n to {reach}\n" in err, argv
    monkeypatch.undo()
    code, out, _ = run(capsys, "verify", "L3-cycle", "--max-n", "24")
    assert code == 0 and json.loads(out)["range"] == [1, 24]


def test_search_partitions_refuses_too_many_rows_before_listing(capsys, monkeypatch):
    match = checks.match_partitions
    calls = []
    monkeypatch.setattr(checks, "match_partitions", lambda *a: calls.append(a) or match(*a))
    # Past the first n above the limit, the count is not computed: any
    # larger n is refused at once, as having more partitions than that n.
    for argv, count in ((("70",), "more than 50305"), (("42", "--min-part", "1"), "53174"),
                        (("20000",), "more than 50305")):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "search-partitions", *argv)
        assert time.perf_counter() - t0 < 1, argv
        assert (code, out, calls) == (3, "", []), argv
        assert (f"would list {count} partitions, above {cli.MAX_SEARCH_ROWS}; "
                f"verify T5-partitions --max-n {argv[0]}") in err
    for argv, rows in ((("62",), 44004), (("41", "--min-part", "1"), 44583)):
        code, out, _ = run(capsys, "search-partitions", *argv)
        assert code == 0 and len(json.loads(out)["partitions"]) == rows, argv


def test_classify_reports_parse_errors_without_failing(capsys, tmp_path):
    f = tmp_path / "mixed.g6"
    f.write_bytes(b"Bw\nnot a record!!\nA_\n")
    code, out, _ = run(capsys, "classify", str(f))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["parse_errors"]) == 1
    assert sum(c["class_size"] for c in payload["classes"]) == 2


def test_table_format(capsys, tmp_path):
    code, out, _ = run(capsys, "--format", "table", "verify", "L3-cycle", "--max-n", "8")
    assert code == 0
    assert "L3-cycle" in out and "pass" in out

    code, out, _ = run(capsys, "--format", "table", "search-partitions", "7")
    assert code == 0
    assert "4+3" in out

    f = tmp_path / "k1.g6"
    f.write_bytes(b"@\n")
    code, out, _ = run(capsys, "--format", "table", "classify", str(f))
    assert code == 0
    assert "members" in out

    # The corpus verbs are verify checks, and render as a check table.
    corpus6 = str(CORPUS_DIR / "order6.g6")
    tables = [run(capsys, "--format", "table", *argv)[:2] for argv in (
        ("wheel", "6", corpus6), ("verify", "COR-wheel", "--n", "6", "--corpus", corpus6),
    )]
    assert tables[0] == tables[1] and tables[0][1].startswith("check ")
    assert "COR-wheel" in tables[0][1]


def test_common_flags_accepted_after_the_verb(capsys):
    code, before, _ = run(capsys, "--format", "table", "verify", "L3-cycle", "--max-n", "8")
    assert code == 0
    code, after, _ = run(capsys, "verify", "L3-cycle", "--max-n", "8", "--format", "table")
    assert code == 0
    assert before == after


def test_eval_on_complete_family(capsys):
    # D(K_4, x) = (1+x)^4 - 1, so value at 1 is 15
    code, out, _ = run(capsys, "eval", "--family", "complete:4", "--at", "1")
    assert json.loads(out)["results"][0]["value"] == "15"
