import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

from dompoly import graphs, verify
from dompoly.cli import build_parser, main
from dompoly.graphs import complete, cycle, encode_graph6, parse_graph6, path, wheel
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
    for verb, extra in (("gamma", ()), ("poly", ()), ("eval", ("--at", "2"))):
        code, out, err = run(capsys, verb, "--family", "complete:100000", *extra)
        assert (code, out, err) == (3, "", refusal.format(100000, 24)), verb
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
    f.write_bytes(b">>graph6<<\nBw\n")
    code, out, _ = run(capsys, "poly", "--graph6", str(f))
    assert code == 0
    assert json.loads(out)["results"][0]["coefficients"] == ["0", "3", "3", "1"]


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
    assert payload["details"]["route"] == "divisibility"


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


def test_verify_choices_are_the_check_registry():
    parser = build_parser()
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    lemma = next(a for a in verbs.choices["verify"]._actions if a.dest == "lemma")
    assert list(lemma.choices) == [*CHECKS, "all"]


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
