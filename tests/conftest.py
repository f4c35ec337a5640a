from pathlib import Path

import pytest

from dompoly import iter_graph6_records
from dompoly.verify import classify_corpus

CORPUS_DIR = Path(__file__).resolve().parent.parent / "data" / "corpora"


def load_corpus(n: int) -> list[bytes]:
    path = CORPUS_DIR / f"order{n}.g6"
    return list(iter_graph6_records(path.read_bytes().splitlines()))


@pytest.fixture(scope="session")
def corpus():
    return load_corpus


@pytest.fixture(scope="session")
def classified(corpus):
    """Memoized corpus classification, shared by corpus-heavy tests."""
    cache = {}

    def get(n: int):
        if n not in cache:
            cache[n] = classify_corpus(corpus(n))
        return cache[n]

    return get
