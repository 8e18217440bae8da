"""Shared corpus and a session-wide solve cache for the test suite."""

from __future__ import annotations

import random

import pytest

from cordiality import (
    Graph,
    emit_graph6,
    from_edges,
    game_number,
    path_graph,
    random_connected_graph,
    trees_by_order,
)

CORPUS_SEED = 8191
RANDOM_CORPUS_SIZE = 200
RANDOM_MIN_N = 5
RANDOM_MAX_N = 9
PATH_CORPUS_MAX_N = 14
TREE_CORPUS_MAX_N = 9


def path_bound_mod6(n: int) -> int:
    """The paper's path bound in its mod-6 form, a second statement of
    ``path_bound`` that the tests check it against."""
    return 2 * (n // 6) + {0: -1, 1: 0, 2: 1, 3: 0, 4: 1, 5: 2}[n % 6]


def scrambled_path(n: int, rng: random.Random) -> Graph:
    """The path on ``n`` vertices under a seeded numbering, drawn again until
    it is not index order (for ``n >= 3``; every smaller path is in index
    order), so the solver searches it without folding mirror images."""
    while True:
        order = list(range(n))
        rng.shuffle(order)
        g = from_edges(n, zip(order, order[1:]))
        if n < 3 or g != path_graph(n):
            return g


def build_random_corpus() -> list[Graph]:
    rng = random.Random(CORPUS_SEED)
    graphs = []
    for _ in range(RANDOM_CORPUS_SIZE):
        n = rng.randint(RANDOM_MIN_N, RANDOM_MAX_N)
        graphs.append(random_connected_graph(n, 0.45, rng))
    return graphs


@pytest.fixture(scope="session")
def random_corpus() -> list[Graph]:
    return build_random_corpus()


@pytest.fixture(scope="session")
def tree_corpus() -> dict[int, list[Graph]]:
    orders = enumerate(trees_by_order(TREE_CORPUS_MAX_N), 1)
    return {n: trees for n, trees in orders if n >= 2}


@pytest.fixture(scope="session")
def path_corpus() -> list[Graph]:
    return [path_graph(n) for n in range(1, PATH_CORPUS_MAX_N + 1)]


@pytest.fixture(scope="session")
def full_corpus(path_corpus, tree_corpus, random_corpus) -> list[Graph]:
    graphs = list(path_corpus)
    for trees in tree_corpus.values():
        graphs.extend(trees)
    graphs.extend(random_corpus)
    return graphs


@pytest.fixture(scope="session")
def solved():
    """Memoized game_number lookups shared by the whole session."""
    cache: dict[tuple[str, str], int] = {}

    def get(g: Graph, which: str) -> int:
        key = (emit_graph6(g), which)
        if key not in cache:
            cache[key] = game_number(g, which)
        return cache[key]

    return get
