"""Reference routines shared by several test modules, as fixtures."""

import pytest


def _reduced_words(W, a):
    """All reduced words of the element a of the Coxeter system W, sorted:
    for each descent s of a, the reduced words of a s followed by s."""
    if a == 0:
        return [()]
    return sorted(word + (s,) for s, b in enumerate(W.right[a])
                  if W.length[b] < W.length[a]
                  for word in _reduced_words(W, b))


@pytest.fixture(scope="session")
def reduced_words():
    return _reduced_words


def _chamber_neighbors(cx, c):
    """(i, e) for each chamber e i-adjacent to c, by type i."""
    for i in range(cx.rank):
        for e in cx.copanel_members(i, c):
            if e != c:
                yield i, e


@pytest.fixture(scope="session")
def chamber_neighbors():
    return _chamber_neighbors
