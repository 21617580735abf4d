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
