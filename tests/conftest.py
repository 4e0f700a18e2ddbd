import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from semireg.families import corpus_generate
from semireg.perm import Permutation
from semireg.group import PermGroup


@pytest.fixture(scope="session")
def corpus():
    """The default corpus, built once for the whole test session."""
    return corpus_generate()


@pytest.fixture(scope="session")
def s4():
    return PermGroup(
        [
            Permutation.from_cycles(4, [(0, 1)]),
            Permutation.from_cycles(4, [(0, 1, 2, 3)]),
        ]
    )


@pytest.fixture(scope="session")
def a5():
    return PermGroup(
        [
            Permutation.from_cycles(5, [(0, 1, 2, 3, 4)]),
            Permutation.from_cycles(5, [(0, 1, 2)]),
        ]
    )


@pytest.fixture(scope="session")
def d6():
    return PermGroup(
        [
            Permutation.from_cycles(6, [(0, 1, 2, 3, 4, 5)]),
            Permutation.from_cycles(6, [(1, 5), (2, 4)]),
        ]
    )


@pytest.fixture(scope="session")
def c6_regular():
    return PermGroup([Permutation.from_cycles(6, [(0, 1, 2, 3, 4, 5)])])
