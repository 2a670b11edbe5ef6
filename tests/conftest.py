import numpy as np
import pytest

from testutil import fig4_graph, pinned_vocab


@pytest.fixture(scope="session")
def vocab():
    return pinned_vocab()


@pytest.fixture(scope="session")
def fig4(vocab):
    return fig4_graph(vocab)


@pytest.fixture()
def rng():
    return np.random.default_rng(42)
