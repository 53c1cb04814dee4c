import numpy as np
import pytest

from skewbench import make_algebra
from skewbench.models import partial_function_algebra


@pytest.fixture(scope="session")
def chain2():
    return make_algebra(["0", "1"], [[0, 0], [0, 1]], [[0, 1], [1, 1]], top=1, bottom=0)


@pytest.fixture(scope="session")
def chain3():
    n = 3
    meet = [[min(i, j) for j in range(n)] for i in range(n)]
    join = [[max(i, j) for j in range(n)] for i in range(n)]
    return make_algebra(["0", "1", "2"], meet, join, top=2, bottom=0)


@pytest.fixture(scope="session")
def chain12():
    # a 12-element chain with a declared top and no declared bottom
    n = 12
    meet = [[min(i, j) for j in range(n)] for i in range(n)]
    join = [[max(i, j) for j in range(n)] for i in range(n)]
    return make_algebra([f"c{i}" for i in range(n)], meet, join, top=n - 1)


@pytest.fixture(scope="session")
def rect2():
    # left-handed: x∧y = x, x∨y = y
    return make_algebra(["a", "b"], [[0, 0], [1, 1]], [[0, 1], [0, 1]])


@pytest.fixture(scope="session")
def rect2_right():
    return make_algebra(["a", "b"], [[0, 1], [0, 1]], [[0, 0], [1, 1]])


@pytest.fixture(scope="session")
def t3():
    # left-handed rectangular pair {a,b} below an adjoined top: a skew chain
    meet = [[0, 0, 0], [1, 1, 1], [0, 1, 2]]
    join = [[0, 1, 2], [0, 1, 2], [2, 2, 2]]
    return make_algebra(["a", "b", "1"], meet, join, top=2)


@pytest.fixture(scope="session")
def rect2_bottom():
    # rectangular pair above an adjoined bottom: not conormal
    meet = [[0, 0, 2], [1, 1, 2], [2, 2, 2]]
    join = [[0, 1, 0], [0, 1, 1], [0, 1, 2]]
    return make_algebra(["a", "b", "0"], meet, join, bottom=2)


@pytest.fixture(scope="session")
def semilattice2():
    # meet and join are the same semilattice: idempotent, not a skew lattice
    return make_algebra(["a", "b"], [[0, 0], [0, 1]], [[0, 0], [0, 1]])


@pytest.fixture(scope="session")
def left_zero_top():
    # a left-zero pair {a,b} for both operations under a top: idempotent and
    # associative, but (x∧y)∨y=y fails at (a, b), so not a skew lattice
    meet = [[0, 0, 0], [1, 1, 1], [0, 1, 2]]
    join = [[0, 0, 2], [1, 1, 2], [2, 2, 2]]
    return make_algebra(["a", "b", "1"], meet, join, top=2)


@pytest.fixture(scope="session")
def n5():
    # the nonmodular five-element lattice: 0 < a < c < 1, 0 < b < 1
    meet = [
        [0, 0, 0, 0, 0],
        [0, 1, 0, 1, 1],
        [0, 0, 2, 0, 2],
        [0, 1, 0, 3, 3],
        [0, 1, 2, 3, 4],
    ]
    join = [
        [0, 1, 2, 3, 4],
        [1, 1, 4, 3, 4],
        [2, 4, 2, 4, 4],
        [3, 3, 4, 3, 4],
        [4, 4, 4, 4, 4],
    ]
    return make_algebra(["0", "a", "b", "c", "1"], meet, join, top=4, bottom=0)


@pytest.fixture(scope="session")
def pf11():
    return partial_function_algebra(1, 1)


@pytest.fixture(scope="session")
def pf12():
    return partial_function_algebra(1, 2)


@pytest.fixture(scope="session")
def pf22():
    return partial_function_algebra(2, 2)


def shuffle_algebra(A, seed=0):
    """Isomorphic copy under a pseudorandom relabeling, for stability tests."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(A.n)
    inv = np.argsort(perm)
    names = tuple(A.names[int(inv[i])] for i in range(A.n))

    def relabel(table):
        out = np.zeros_like(np.asarray(table))
        for i in range(A.n):
            for j in range(A.n):
                out[perm[i], perm[j]] = perm[table[i, j]]
        return out

    return make_algebra(
        names,
        relabel(A.meet),
        relabel(A.join),
        top=int(perm[A.top]) if A.top is not None else None,
        bottom=int(perm[A.bottom]) if A.bottom is not None else None,
        arrow=relabel(A.arrow) if A.arrow is not None else None,
    )
