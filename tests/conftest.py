import numpy as np
import pytest

from orlicz_wct import CondExp, FiniteMeasureSpace, Partition, WctOperator


@pytest.fixture
def two_atom_space():
    return FiniteMeasureSpace.from_weights([1.0, 1.0])


@pytest.fixture
def one_block():
    return Partition.single_block(2)


@pytest.fixture
def e_one_block(two_atom_space, one_block):
    return CondExp(two_atom_space, one_block)


@pytest.fixture
def r1(e_one_block):
    """Two equal atoms, one block, u = (1, 1), w = (1, -1): symbol h = 0."""
    return WctOperator([1.0, 1.0], [1.0, -1.0], e_one_block)


@pytest.fixture
def r2_space():
    """Two atoms with weights (1, 3), one block."""
    return FiniteMeasureSpace.from_weights([1.0, 3.0])


@pytest.fixture
def r3(e_one_block):
    """u = (1, 1), w = (1/2, 1/2): symbol h = 1/2."""
    return WctOperator([1.0, 1.0], [0.5, 0.5], e_one_block)


@pytest.fixture
def r4(e_one_block):
    """u = (1, 1), w = (2, 2): symbol h = 2."""
    return WctOperator([1.0, 1.0], [2.0, 2.0], e_one_block)


@pytest.fixture
def r1_scenario_dict():
    return {
        "atoms": [1.0, 1.0],
        "blocks": [[0, 1]],
        "u": [1.0, 1.0],
        "w": [1.0, -1.0],
        "young": {"kind": "power_scaled", "p": 2},
    }


def _draw_operator(seed, n_atoms=None, n_blocks=None):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9)) if n_atoms is None else n_atoms
    k = int(rng.integers(1, n + 1)) if n_blocks is None else n_blocks
    perm = rng.permutation(n)
    cuts = np.sort(rng.choice(np.arange(1, n), k - 1, replace=False)) if k > 1 else []
    blocks = tuple(tuple(sorted(c.tolist())) for c in np.split(perm, cuts))
    space = FiniteMeasureSpace.from_weights(rng.uniform(0.5, 2.0, n))
    e = CondExp(space, Partition(blocks, n))
    u = rng.uniform(-2.0, 2.0, n)
    w = rng.uniform(-2.0, 2.0, n)
    return WctOperator(u, w, e)


def random_operator(seed, n_atoms=None, n_blocks=None, well_conditioned=False):
    """Small random instance for property loops.

    With ``well_conditioned=True`` the instance is re-drawn while any power
    carries a singular value too close to its rank cut, as rank-based suites
    require.
    """
    t = _draw_operator(seed, n_atoms, n_blocks)
    if not well_conditioned:
        return t
    from orlicz_wct import matrix_of
    from orlicz_wct.subspace import powers_well_conditioned

    attempt = 0
    while (
        not powers_well_conditioned(matrix_of(t), 8, 1e-8, symbol=t.h)
        and attempt < 60
    ):
        attempt += 1
        t = _draw_operator(seed + 7919 * attempt, n_atoms, n_blocks)
    return t


def table_rows(group, ts, phis, seeds=None, tolerances=None):
    """The rows of a batch group of the harness (``_BATCH_GROUPS``) on each
    operator under its gauge, from one table of all of them: one list of
    rows per operator, read from the group's columns."""
    from orlicz_wct import harness
    from orlicz_wct.wct import OperatorTable

    tab = OperatorTable.of(ts, phis)
    seeds = np.zeros(len(ts), dtype=int) if seeds is None else np.asarray(seeds)
    tolerances = harness.DEFAULT_TOLERANCES if tolerances is None else tolerances
    columns = harness._BATCH_GROUPS[group](tab, seeds, tolerances)
    return [[column.row(k) for column in columns] for k in range(len(ts))]


def batch_rows(group, scenarios, seeds=None):
    """``table_rows`` of the scenarios' operators and gauges, under the
    first scenario's tolerances."""
    ts, phis = [s.operator() for s in scenarios], [s.phi for s in scenarios]
    return table_rows(group, ts, phis, seeds, scenarios[0].tolerances)
