"""Belief-store layouts (paper §3.4): AoS vs SoA behave identically."""

import numpy as np
import pytest

from repro.core.beliefs import (
    BLOCK_NODES,
    AoSBeliefStore,
    SoABeliefStore,
    make_store,
)

LAYOUTS = ["aos", "soa"]


@pytest.mark.parametrize("layout", LAYOUTS)
class TestStoreBasics:
    def test_set_get_roundtrip(self, layout):
        store = make_store(np.array([2, 2, 2]), layout)
        vec = np.array([0.3, 0.7], dtype=np.float32)
        store.set(1, vec)
        np.testing.assert_allclose(store.get(1), vec)

    def test_ragged_dims(self, layout):
        store = make_store(np.array([2, 3, 4]), layout)
        assert not store.uniform
        assert store.width == 4
        store.set(1, np.array([0.2, 0.3, 0.5]))
        assert len(store.get(1)) == 3
        assert len(store.get(2)) == 4

    def test_set_wrong_length_raises(self, layout):
        store = make_store(np.array([2, 2]), layout)
        with pytest.raises(ValueError):
            store.set(0, np.array([0.1, 0.2, 0.7]))

    def test_fill_uniform(self, layout):
        store = make_store(np.array([2, 4]), layout)
        store.fill_uniform()
        np.testing.assert_allclose(store.get(0), [0.5, 0.5])
        np.testing.assert_allclose(store.get(1), [0.25] * 4)

    def test_dense_roundtrip(self, layout):
        store = make_store(np.array([3, 3]), layout)
        matrix = np.array([[0.1, 0.2, 0.7], [0.5, 0.25, 0.25]], dtype=np.float32)
        store.load_dense(matrix)
        np.testing.assert_allclose(store.dense(), matrix)

    def test_copy_is_independent(self, layout):
        store = make_store(np.array([2, 2]), layout)
        store.set(0, np.array([0.9, 0.1]))
        clone = store.copy()
        clone.set(0, np.array([0.1, 0.9]))
        np.testing.assert_allclose(store.get(0), [0.9, 0.1])

    def test_iter_and_len(self, layout):
        store = make_store(np.array([2, 2, 2]), layout)
        store.fill_uniform()
        assert len(store) == 3
        assert sum(1 for _ in store) == 3

    def test_bytes_per_node_positive(self, layout):
        store = make_store(np.array([2, 2]), layout)
        assert store.bytes_per_node() > 0


class TestLayoutSpecifics:
    def test_factory_types(self):
        assert isinstance(make_store(np.array([2]), "aos"), AoSBeliefStore)
        assert isinstance(make_store(np.array([2]), "soa"), SoABeliefStore)

    def test_factory_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown belief layout"):
            make_store(np.array([2]), "interleaved")

    def test_rejects_zero_state_node(self):
        with pytest.raises(ValueError):
            make_store(np.array([2, 0]), "aos")

    def test_soa_dense_is_view_when_uniform(self):
        store = SoABeliefStore(np.array([2, 2]))
        assert store.dense_is_view()
        dense = store.dense()
        dense[0, 0] = 0.25
        assert store.get(0)[0] == np.float32(0.25)

    def test_aos_dense_is_copy(self):
        store = AoSBeliefStore(np.array([2, 2]))
        assert not store.dense_is_view()

    def test_aos_touches_fewer_lines_than_soa(self):
        """The §3.4 result: AoS needs ~56 % fewer cache accesses."""
        for width in (2, 3, 32):
            dims = np.full(10, width)
            aos = AoSBeliefStore(dims)
            soa = SoABeliefStore(dims)
            assert aos.cache_lines_per_access() < soa.cache_lines_per_access()

    def test_aos_soa_dense_agree(self):
        dims = np.array([3, 3, 3])
        data = np.random.default_rng(0).random((3, 3)).astype(np.float32)
        aos, soa = AoSBeliefStore(dims), SoABeliefStore(dims)
        aos.load_dense(data)
        soa.load_dense(data)
        np.testing.assert_allclose(aos.dense(), soa.dense())


ALL_LAYOUTS = ["aos", "soa", "blocked"]
#: uniform widths around the AoS record sizes, plus a ragged store that
#: spans more than one blocked tile
DIMS = [
    np.full(5, 1),
    np.full(2 * BLOCK_NODES + 3, 2),
    np.full(7, 8),
    np.array([2, 3, 4] * BLOCK_NODES + [1]),
]


def random_matrix(dims, seed=0):
    """A dense ``(n, width)`` matrix with each row's padding zeroed."""
    rng = np.random.default_rng(seed)
    matrix = rng.random((len(dims), int(dims.max()))).astype(np.float32)
    matrix[np.arange(matrix.shape[1]) >= dims[:, None]] = 0.0
    return matrix


@pytest.mark.parametrize("dims", DIMS, ids=["w1", "w2", "w8", "ragged"])
@pytest.mark.parametrize("layout", ALL_LAYOUTS)
class TestStoreBytes:
    """The bulk paths that move raw bytes: copy, load_dense/dense, rows."""

    def test_load_dense_roundtrip_is_bit_exact(self, layout, dims):
        store = make_store(dims, layout)
        matrix = random_matrix(dims)
        store.load_dense(matrix)
        np.testing.assert_array_equal(store.dense(), matrix)
        for i in range(len(dims)):
            np.testing.assert_array_equal(store.get(i), matrix[i, : dims[i]])

    def test_copy_is_independent_and_equal(self, layout, dims):
        store = make_store(dims, layout)
        store.load_dense(random_matrix(dims, seed=1))
        before = store.dense()
        clone = store.copy()
        assert type(clone) is type(store)
        np.testing.assert_array_equal(clone.dense(), before)
        clone.load_dense(random_matrix(dims, seed=2))
        clone.set(0, np.full(dims[0], 0.5, dtype=np.float32))
        np.testing.assert_array_equal(store.dense(), before)
        store.set(1, np.zeros(dims[1], dtype=np.float32))
        assert not np.array_equal(clone.get(1), store.get(1))

    def test_rows_equal_dense_rows(self, layout, dims):
        store = make_store(dims, layout)
        matrix = random_matrix(dims, seed=3)
        store.load_dense(matrix)
        nodes = np.array([len(dims) - 1, 0, 2, 0], dtype=np.int64)
        got = store.rows(nodes)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, store.dense()[nodes])
        got[:] = -1.0  # a fresh array, not a view into the store
        np.testing.assert_array_equal(store.dense(), matrix)
        assert store.rows(np.empty(0, dtype=np.int64)).shape == (0, matrix.shape[1])


@pytest.mark.parametrize("dims", DIMS[:3], ids=["w1", "w2", "w8"])
def test_aos_copy_and_load_keep_dim_field(dims):
    store = AoSBeliefStore(dims)
    store.load_dense(random_matrix(dims))
    clone = store.copy()
    clone.load_dense(random_matrix(dims, seed=4))
    for s in (store, clone):
        np.testing.assert_array_equal(s.records["dim"], dims)
    assert not np.shares_memory(clone.records, store.records)
