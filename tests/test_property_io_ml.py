"""Property-based tests on the I/O formats and ML substrate (hypothesis)."""

import tempfile
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.graph import BeliefGraph
from repro.core.potentials import attractive_potential
from repro.io import mtx
from repro.io.mtx import MtxFormatError, read_mtx_graph, write_mtx_graph
from repro.io.scan import scan_mtx_stats
from repro.stream.loader import load_graph_stream
from repro.ml.metrics import accuracy_score, confusion_matrix, f1_score
from repro.ml.model_selection import KFold, train_test_split
from repro.ml.preprocessing import PCA, StandardScaler

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def small_graphs(draw):
    n_nodes = draw(st.integers(min_value=2, max_value=12))
    n_edges = draw(st.integers(min_value=1, max_value=20))
    n_states = draw(st.integers(min_value=2, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    edges = rng.integers(0, n_nodes, size=(n_edges, 2))
    priors = np.maximum(rng.dirichlet(np.ones(n_states), size=n_nodes), 1e-4)
    priors /= priors.sum(axis=1, keepdims=True)
    return BeliefGraph.from_undirected(
        priors, edges, attractive_potential(n_states, 0.7)
    )


class TestMtxRoundtrip:
    @given(small_graphs(), st.booleans())
    @settings(**SETTINGS)
    def test_lossless(self, graph, inline):
        with tempfile.TemporaryDirectory() as tmp:
            d = Path(tmp)
            write_mtx_graph(graph, d / "g.nodes", d / "g.edges", inline_shared=inline)
            loaded = read_mtx_graph(d / "g.nodes", d / "g.edges")
            self._check(graph, loaded)

    @staticmethod
    def _check(graph, loaded):
        assert loaded.n_nodes == graph.n_nodes
        assert loaded.n_edges == graph.n_edges
        np.testing.assert_allclose(
            loaded.priors.dense(), graph.priors.dense(), atol=1e-5
        )
        for e in range(graph.n_edges):
            np.testing.assert_allclose(
                loaded.potentials.matrix(e), graph.potentials.matrix(e), atol=1e-5
            )


#: formatting the line loop accepts; each drawn set applies to random lines
QUIRKS = ("blank", "comment", "tabs", "crlf", "plus", "underscore", "exp", "shuffle", "nan")

#: TestErrors' mutations plus the bulk parser's edge cases
MUTATIONS = (
    "banner", "square", "self_cycle", "duplicate", "node_count", "width",
    "edge_range", "matrix_size", "edge_dims", "shared_size", "edge_count_low",
    "edge_count_high", "trailing_comment", "ragged", "id0", "id_n_plus_1", "float_id",
    "no_probabilities",
)


class MtxText:
    """A node/edge file pair as token lists, rendered with varied formatting."""

    def __init__(self, b, n, m, shared, declare_b, quirks, rng):
        self.b, self.n, self.m, self.shared = b, n, m, shared
        self.quirks, self.rng = quirks, rng
        self.banner = True
        self.node_dims = [n, n, n]
        self.edge_dims = [n, n, m]
        self.beliefs = [f"%credo beliefs: {b}"] if declare_b else []
        self.nodes = [
            [self._id(i), self._id(i)] + [self._float(p) for p in rng.random(b) + 0.01]
            for i in range(1, n + 1)
        ]
        if "shuffle" in quirks:
            self.nodes = [self.nodes[k] for k in rng.permutation(n)]
        if "nan" in quirks:
            self.nodes[rng.integers(n)][2] = "nan"
        self.directive = None
        if shared:
            self.directive = [self._float(v) for v in rng.random(b * b) + 0.01]
        self.edges = []
        for _ in range(m):
            u, v = rng.choice(n, size=2, replace=False) + 1
            values = [] if shared else [self._float(x) for x in rng.random(b * b) + 0.01]
            self.edges.append([self._id(u), self._id(v)] + values)

    def _chance(self, quirk):
        return quirk in self.quirks and self.rng.random() < 0.4

    def _id(self, i):
        s = str(int(i))
        if len(s) > 1 and self._chance("underscore"):
            s = s[0] + "_" + s[1:]
        return "+" + s if self._chance("plus") else s

    def _float(self, x):
        s = f"{x:.6e}" if self._chance("exp") else f"{x:.8g}"
        if self._chance("underscore") and s[:2] == "0." and s[2:4].isdigit():
            s = s[:3] + "_" + s[3:]
        return "+" + s if self._chance("plus") else s

    def _line(self, tokens):
        sep = self.rng.choice([" ", "\t", " \t ", "  "]) if self._chance("tabs") else " "
        pad = "  " if self._chance("tabs") else ""
        end = "\r\n" if self._chance("crlf") else "\n"
        return pad + sep.join(str(t) for t in tokens) + pad + end

    def _body(self, entries):
        out = []
        for tokens in entries:
            out.append(self._line(tokens))
            if self._chance("blank"):
                out.append(self.rng.choice(["\n", "   \t\n", "\r\n"]))
            if self._chance("comment"):
                out.append("% interleaved note 1 2\n")
        return out

    def write(self, d: Path):
        banner = ["%%MatrixMarket matrix coordinate real general\n"] if self.banner else []
        node = banner + [ln + "\n" for ln in self.beliefs]
        node += [self._line(self.node_dims)] + self._body(self.nodes)
        edge = ["%%MatrixMarket matrix coordinate real general\n"]
        if self.directive is not None:
            edge.append("%credo shared-potential: " + " ".join(self.directive) + "\n")
        edge += [self._line(self.edge_dims)] + self._body(self.edges)
        paths = d / "g.nodes", d / "g.edges"
        paths[0].write_text("".join(node), encoding="utf-8")
        paths[1].write_text("".join(edge), encoding="utf-8")
        return paths

    def mutate(self, kind):
        """Make the pair invalid in the way ``kind`` names."""
        rng, n = self.rng, self.n
        node, edge = self.nodes[rng.integers(n)], self.edges[rng.integers(self.m)]
        entry = node if rng.random() < 0.5 else edge
        if kind == "banner":
            self.banner = False
        elif kind == "square":
            self.node_dims[1] = n + 1
        elif kind == "self_cycle":
            node[1] = str(int(node[0].replace("_", "")) % n + 1)
        elif kind == "duplicate":
            other = self.nodes[(self.nodes.index(node) + 1) % n]
            node[0], node[1] = other[0], other[1]
        elif kind == "node_count":
            self.node_dims[2] = n + 1
        elif kind == "width":
            node.append("0.5")
        elif kind == "edge_range":
            edge[1] = str(n + 1)
        elif kind == "matrix_size" and self.shared:
            edge.append("0.5")
        elif kind == "matrix_size":
            edge.pop()
        elif kind == "edge_dims":
            self.edge_dims[:2] = [n + 1, n + 1]
        elif kind == "shared_size":
            self.directive = ["0.5"] * (self.b * self.b - 1)
        elif kind == "edge_count_low":
            self.edge_dims[2] = self.m - 1
        elif kind == "edge_count_high":
            self.edge_dims[2] = self.m + 1
        elif kind == "trailing_comment":
            entry += ["%", "x"]
        elif kind == "ragged" and rng.random() < 0.5:
            entry.pop()
        elif kind == "ragged":
            entry.append("0.5")
        elif kind == "id0":
            entry[:2] = ["0", "0"] if entry is node else ["0", entry[1]]
        elif kind == "id_n_plus_1":
            entry[:2] = [str(n + 1)] * 2 if entry is node else [entry[0], str(n + 1)]
        elif kind == "float_id":
            entry[:2] = ["1.0", "1.0"] if entry is node else ["1.0", entry[1]]
        elif kind == "no_probabilities":
            self.nodes = [tokens[:2] for tokens in self.nodes]


@st.composite
def mtx_texts(draw, min_edges=0):
    return MtxText(
        b=draw(st.sampled_from([1, 2, 3])),
        n=draw(st.integers(min_value=2, max_value=14)),
        m=draw(st.integers(min_value=min_edges, max_value=12)),
        shared=draw(st.booleans()),
        declare_b=draw(st.booleans()),
        # half plain files, which take the bulk path end to end
        quirks=draw(st.one_of(st.just(set()), st.sets(st.sampled_from(QUIRKS)))),
        rng=np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1))),
    )


def _graph_arrays(g):
    return {
        "priors": g.priors.dense(), "src": g.src, "dst": g.dst, "rev": g.reverse_edge,
        "in_offsets": g.in_offsets, "in_edge_ids": g.in_edge_ids,
        "out_offsets": g.out_offsets, "out_edge_ids": g.out_edge_ids,
        "potentials": np.asarray(g.potentials.stacked()),
        "shared": np.array(g.potentials.shared),
    }


def _outcome(load, paths):
    """Arrays of the loaded graph (or scan stats), or the error it raised."""
    try:
        got = load(*paths)
    except ValueError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line_no", None))
    return got if isinstance(got, tuple) else ("ok", _graph_arrays(got))


READERS = {
    "read_mtx_graph": read_mtx_graph,
    "stream chunk 1": lambda *p: load_graph_stream(*p, chunk_edges=1),
    "stream chunk 7": lambda *p: load_graph_stream(*p, chunk_edges=7),
    "stream default": load_graph_stream,
    "scan": lambda *p: ("stats", scan_mtx_stats(*p)),
}


def _all_outcomes(paths):
    """Every reader's outcome, plus the line-by-line reference's."""
    got = {name: _outcome(load, paths) for name, load in READERS.items()}
    with mock.patch.object(mtx, "_bulk_parse", lambda lines, n_values: None):
        ref = {name: _outcome(load, paths) for name, load in READERS.items()}
    return got, ref


def _assert_same(a, b):
    assert a[0] == b[0]
    if a[0] == "ok":
        for key in a[1]:
            assert np.array_equal(a[1][key], b[1][key]), key
    else:
        assert a == b


class TestMtxBulkVsLines:
    """The bulk body reader against the line-by-line loop it falls back to."""

    @given(mtx_texts())
    @settings(**{**SETTINGS, "max_examples": 60})
    def test_valid_files_read_identically(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            got, ref = _all_outcomes(text.write(Path(tmp)))
        batch = ref["read_mtx_graph"]
        if "nan" in text.quirks:
            assert batch[:2] == ("ValueError", "priors contain NaN or infinite entries")
        else:
            assert batch[0] == "ok", batch
        for name in READERS:
            _assert_same(got[name], batch if name != "scan" else ref["scan"])
            _assert_same(ref[name], batch if name != "scan" else ref["scan"])
        if batch[0] == "ok":
            arrays, stats = batch[1], got["scan"][1]
            n = text.n
            assert (stats.n_nodes, stats.n_edges, stats.n_beliefs) == (n, text.m, text.b)
            assert stats.max_out_degree == np.bincount(arrays["src"][0::2], minlength=n).max()
            assert stats.max_in_degree == np.bincount(arrays["dst"][0::2], minlength=n).max()

    @pytest.mark.parametrize("kind", MUTATIONS)
    @given(text=mtx_texts(min_edges=1))
    @settings(**{**SETTINGS, "max_examples": 30})
    def test_malformed_files_fail_identically(self, kind, text):
        text.mutate(kind)
        with tempfile.TemporaryDirectory() as tmp:
            got, ref = _all_outcomes(text.write(Path(tmp)))
        expected = ref["read_mtx_graph"]
        assert expected[0] == MtxFormatError.__name__, (kind, expected)
        for name in READERS:
            assert got[name] == expected, name
            assert ref[name] == expected, name

    @given(small_graphs(), st.booleans())
    @settings(**SETTINGS)
    def test_written_files_take_the_bulk_path(self, graph, inline):
        def refuse(*args):
            raise AssertionError("line path taken")

        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(mtx, "_node_lines", refuse), \
                mock.patch.object(mtx, "_edge_lines", refuse):
            paths = Path(tmp) / "g.nodes", Path(tmp) / "g.edges"
            write_mtx_graph(graph, *paths, inline_shared=inline)
            read_mtx_graph(*paths)
            load_graph_stream(*paths, chunk_edges=3)
            scan_mtx_stats(*paths)

    @given(
        n=st.integers(min_value=1, max_value=40),
        raw=st.lists(st.integers(min_value=0, max_value=10**6), max_size=120),
    )
    @example(n=1, raw=[])
    @example(n=1, raw=[0, 5, 3])
    @example(n=7, raw=[])
    @settings(**SETTINGS)
    def test_csr_order_is_the_stable_argsort(self, n, raw):
        keys = np.array(raw, dtype=np.int64) % n
        offsets, order = BeliefGraph._csr(SimpleNamespace(n_nodes=n), keys)
        assert order.dtype == np.int64
        np.testing.assert_array_equal(order, np.argsort(keys, kind="stable"))
        np.testing.assert_array_equal(offsets[1:], np.cumsum(np.bincount(keys, minlength=n)))

    def test_csr_key_overflow_raises(self):
        with pytest.raises(ValueError, match="overflow"):
            BeliefGraph._csr(SimpleNamespace(n_nodes=2**62), np.zeros(2, dtype=np.int64))


class TestMetricProperties:
    labels = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=60)

    @given(labels)
    @settings(**SETTINGS)
    def test_perfect_prediction_scores_one(self, y):
        assert accuracy_score(y, y) == 1.0
        if len(set(y)) <= 2:
            assert f1_score(y, y) in (0.0, 1.0)  # 0.0 only if positives absent

    @given(labels, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(**SETTINGS)
    def test_f1_bounded_and_symmetric_in_shuffles(self, y, seed):
        rng = np.random.default_rng(seed)
        y = np.asarray(y)
        pred = rng.permutation(y)
        score = f1_score(y, pred)
        assert 0.0 <= score <= 1.0

    @given(labels, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(**SETTINGS)
    def test_confusion_matrix_totals(self, y, seed):
        rng = np.random.default_rng(seed)
        y = np.asarray(y)
        pred = rng.integers(0, 2, size=len(y))
        cm = confusion_matrix(y, pred, labels=[0, 1])
        assert cm.sum() == len(y)
        assert (cm >= 0).all()


class TestModelSelectionProperties:
    @given(
        st.integers(min_value=10, max_value=80),
        st.floats(min_value=0.1, max_value=0.9),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(**SETTINGS)
    def test_split_is_partition(self, n, test_size, seed):
        X = np.arange(n).reshape(-1, 1)
        y = np.arange(n) % 2
        Xtr, Xte, ytr, yte = train_test_split(
            X, y, test_size=test_size, random_state=seed
        )
        merged = np.sort(np.concatenate([Xtr, Xte]).reshape(-1))
        np.testing.assert_array_equal(merged, np.arange(n))
        assert len(ytr) + len(yte) == n

    @given(
        st.integers(min_value=6, max_value=50),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(**SETTINGS)
    def test_kfold_partition(self, n, k, seed):
        folds = list(KFold(k, random_state=seed).split(np.arange(n)))
        assert len(folds) == k
        all_test = np.sort(np.concatenate([t for _, t in folds]))
        np.testing.assert_array_equal(all_test, np.arange(n))


class TestPreprocessingProperties:
    matrices = st.integers(min_value=0, max_value=2**31 - 1)

    @given(matrices)
    @settings(**SETTINGS)
    def test_scaler_inverse_identity(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(20, 4)) * rng.uniform(0.5, 4.0, size=4)
        scaler = StandardScaler().fit(X)
        np.testing.assert_allclose(
            scaler.inverse_transform(scaler.transform(X)), X, atol=1e-9
        )

    @given(matrices)
    @settings(**SETTINGS)
    def test_pca_variance_ratios_sum_below_one(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(30, 5))
        pca = PCA(3).fit(X)
        ratios = pca.explained_variance_ratio_
        assert (ratios >= -1e-12).all()
        assert ratios.sum() <= 1.0 + 1e-9
        # components are orthonormal
        gram = pca.components_ @ pca.components_.T
        np.testing.assert_allclose(gram, np.eye(3), atol=1e-8)
