"""Property-based round-trip fuzzing of the BIF / XML-BIF parsers."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.io.bif import parse_bif, write_bif
from repro.io.network import BayesianNetwork, Cpt, Variable
from repro.io.xmlbif import parse_xmlbif, write_xmlbif

SETTINGS = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_name = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,8}", fullmatch=True)


@st.composite
def networks(draw):
    """Random single/multi-parent Bayesian networks with 2-4-state
    variables and strictly positive CPTs."""
    n = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    names = [f"v{i}_{draw(_name)}"[:12] for i in range(n)]
    net = BayesianNetwork(name=draw(_name))
    arities = []
    for name in names:
        arity = int(rng.integers(2, 5))
        arities.append(arity)
        net.add_variable(Variable(name, [f"s{k}" for k in range(arity)]))
    for i, name in enumerate(names):
        max_parents = min(i, 2)
        k = int(rng.integers(0, max_parents + 1))
        parents = list(rng.choice(i, size=k, replace=False)) if k else []
        parent_names = [names[int(p)] for p in parents]
        shape = tuple(arities[int(p)] for p in parents) + (arities[i],)
        table = rng.dirichlet(np.ones(arities[i]) * 2, size=shape[:-1])
        table = np.maximum(table, 1e-4)
        table = table / table.sum(axis=-1, keepdims=True)
        net.add_cpt(Cpt(name, parent_names, table.reshape(shape)))
    return net


def _assert_equal(a: BayesianNetwork, b: BayesianNetwork, atol: float) -> None:
    assert list(a.variables) == list(b.variables)
    for name, var in a.variables.items():
        assert var.states == b.variables[name].states
    for name, cpt in a.cpts.items():
        assert cpt.parents == b.cpts[name].parents
        np.testing.assert_allclose(cpt.table, b.cpts[name].table, atol=atol)


class TestParserRoundtrips:
    @given(networks())
    @settings(**SETTINGS)
    def test_bif_roundtrip(self, net):
        _assert_equal(net, parse_bif(write_bif(net)), atol=1e-4)

    @given(networks())
    @settings(**SETTINGS)
    def test_xmlbif_roundtrip(self, net):
        _assert_equal(net, parse_xmlbif(write_xmlbif(net)), atol=1e-4)

    @given(networks())
    @settings(**SETTINGS)
    def test_cross_format_agreement(self, net):
        """BIF -> network -> XML-BIF -> network keeps the semantics."""
        via_bif = parse_bif(write_bif(net))
        via_xml = parse_xmlbif(write_xmlbif(via_bif))
        _assert_equal(net, via_xml, atol=2e-4)

    @given(networks())
    @settings(**SETTINGS)
    def test_projection_runs_on_fuzzed_networks(self, net):
        """Every generated network converts to a belief graph the
        reference engine can process to normalized posteriors."""
        from repro.backends.reference import ReferenceBackend
        from repro.core.convergence import ConvergenceCriterion
        from repro.io.network import network_to_belief_graph

        graph = network_to_belief_graph(net)
        result = ReferenceBackend().run(
            graph, criterion=ConvergenceCriterion(max_iterations=30)
        )
        for i in range(graph.n_nodes):
            total = float(np.asarray(graph.beliefs[i]).sum())
            assert abs(total - 1.0) < 1e-3
