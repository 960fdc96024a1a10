import numpy as np
import pytest

from upsilon_cd.chains import MarkovChain, chain_from_rates


def random_reversible_chain(rng, n=None, p_edge=0.6, unweighted=False) -> MarkovChain:
    """Random connected reversible chain: random positive measure, random
    symmetric support (spanning tree + extra edges), rates forced into
    detailed balance."""
    if n is None:
        n = int(rng.integers(3, 9))
    pi = rng.uniform(0.2, 2.0, size=n)
    edges = set()
    order = rng.permutation(n)
    for i in range(1, n):
        a, b = int(order[i]), int(order[int(rng.integers(0, i))])
        edges.add((min(a, b), max(a, b)))
    for a in range(n):
        for b in range(a + 1, n):
            if rng.uniform() < p_edge:
                edges.add((a, b))
    table = {}
    for a, b in edges:
        if unweighted:
            table[(a, b)] = 1.0
            table[(b, a)] = 1.0
        else:
            k = float(rng.uniform(0.3, 3.0))
            table[(a, b)] = k
            table[(b, a)] = k * pi[a] / pi[b]
    measure = None if unweighted else list(pi)
    return chain_from_rates([str(i) for i in range(n)], table, measure=measure)


def random_tree(rng, n: int) -> MarkovChain:
    """Random recursive tree with reversible random weights (the recipe of
    the benchmark's tree_report chains)."""
    pi = rng.uniform(0.5, 2.0, size=n)
    table = {}
    for i in range(1, n):
        j = int(rng.integers(0, i))
        k = float(rng.uniform(0.3, 3.0))
        table[(j, i)] = k
        table[(i, j)] = k * pi[j] / pi[i]
    return chain_from_rates([str(i) for i in range(n)], table, measure=list(pi))


def random_unweighted_graph_chain(rng, n=None) -> MarkovChain:
    return random_reversible_chain(rng, n=n, unweighted=True)


def random_positive_density(chain, rng) -> np.ndarray:
    rho = np.exp(rng.normal(scale=0.7, size=chain.n))
    return rho / float(chain.pi @ rho)


@pytest.fixture
def rng():
    return np.random.default_rng(20240601)
