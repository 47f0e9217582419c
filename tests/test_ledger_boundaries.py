"""The per-match path crosses the boundaries the ledger times.

``benchmarks/ledger/layers.py`` times the VTask layer and promotion's
canonicalisation by replacing ``ValidationTarget.run``,
``ValidationTarget.enumerate_completions`` and
``repro.core.runtime.canonical_assignment`` with shims while one serial
iteration runs.  A caller that bound one of them before the shim went
in would bypass it, and the layer would read zero with no error.  So
the same ``setattr`` shims count calls here, and every VTask and every
promoted completion must be seen: ``run`` calls equal
``constraint_checks``, ``run`` plus ``enumerate_completions`` calls
equal ``vtasks_started``, and there is a canonicalisation for each
promotion at least.
"""

import pytest

import repro.core.runtime as runtime
from repro.apps.mqc import maximal_quasi_cliques
from repro.apps.nsq import nested_subgraph_query, paper_query_tailed_triangles
from repro.bench.datasets import dataset
from repro.core import ValidationTarget


def count_calls(monkeypatch, owner, name):
    """Replace ``owner.name`` with a shim that counts its calls."""
    real = getattr(owner, name)
    calls = []

    def shim(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, shim)
    return calls


def mqc_mico():
    return maximal_quasi_cliques(dataset("mico"), 0.6, 6).raw.stats


def nsq_youtube():
    p_m, p_plus = paper_query_tailed_triangles()
    return nested_subgraph_query(dataset("youtube"), p_m, p_plus).stats


@pytest.mark.parametrize("mine", [mqc_mico, nsq_youtube])
def test_every_vtask_crosses_the_ledger_boundaries(monkeypatch, mine):
    run = count_calls(monkeypatch, ValidationTarget, "run")
    every = count_calls(
        monkeypatch, ValidationTarget, "enumerate_completions"
    )
    canonical = count_calls(monkeypatch, runtime, "canonical_assignment")
    stats = mine()
    assert stats.vtasks_started > 0
    assert len(run) == stats.constraint_checks
    assert len(run) + len(every) == stats.vtasks_started
    assert len(canonical) >= stats.promotions
    if mine is mqc_mico:
        assert stats.promotions > 0
