"""Pull order is no hidden behaviour: a workload's thread bodies are
independent op streams unless it declares the state they share.

Every workload a ``RunSpec`` resolves is built twice at full size, the
paper's seven threads, and its bodies are pulled to exhaustion two ways:
one op per thread per round, as the engine's rounds pull them, and thread
after thread.  The per-thread streams must match exactly when the
workload declares no ``shared_state``, and must differ when it does, so
a stale declaration fails too.  The whole file takes about half a second.
"""

import pytest

from repro.exp.spec import RunSpec
from repro.workloads import TABLE_3_WORKLOADS


def bodies(name):
    return [thread.body for thread in RunSpec(name).build().threads]


def pulled_in_rounds(name):
    """One op per live body per round, in lane order."""
    live = list(enumerate(bodies(name)))
    streams = [[] for _ in live]
    while live:
        still = []
        for k, body in live:
            op = next(body, None)
            if op is not None:
                streams[k].append(op)
                still.append((k, body))
        live = still
    return streams


def pulled_one_after_another(name):
    return [list(body) for body in bodies(name)]


@pytest.mark.parametrize("name", list(TABLE_3_WORKLOADS))
def test_streams_depend_on_pull_order_only_where_declared(name):
    declared = TABLE_3_WORKLOADS.resolve(name).shared_state
    in_rounds = pulled_in_rounds(name)
    one_after_another = pulled_one_after_another(name)
    assert [len(s) > 0 for s in in_rounds] == [True] * len(in_rounds)
    if declared:
        assert in_rounds != one_after_another, (
            f"{name} declares shared state {declared} its streams do not show"
        )
    else:
        assert in_rounds == one_after_another, (
            f"{name}'s thread bodies share state: declare it in shared_state"
        )


def test_only_primes3_declares_shared_state():
    declared = {
        name: factory.shared_state
        for name, factory in TABLE_3_WORKLOADS.items()
        if factory.shared_state
    }
    assert declared == {"Primes3": ("output_tail",)}
