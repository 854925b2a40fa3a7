"""Self-checks of the benchmark's tracer.

Run from the root of the repository::

    python3 -m pytest perfbench/test_tracer.py -q

They use scaled-down copies of the benchmark's workloads so they finish in
well under a minute.
"""

from __future__ import annotations

import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import probes  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, CrossDeviceWorkload, OnChainWorkload, scratch_directory,
)

SMALL = {
    "onchain-exact": OnChainWorkload(replace(
        WORKLOADS["onchain-exact"].spec, owners=6, groups=3, rounds=2, samples=400, local_epochs=1,
    )),
    "onchain-churn-lossy": OnChainWorkload(replace(
        WORKLOADS["onchain-churn-lossy"].spec, owners=8, groups=2, samples=400, local_epochs=1,
        sv_samples=8,
    )),
    "crossdevice-1k": CrossDeviceWorkload(replace(
        WORKLOADS["crossdevice-1k"].spec, devices=48, shard_size=8, sv_samples=8, rounds=2,
    )),
}


def _traced_pass(workload, seed, tmp_path):
    tracer = Tracer()
    probes.install(tracer)
    with scratch_directory(tmp_path) as scratch_dir:
        record = workload.run_pass(seed, scratch_dir, tracer)
    tracer.unpatch()
    return tracer, record


def _layers(workload, seed, tmp_path):
    tracer, record = _traced_pass(workload, seed, tmp_path)
    return probes.layer_metrics(tracer, record.public, 0.0)


def _counts(workload, seed, tmp_path):
    """The deterministic part of the per-layer report: everything but times."""
    values = _layers(workload, seed, tmp_path)
    return {
        name: values[name] for name, unit, _ in probes.PER_LAYER
        if unit != "s" and unit != "ms" and name != "trace.overhead_frac"
    }


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_pass_matches_plain_pass_and_leaves_no_wrapper(name, tmp_path):
    workload = SMALL[name]
    with scratch_directory(tmp_path) as scratch_dir:
        plain = workload.run_pass(1, scratch_dir)
    assert not plain.error and plain.failed == 0, plain.error or plain.done

    tracer, traced = _traced_pass(workload, 1, tmp_path)
    assert not traced.error and traced.failed == 0, traced.error or traced.done
    assert traced.digest == plain.digest
    assert tracer.violations() == []
    assert tracer.leftovers() == []

    roots = [i for i, parent in enumerate(tracer.parent) if parent < 0]
    assert [tracer.names[i] for i in roots] == [probes.ROOT]
    covered = tracer.child_ns()
    own = [tracer.duration_ns(i) - covered[i] for i in range(len(tracer.names))]
    assert min(own) >= 0
    assert sum(own) == tracer.duration_ns(roots[0])

    # The next untraced pass runs on the originals and reproduces the head.
    with scratch_directory(tmp_path) as scratch_dir:
        again = workload.run_pass(1, scratch_dir)
    assert again.digest == plain.digest


@pytest.mark.parametrize("name", sorted(SMALL))
def test_per_layer_counts_repeat_for_a_seed(name, tmp_path):
    first = _counts(SMALL[name], 2, tmp_path)
    second = _counts(SMALL[name], 2, tmp_path)
    assert first == second


def test_layers_run_where_expected(tmp_path):
    chain = _layers(SMALL["onchain-churn-lossy"], 2, tmp_path)
    assert chain["chain.verify_and_append.calls"] > 0
    assert chain["storage.commit_block.calls"] > 0
    assert chain["contracts.read_active_cohort.calls"] > 0
    assert chain["shapley.estimator.calls"] > 0
    assert chain["audit.reexec.s"] > 0
    devices = _layers(SMALL["crossdevice-1k"], 2, tmp_path)
    assert devices["crypto.expand_per_pair"] == 2.0
    assert devices["chain.verify_and_append.calls"] == 0
    assert devices["audit.shapley.s"] > 0


@pytest.mark.xfail(strict=True, reason=(
    "program defect: under churn, message loss and authority rotation a round's first "
    "attempt can commit a block that does not finalize the round and still abort; the "
    "retry re-submits the same transactions, each sender's own node re-admits its now "
    "stale one, and the next proposal fails with 'nonce mismatch'.  The tests above "
    "use seeds 1 and 2, on which it does not occur"
))
@pytest.mark.parametrize("workload, seed", [
    (SMALL["onchain-churn-lossy"], 3), (WORKLOADS["onchain-churn-lossy"], 106),
])
def test_churn_under_loss_known_failing_seeds(workload, seed, tmp_path):
    with scratch_directory(tmp_path) as scratch_dir:
        record = workload.run_pass(seed, scratch_dir)
    assert not record.error, record.error


def test_function_patch_reaches_importers_and_unpatch_sweeps_late_imports():
    from repro.blockchain import transaction
    from repro.utils import hashing

    original = hashing.hash_payload
    tracer = Tracer()
    tracer.patch_everywhere(hashing, "hash_payload", "probe")
    wrapper = hashing.hash_payload
    assert wrapper is not original and transaction.hash_payload is wrapper

    # A module imported while the wrapper is installed binds the wrapper.
    late = types.ModuleType("repro._late_importer")
    late.hash_payload = wrapper
    sys.modules[late.__name__] = late
    try:
        assert transaction.hash_payload({"a": 1}) == original({"a": 1})
        assert tracer.names == ["probe"]
        tracer.unpatch()
        assert hashing.hash_payload is original
        assert transaction.hash_payload is original
        assert late.hash_payload is original
        assert tracer.leftovers() == []
    finally:
        del sys.modules[late.__name__]


def test_method_descriptors_are_restored_exactly():
    from repro.blockchain.consensus import ConsensusEngine
    from repro.blockchain.transaction import Transaction
    from repro.crypto.dh import DHKeyPair

    before = [vars(cls)[attr] for cls, attr in (
        (ConsensusEngine, "tally"), (Transaction, "tx_hash"), (DHKeyPair, "generate"),
    )]
    tracer = Tracer()
    tracer.patch(ConsensusEngine, "tally", None, lambda *_: None)
    tracer.patch(Transaction, "tx_hash", "tx.hash")
    tracer.patch(DHKeyPair, "generate", "crypto.keygen")
    assert isinstance(vars(ConsensusEngine)["tally"], staticmethod)
    assert isinstance(vars(Transaction)["tx_hash"], property)
    assert isinstance(vars(DHKeyPair)["generate"], classmethod)
    assert tracer.leftovers()
    tracer.unpatch()
    after = [vars(cls)[attr] for cls, attr in (
        (ConsensusEngine, "tally"), (Transaction, "tx_hash"), (DHKeyPair, "generate"),
    )]
    assert all(a is b for a, b in zip(before, after))
    assert tracer.leftovers() == []


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("child"):
            with tracer.span("grandchild"):
                pass
        with tracer.span("child"):
            pass
    assert tracer.violations() == []
    totals = tracer.totals()
    assert totals["child"].calls == 2
    assert sum(entry.self_ns for entry in totals.values()) == totals["root"].incl_ns
    assert totals["root"].self_ns == totals["root"].incl_ns - totals["child"].incl_ns
