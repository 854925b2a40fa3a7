"""Execute-once verification: a miner runs each block's contracts exactly once.

A miner executes a proposal when it votes (on a clone of its chain) and a
leader executes its own proposal when it stages it.  ``MinerNode.commit_block``
then adopts that verified post-block state through
``Blockchain.adopt_verified`` instead of executing the block a second time,
and falls back to the full ``verify_and_append`` whenever the committed block
or the local head no longer match what was verified.  Pinned here:

* every replica executes every transaction of every block exactly once, and
  the committed chain — heads, receipts, state roots, SQLite rows — is
  byte-identical to a run forced onto the full re-verify fallback;
* each fallback case (a different block committed, a resync or a prune
  between vote and commit, a rejected proposal, a failed quorum) commits the
  right block;
* a commit frame never contributes its own transactions: the replica stores
  the block it verified or rejects the frame;
* an adopted commit is crash-safe and resumes byte-identically from SQLite.
"""

from __future__ import annotations

import sqlite3
from collections import Counter

import pytest

from helpers import counter_runtime_factory, counter_tx
from repro.blockchain.block import Block
from repro.blockchain.chain import Blockchain
from repro.blockchain.consensus import ConsensusEngine
from repro.blockchain.network import Network
from repro.blockchain.node import MinerNode
from repro.blockchain.storage import WRITE_BOUNDARIES, SQLiteBackend
from repro.blockchain.swarm import SwarmConfig, run_reference_workload, run_swarm_workload
from repro.core.config import ProtocolConfig
from repro.core.protocol import BlockchainFLProtocol
from repro.datasets.loader import make_owner_datasets
from repro.exceptions import ConsensusError, StorageError
from repro.utils.serialization import canonical_dumps
from test_async_swarm import PIN_HEAD_ROUNDS2


@pytest.fixture
def executions(monkeypatch) -> Counter:
    """Count ``execute_transaction`` calls per (replica, block height).

    Vote probes and leader staging chains are clones whose chain id is the
    replica's with a ``-clone`` suffix, so both count towards their replica.
    """
    counts: Counter = Counter()
    original = Blockchain.execute_transaction

    def counting(self, tx, block_height):
        counts[(self.chain_id.removesuffix("-clone"), block_height)] += 1
        return original(self, tx, block_height)

    monkeypatch.setattr(Blockchain, "execute_transaction", counting)
    return counts


def _force_full_reverify(monkeypatch) -> None:
    """Make every commit take the full ``verify_and_append`` fallback."""
    monkeypatch.setattr(Blockchain, "adopt_verified", lambda self, candidate: None)


def _chain_bytes(chain: Blockchain) -> str:
    """Every committed block (header, transactions, receipts) canonically encoded."""
    return canonical_dumps([block.to_dict() for block in chain.blocks])


def _sqlite_rows(path: str) -> dict[str, list[tuple]]:
    connection = sqlite3.connect(path)
    try:
        tables = [row[0] for row in connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY name"
        )]
        return {
            table: sorted(connection.execute(f"SELECT * FROM {table}").fetchall())
            for table in tables
        }
    finally:
        connection.close()


# ---------------------------------------------------------------------------
# The full protocol: 9 owners in 3 groups
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def nine_owners():
    return make_owner_datasets(n_owners=9, sigma=0.2, n_samples=360, seed=11)


def _protocol(nine_owners, root_version: int, store: str | None = None) -> BlockchainFLProtocol:
    dataset, owners = nine_owners
    config = ProtocolConfig(
        n_owners=9, n_groups=3, n_rounds=2, local_epochs=1,
        learning_rate=2.0, permutation_seed=11, state_root_version=root_version,
    )
    return BlockchainFLProtocol(
        owners, dataset.test_features, dataset.test_labels, dataset.n_classes,
        config, store=store,
    )


def _run(nine_owners, root_version: int, store: str | None) -> dict[str, str]:
    protocol = _protocol(nine_owners, root_version, store)
    protocol.run()
    protocol.close()
    return {owner: _chain_bytes(p.node.chain) for owner, p in protocol.participants.items()}


@pytest.mark.parametrize("root_version", [1, 3])
@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_every_replica_executes_each_block_once(
    nine_owners, executions, monkeypatch, tmp_path, root_version, backend
):
    store = f"sqlite:{tmp_path / 'adopted.db'}" if backend == "sqlite" else None
    protocol = _protocol(nine_owners, root_version, store)
    protocol.run()
    protocol.close()
    reference = protocol.participants[protocol.owner_ids[0]].node.chain
    txs_per_block = {block.height: len(block.transactions) for block in reference.blocks[1:]}
    assert len(txs_per_block) >= 4 and all(txs_per_block.values())
    adopted = {owner: _chain_bytes(p.node.chain) for owner, p in protocol.participants.items()}
    once = dict(executions)
    for owner, participant in protocol.participants.items():
        replica = participant.node.chain.chain_id
        assert {h: once.get((replica, h), 0) for h in txs_per_block} == txs_per_block, owner

    executions.clear()
    _force_full_reverify(monkeypatch)
    fallback_store = f"sqlite:{tmp_path / 'fallback.db'}" if backend == "sqlite" else None
    fallback = _run(nine_owners, root_version, fallback_store)
    # The fallback really re-executes: vote (or staging) plus commit.
    twice = {h: executions[(reference.chain_id, h)] for h in txs_per_block}
    assert twice == {h: 2 * n for h, n in txs_per_block.items()}
    assert adopted == fallback
    assert len(set(adopted.values())) == 1
    if backend == "sqlite":
        assert _sqlite_rows(str(tmp_path / "adopted.db")) == _sqlite_rows(str(tmp_path / "fallback.db"))
        with open(tmp_path / "adopted.db.blocklog", "rb") as adopted_log, \
                open(tmp_path / "fallback.db.blocklog", "rb") as fallback_log:
            assert adopted_log.read() == fallback_log.read()


def _interrupt_and_resume(nine_owners, tmp_path, name: str) -> str:
    """Commit setup and round 0 to SQLite, stop, resume to the end; the chain bytes."""
    dataset, owners = nine_owners
    store = f"sqlite:{tmp_path / name}"
    interrupted = _protocol(nine_owners, 3, store)
    interrupted.setup()
    interrupted.run_round(0, interrupted._template_parameters)
    interrupted.close()
    resumed = BlockchainFLProtocol.resume_from(
        store, owners, dataset.test_features, dataset.test_labels,
        dataset.n_classes, interrupted.config,
    )
    resumed.resume_run()
    resumed.close()
    return _chain_bytes(resumed.participants[resumed.owner_ids[0]].node.chain)


def test_resume_after_adopted_commits_is_byte_identical(nine_owners, monkeypatch, tmp_path):
    adopted = _interrupt_and_resume(nine_owners, tmp_path, "adopted.db")
    _force_full_reverify(monkeypatch)
    assert adopted == _interrupt_and_resume(nine_owners, tmp_path, "fallback.db")


@pytest.mark.xfail(
    strict=True,
    reason="restored state iterates contributions in sorted key order, live state in "
    "insertion order, and proportional_payouts sums them in that order; the settlement "
    "payouts then differ in the last float bit",
)
def test_resumed_nine_owner_run_matches_the_uninterrupted_run(nine_owners, tmp_path):
    resumed = _interrupt_and_resume(nine_owners, tmp_path, "run.db")
    assert resumed == _run(nine_owners, 3, None)["owner-0"]


# ---------------------------------------------------------------------------
# Node-level fallback and trust cases
# ---------------------------------------------------------------------------


def _cluster(n_nodes: int = 4, byzantine=()) -> dict[str, MinerNode]:
    network = Network()
    return {
        f"node-{i}": MinerNode(
            f"node-{i}", network, counter_runtime_factory, byzantine=f"node-{i}" in byzantine
        )
        for i in range(n_nodes)
    }


def _commit_everywhere(nodes: dict[str, MinerNode], leader_id: str, block: Block) -> None:
    """Vote on every non-leader, then commit everywhere (the honest round, by hand)."""
    for node_id, node in nodes.items():
        if node_id != leader_id:
            assert node._on_proposal(leader_id, block)["vote"]
    for node_id, node in nodes.items():
        if node_id == leader_id:
            node.commit_block(block)
        else:
            assert node._on_commit(leader_id, block)


def _submit(nodes: dict[str, MinerNode], sender: str, amount: int) -> None:
    node = nodes[sender]
    pending = sum(tx.sender == sender for tx in node.mempool.peek())
    node.submit_transaction(counter_tx(sender, node.chain.next_nonce(sender) + pending, amount))


def _assert_converged(nodes: dict[str, MinerNode]) -> None:
    assert len({_chain_bytes(node.chain) for node in nodes.values()}) == 1
    assert len({node.chain.state.state_root() for node in nodes.values()}) == 1
    for node in nodes.values():
        node.chain.validate_chain()


def test_consensus_round_executes_once_per_replica(executions):
    nodes = _cluster(5)
    engine = ConsensusEngine()
    order = sorted(nodes)
    for height in range(1, 4):
        _submit(nodes, order[height], amount=height)
        nodes[engine.select_leader(order)].run_consensus_round(engine)
    _assert_converged(nodes)
    for node in nodes.values():
        for height in range(1, 4):
            assert executions[(node.chain.chain_id, height)] == 1
        assert node._verified is None  # the slot is released at commit


def test_commit_of_a_different_block_is_verified_in_full(executions):
    nodes = _cluster()
    _submit(nodes, "node-0", amount=1)
    _submit(nodes, "node-0", amount=2)
    voted = nodes["node-1"].propose_block(limit=1)
    committed = nodes["node-2"].propose_block()
    assert voted.height == committed.height and voted.block_hash != committed.block_hash
    assert nodes["node-3"]._on_proposal("node-1", voted)["vote"]
    executions.clear()
    assert nodes["node-3"]._on_commit("node-2", committed)
    assert nodes["node-3"].chain.head is committed
    assert executions[("chain-node-3", 1)] == 2  # the commit re-executed both txs
    assert nodes["node-3"].chain.state.get("counter", "value") == 3
    assert len(nodes["node-3"].mempool) == 0


def test_resync_between_vote_and_commit(executions):
    nodes = _cluster()
    _submit(nodes, "node-0", amount=1)
    first = nodes["node-1"].propose_block()
    assert nodes["node-3"]._on_proposal("node-1", first)["vote"]
    stale = nodes["node-3"]._verified
    # The others commit it and one more block while node-3 hears nothing.
    others = {node_id: nodes[node_id] for node_id in ("node-0", "node-1", "node-2")}
    _commit_everywhere(others, "node-1", first)
    _submit(nodes, "node-2", amount=5)
    _commit_everywhere(others, "node-2", nodes["node-2"].propose_block())
    assert nodes["node-3"].try_resync()
    assert nodes["node-3"].chain.height == 2
    # The vote-time candidate is stale: its parent is no longer the head.
    assert nodes["node-3"].chain.adopt_verified(stale) is None
    assert nodes["node-3"]._on_commit("node-1", first)  # already held: acked
    _submit(nodes, "node-0", amount=7)
    third = nodes["node-0"].propose_block()
    executions.clear()
    assert nodes["node-3"]._on_commit("node-0", third)  # never voted: full verify
    assert executions[("chain-node-3", 3)] == 1
    for node_id in ("node-1", "node-2"):
        assert nodes[node_id]._on_commit("node-0", third)
    nodes["node-0"].commit_block(third)
    _assert_converged(nodes)


def test_prune_between_vote_and_commit_keeps_the_horizon():
    nodes = _cluster()
    _submit(nodes, "node-0", amount=1)
    _commit_everywhere(nodes, "node-1", nodes["node-1"].propose_block())
    _submit(nodes, "node-0", amount=2)
    block = nodes["node-2"].propose_block()
    assert nodes["node-3"]._on_proposal("node-2", block)["vote"]
    assert nodes["node-3"].chain.prune(keep_last=1) == [0]
    assert nodes["node-3"]._on_commit("node-2", block)
    # Adopting the pre-prune candidate would have resurrected version 0.
    assert nodes["node-3"].chain.oldest_retained_version() == 1
    assert nodes["node-3"].chain.head is block
    assert nodes["node-3"].chain.verify_version_roots() == [2, 1, 0]


def test_rejected_proposal_then_the_next_block(executions):
    nodes = _cluster()
    _submit(nodes, "node-0", amount=4)
    good = nodes["node-1"].propose_block()
    forged_header = type(good.header)(**{**good.header.to_dict(), "state_root": "f" * 64})
    bad = Block(header=forged_header, transactions=good.transactions, receipts=good.receipts)
    vote = nodes["node-3"]._on_proposal("node-1", bad)
    assert not vote["vote"] and "state root" in vote["error"]
    assert nodes["node-3"]._verified is None
    executions.clear()
    _commit_everywhere(nodes, "node-1", good)
    assert executions[("chain-node-3", 1)] == 1  # its vote on the good block
    _assert_converged(nodes)


def test_failed_quorum_then_the_next_block(executions):
    nodes = _cluster(5, byzantine=("node-0", "node-1", "node-2"))
    _submit(nodes, "node-3", amount=2)
    with pytest.raises(ConsensusError):
        nodes["node-3"].run_consensus_round(ConsensusEngine())
    # node-4 verified (and cached) the rejected block; node-3 staged it.
    assert nodes["node-4"]._verified is not None
    assert all(node.chain.height == 0 for node in nodes.values())
    for node in nodes.values():
        node.byzantine = False
    _submit(nodes, "node-4", amount=3)
    executions.clear()
    nodes["node-4"].run_consensus_round(ConsensusEngine())
    _assert_converged(nodes)
    assert nodes["node-3"].chain.state.get("counter", "value") == 5
    for node in nodes.values():
        assert executions[(node.chain.chain_id, 1)] == 2  # once per tx in the block


def test_tampered_commit_frame_never_stores_its_transactions():
    nodes = _cluster()
    _submit(nodes, "node-0", amount=1)
    block = nodes["node-1"].propose_block()
    assert nodes["node-3"]._on_proposal("node-1", block)["vote"]
    swapped = (counter_tx("node-0", 0, amount=1000),)
    frame = Block(header=block.header, transactions=swapped, receipts=block.receipts)
    assert frame.block_hash == block.block_hash
    # A replica holding the verified block stores that block, not the frame.
    assert nodes["node-3"]._on_commit("node-1", frame)
    assert nodes["node-3"].chain.head is block
    assert nodes["node-3"].chain.state.get("counter", "value") == 1
    nodes["node-3"].chain.validate_chain()
    # A replica that never verified it rejects the frame outright.
    assert not nodes["node-2"]._on_commit("node-1", frame)
    assert nodes["node-2"].chain.height == 0


@pytest.mark.parametrize("boundary", WRITE_BOUNDARIES)
def test_crash_during_an_adopted_commit_resumes_byte_identically(tmp_path, boundary):
    path = str(tmp_path / f"crash-{boundary}.db")
    nodes = _cluster()
    assert nodes["node-3"].chain.attach_storage(SQLiteBackend(path)) is False
    _submit(nodes, "node-0", amount=1)
    _commit_everywhere(nodes, "node-1", nodes["node-1"].propose_block())
    sealed = _chain_bytes(nodes["node-3"].chain)

    _submit(nodes, "node-0", amount=2)
    block = nodes["node-2"].propose_block()
    assert nodes["node-3"]._on_proposal("node-2", block)["vote"]

    def crash(name: str) -> None:
        if name == boundary:
            raise OSError(f"simulated power loss at {name}")

    nodes["node-3"].chain.storage.crash_hook = crash
    with pytest.raises((OSError, StorageError)):
        nodes["node-3"].commit_block(block)
    nodes["node-3"].chain.storage.close()

    reopened = Blockchain(counter_runtime_factory)
    assert reopened.attach_storage(SQLiteBackend(path)) is True
    assert _chain_bytes(reopened) == sealed
    reopened.verify_and_append(block)
    for node_id in ("node-0", "node-1"):
        nodes[node_id]._on_commit("node-2", block)
    nodes["node-2"].commit_block(block)
    assert _chain_bytes(reopened) == _chain_bytes(nodes["node-2"].chain)
    assert reopened.state.state_root() == nodes["node-2"].chain.state.state_root()
    reopened.storage.close()


# ---------------------------------------------------------------------------
# Chain-level adoption and the swarm head pin
# ---------------------------------------------------------------------------


def test_adopt_verified_matches_verify_and_append():
    leader = Blockchain(counter_runtime_factory)
    block = leader.propose_block("node-0", [counter_tx("node-0", 0, amount=6)])
    verified = Blockchain(counter_runtime_factory)
    verified.verify_and_append(block)

    adopting = Blockchain(counter_runtime_factory)
    candidate = adopting.clone()
    candidate.verify_and_append(block)
    assert adopting.adopt_verified(candidate) is block
    assert _chain_bytes(adopting) == _chain_bytes(verified)
    assert adopting.state.state_root() == verified.state.state_root()
    assert adopting.next_nonce("node-0") == 1
    # Once the head has moved, the same candidate is refused and nothing changes.
    assert adopting.adopt_verified(candidate) is None
    assert adopting.height == 1


def test_reference_workload_head_pin_is_unchanged_by_adoption(monkeypatch):
    config = SwarmConfig(peers=4, rounds=2, use_storage=False)
    assert run_reference_workload(config)["head"] == PIN_HEAD_ROUNDS2
    _force_full_reverify(monkeypatch)
    assert run_reference_workload(config)["head"] == PIN_HEAD_ROUNDS2


@pytest.mark.timeout(120)
def test_swarm_with_storage_lands_on_the_reference_head():
    config = SwarmConfig(peers=4, rounds=2, use_storage=True)
    result = run_swarm_workload(config)
    assert result["head"] == PIN_HEAD_ROUNDS2
    assert set(result["heads"].values()) == {PIN_HEAD_ROUNDS2}
