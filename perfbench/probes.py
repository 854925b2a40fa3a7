"""Where the traced pass puts its probes, and how spans become per-layer metrics.

Every probe wraps a public function or method of one layer of the program
(see ``layers.json`` for which end-to-end metric each layer metric should
move, on which workload).  Metric names end in ``.s`` for self time in
seconds, ``.calls`` for call counts, and name other units explicitly; the
``audit.*`` times are inclusive, because the audit is a consumer of the
chain and Shapley layers rather than a layer of its own.
"""

from __future__ import annotations

import statistics
from typing import Any

from tracer import Tracer

#: Span names of the benchmark's own phases (opened by the workloads).
ROOT = "bench.pass"
AUDIT_PHASE = "bench.audit"
#: The program's audit entry point; spans under it are the auditor's, not the miners'.
PROGRAM_AUDIT = "audit.chain"

_STATE_METHODS = ("get", "set", "state_root", "copy", "snapshot", "restore", "seal_version")


def _arg(args: tuple, kwargs: dict, position: int, key: str) -> Any:
    return args[position] if len(args) > position else kwargs[key]


def _contract_span(args: tuple, kwargs: dict) -> str:
    # ContractRuntime.execute(self, state, sender, contract_name, method_name, args, ...)
    return f"contracts.{_arg(args, kwargs, 3, 'contract_name')}.{_arg(args, kwargs, 4, 'method_name')}"


def _observe_dumps(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["serialization.canonical_dumps.bytes"] += len(result)


def _observe_drbg(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["crypto.drbg.bytes"] += len(result)


def _observe_expand(tracer: Tracer, args, kwargs, result) -> None:
    # One entry per (pair secret, round): both endpoints of a pair share the secret.
    tracer.sets["crypto.pairs"].add((_arg(args, kwargs, 0, "secret"), _arg(args, kwargs, 1, "round_number")))


def _observe_rows(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["shapley.score_batch.rows"] += len(result)


def _observe_estimate(tracer: Tracer, args, kwargs, result) -> None:
    # Deterministic estimator counters only; the telemetry's wall time is not read.
    telemetry = result.telemetry or {}
    tracer.counters["shapley.estimator.coalitions"] += int(telemetry.get("coalitions", 0))
    tracer.counters["shapley.estimator.cache_hits"] += int(telemetry.get("cache_hits", 0))


def _observe_tally(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["consensus.rejects"] += result.reject_count


def _observe_round_attempt(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["pipeline.round_attempts"] += 1


def install(tracer: Tracer) -> None:
    """Wrap every probed function; :meth:`Tracer.unpatch` undoes all of it."""
    from repro.blockchain import chain, consensus, mempool, network, node, state, storage, transaction
    from repro.blockchain.contracts import base, registry
    from repro.core import audit, participant, pipeline
    from repro.crypto import dh, masking, prng
    from repro.shapley import engine, estimator, utility
    from repro.utils import hashing, serialization

    stages = [type(stage) for stage in pipeline.DEFAULT_ROUND_STAGES]
    for cls in (*stages, pipeline.SetupStage, pipeline.SettlementStage):
        tracer.patch(cls, "run", "pipeline." + cls.name.replace("-", "_"))
    tracer.patch(pipeline.RoundScheduler, "run_round", "pipeline.round")
    tracer.patch(network.Network, "begin_round", None, _observe_round_attempt)

    tracer.patch(participant.Participant, "train_local", "fl.train_local")

    tracer.patch(masking.PairwiseMasker, "mask", "crypto.mask")
    tracer.patch_everywhere(prng, "expand_mask", "crypto.expand_mask", _observe_expand)
    tracer.patch(prng.HmacDrbg, "generate", None, _observe_drbg)
    tracer.patch_everywhere(dh, "shared_secret", "crypto.shared_secret")
    tracer.patch(masking.SecureAggregator, "aggregate_mean", "crypto.aggregate")
    tracer.patch(dh.DHKeyPair, "generate", "crypto.keygen")

    for method in ("verify_and_append", "execute_transaction", "clone", "catch_up_from"):
        tracer.patch(chain.Blockchain, method, "chain." + method)
    for method in ("replay", "replay_prefix", "validate_chain", "verify_version_roots"):
        tracer.patch(chain.Blockchain, method, "chain.history")
    tracer.patch(transaction.Transaction, "tx_hash", "tx.hash")
    tracer.patch(transaction.Transaction, "verify_signature", "tx.verify_signature")

    tracer.patch(base.ContractRuntime, "execute", _contract_span)
    tracer.patch_everywhere(registry, "read_active_cohort", "contracts.read_active_cohort")

    for method in _STATE_METHODS:
        tracer.patch(state.WorldState, method, "state." + method)

    tracer.patch_everywhere(serialization, "canonical_dumps", "serialization.canonical_dumps", _observe_dumps)
    tracer.patch_everywhere(hashing, "hash_payload", "serialization.hash_payload")

    tracer.patch(network.Network, "broadcast_detailed", "network.deliver")
    tracer.patch(network.Network, "send_detailed", "network.deliver")
    tracer.patch(network.Network, "_payload_size", "network.payload_size")
    tracer.patch(mempool.Mempool, "add", "mempool.add")

    tracer.patch(node.MinerNode, "propose_block", "node.propose")
    tracer.patch(node.MinerNode, "collect_votes", "node.collect_votes")
    tracer.patch(node.MinerNode, "commit_block", "node.commit")
    tracer.patch(consensus.ConsensusEngine, "tally", None, _observe_tally)

    tracer.patch(storage.SQLiteBackend, "commit_block", "storage.commit_block")

    tracer.patch_everywhere(engine, "coalition_utility_table", "shapley.utility_table")
    tracer.patch(utility.AccuracyUtility, "score_batch", "shapley.score_batch", _observe_rows)
    tracer.patch_everywhere(estimator, "sampled_group_shapley", "shapley.estimator", _observe_estimate)

    tracer.patch_everywhere(audit, "audit_chain", PROGRAM_AUDIT)


#: (metric name, unit, better) for every per-layer metric, in report order.
PER_LAYER: list[tuple[str, str, str]] = [
    *[(f"pipeline.{stage}.s", "s", "lower") for stage in
      ("sharding", "local_training", "masking_submission", "block_proposal", "setup", "settlement")],
    ("pipeline.round_attempts", "count", "lower"),
    ("fl.train_local.calls", "count", "lower"),
    ("fl.train_local.s", "s", "lower"),
    ("crypto.mask.calls", "count", "lower"),
    ("crypto.mask.s", "s", "lower"),
    ("crypto.mask_ms.p50", "ms", "lower"),
    ("crypto.mask_ms.p99", "ms", "lower"),
    ("crypto.expand_mask.calls", "count", "lower"),
    ("crypto.expand_mask.s", "s", "lower"),
    ("crypto.expand_per_pair", "ratio", "lower"),
    ("crypto.shared_secret.calls", "count", "lower"),
    ("crypto.shared_secret.s", "s", "lower"),
    ("crypto.drbg.bytes", "bytes", "lower"),
    ("crypto.aggregate.s", "s", "lower"),
    ("crypto.keygen.s", "s", "lower"),
    ("chain.verify_and_append.calls", "count", "lower"),
    ("chain.verify_and_append.s", "s", "lower"),
    ("chain.reexec_per_commit", "ratio", "lower"),
    ("chain.verify_s_per_replica_block", "s", "lower"),
    ("chain.execute_transaction.calls", "count", "lower"),
    ("chain.execute_transaction.s", "s", "lower"),
    ("chain.clone.calls", "count", "lower"),
    ("chain.clone.s", "s", "lower"),
    ("chain.catch_up_from.calls", "count", "lower"),
    ("chain.catch_up_from.s", "s", "lower"),
    ("tx.hash.calls", "count", "lower"),
    ("tx.hash.s", "s", "lower"),
    ("tx.verify_signature.calls", "count", "lower"),
    ("tx.verify_signature.s", "s", "lower"),
    ("contracts.execute.s", "s", "lower"),
    ("contracts.fl_training.submit_masked_update.calls", "count", "lower"),
    ("contracts.fl_training.submit_masked_update.s", "s", "lower"),
    ("contracts.fl_training.finalize_round.s", "s", "lower"),
    ("contracts.contribution.evaluate_round.calls", "count", "lower"),
    ("contracts.contribution.evaluate_round.s", "s", "lower"),
    ("contracts.reward.s", "s", "lower"),
    ("contracts.read_active_cohort.calls", "count", "lower"),
    ("contracts.read_active_cohort.s", "s", "lower"),
    ("contracts.gas", "gas", "lower"),
    *[(f"state.{method}.{kind}", unit, "lower")
      for method in ("get", "set", "state_root", "copy")
      for kind, unit in (("calls", "count"), ("s", "s"))],
    ("state.restore.calls", "count", "lower"),
    ("state.seal_version.s", "s", "lower"),
    ("serialization.canonical_dumps.calls", "count", "lower"),
    ("serialization.canonical_dumps.s", "s", "lower"),
    ("serialization.canonical_dumps.bytes", "bytes", "lower"),
    ("serialization.hash_payload.calls", "count", "lower"),
    ("serialization.hash_payload.s", "s", "lower"),
    ("network.messages", "count", "lower"),
    ("network.bytes", "bytes", "lower"),
    ("network.bytes_per_block", "bytes", "lower"),
    ("network.retries", "count", "lower"),
    ("network.dropped", "count", "lower"),
    ("network.delivered_frac", "ratio", "higher"),
    ("network.deliver.s", "s", "lower"),
    ("mempool.add.calls", "count", "lower"),
    ("mempool.add.s", "s", "lower"),
    ("consensus.blocks", "count", "lower"),
    ("consensus.view_changes", "count", "lower"),
    ("consensus.rejects", "count", "lower"),
    ("node.resyncs", "count", "lower"),
    ("node.propose.s", "s", "lower"),
    ("node.commit.s", "s", "lower"),
    ("storage.commit_block.calls", "count", "lower"),
    ("storage.commit_block.s", "s", "lower"),
    ("storage.db_bytes", "bytes", "lower"),
    ("shapley.utility_table.calls", "count", "lower"),
    ("shapley.utility_table.s", "s", "lower"),
    ("shapley.score_batch.rows", "count", "lower"),
    ("shapley.score_batch.s", "s", "lower"),
    ("shapley.estimator.calls", "count", "lower"),
    ("shapley.estimator.s", "s", "lower"),
    ("shapley.estimator.cache_hit_ratio", "ratio", "higher"),
    ("audit.s", "s", "lower"),
    ("audit.reexec.s", "s", "lower"),
    ("audit.shapley.s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, public: dict[str, float], overhead_frac: float) -> dict[str, float]:
    """Reduce one traced pass to the :data:`PER_LAYER` metrics.

    ``public`` carries the program's own deterministic counters read after the
    pass: blocks, replicas, gas, the delivery report, resyncs, view changes
    and the store's size.
    """
    totals = tracer.totals()
    audited = tracer.within({PROGRAM_AUDIT, AUDIT_PHASE})
    miners = tracer.totals(lambda index: not audited[index])
    in_phase = tracer.within({AUDIT_PHASE})

    def calls(name: str) -> float:
        return float(totals[name].calls) if name in totals else 0.0

    def self_s(name: str) -> float:
        return totals[name].self_ns / 1e9 if name in totals else 0.0

    def self_prefix(prefix: str) -> float:
        return sum(entry.self_ns for name, entry in totals.items() if name.startswith(prefix)) / 1e9

    out: dict[str, float] = {}
    for stage in ("sharding", "local_training", "masking_submission", "block_proposal", "setup", "settlement"):
        out[f"pipeline.{stage}.s"] = self_s(f"pipeline.{stage}")
    out["pipeline.round_attempts"] = tracer.counters["pipeline.round_attempts"]
    for name in (
        "fl.train_local",
        "crypto.mask",
        "crypto.expand_mask",
        "crypto.shared_secret",
        "chain.verify_and_append",
        "chain.execute_transaction",
        "chain.clone",
        "chain.catch_up_from",
        "tx.hash",
        "tx.verify_signature",
        "contracts.fl_training.submit_masked_update",
        "contracts.contribution.evaluate_round",
        "contracts.read_active_cohort",
        "state.get",
        "state.set",
        "state.state_root",
        "state.copy",
        "serialization.canonical_dumps",
        "serialization.hash_payload",
        "mempool.add",
        "storage.commit_block",
        "shapley.utility_table",
        "shapley.estimator",
    ):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = self_s(name)

    mask_ms = [ns / 1e6 for ns in tracer.durations_ns("crypto.mask")]
    out["crypto.mask_ms.p50"] = statistics.median(mask_ms) if mask_ms else 0.0
    out["crypto.mask_ms.p99"] = _percentile(mask_ms, 99)
    pairs = len(tracer.sets["crypto.pairs"])
    out["crypto.expand_per_pair"] = calls("crypto.expand_mask") / pairs if pairs else 0.0
    out["crypto.drbg.bytes"] = tracer.counters["crypto.drbg.bytes"]
    out["crypto.aggregate.s"] = self_s("crypto.aggregate")
    out["crypto.keygen.s"] = self_s("crypto.keygen")

    replica_blocks = public.get("blocks", 0) * public.get("replicas", 0)
    verify = miners.get("chain.verify_and_append")
    out["chain.reexec_per_commit"] = verify.calls / replica_blocks if verify and replica_blocks else 0.0
    out["chain.verify_s_per_replica_block"] = (
        verify.incl_ns / 1e9 / replica_blocks if verify and replica_blocks else 0.0
    )

    out["contracts.execute.s"] = sum(
        entry.self_ns for name, entry in totals.items()
        if name.startswith("contracts.") and name != "contracts.read_active_cohort"
    ) / 1e9
    out["contracts.fl_training.finalize_round.s"] = self_s("contracts.fl_training.finalize_round")
    out["contracts.reward.s"] = self_prefix("contracts.reward.")
    out["contracts.gas"] = public.get("gas", 0.0)
    out["state.restore.calls"] = calls("state.restore")
    out["state.seal_version.s"] = self_s("state.seal_version")
    out["serialization.canonical_dumps.bytes"] = tracer.counters["serialization.canonical_dumps.bytes"]

    for key in ("messages", "bytes", "retries", "dropped", "delivered_frac"):
        out[f"network.{key}"] = public.get(f"network.{key}", 0.0)
    blocks = public.get("blocks", 0)
    out["network.bytes_per_block"] = out["network.bytes"] / blocks if blocks else 0.0
    # Delivery bookkeeping plus payload sizing (whose serialization is also
    # counted under serialization.canonical_dumps); handler work is excluded.
    out["network.deliver.s"] = (
        self_s("network.deliver")
        + (totals["network.payload_size"].incl_ns / 1e9 if "network.payload_size" in totals else 0.0)
    )

    out["consensus.blocks"] = float(blocks)
    out["consensus.view_changes"] = public.get("view_changes", 0.0)
    out["consensus.rejects"] = tracer.counters["consensus.rejects"]
    out["node.resyncs"] = public.get("resyncs", 0.0)
    out["node.propose.s"] = self_s("node.propose")
    out["node.commit.s"] = self_s("node.commit")
    out["storage.db_bytes"] = public.get("db_bytes", 0.0)

    out["shapley.score_batch.rows"] = tracer.counters["shapley.score_batch.rows"]
    out["shapley.score_batch.s"] = self_s("shapley.score_batch")
    hits = tracer.counters["shapley.estimator.cache_hits"]
    scored = tracer.counters["shapley.estimator.coalitions"]
    out["shapley.estimator.cache_hit_ratio"] = hits / (hits + scored) if hits + scored else 0.0

    out["audit.s"] = totals[AUDIT_PHASE].incl_ns / 1e9 if AUDIT_PHASE in totals else 0.0
    out["audit.reexec.s"] = _outermost_ns(tracer, in_phase, ("chain.history",)) / 1e9
    # Re-evaluation only: Shapley work inside the replay is the replay's.
    replayed = tracer.within({"chain.history"})
    evaluating = [phase and not replay for phase, replay in zip(in_phase, replayed)]
    out["audit.shapley.s"] = _outermost_ns(tracer, evaluating, ("shapley.utility_table", "shapley.estimator")) / 1e9
    out["trace.overhead_frac"] = overhead_frac
    return {name: out[name] for name, _, _ in PER_LAYER}


def _outermost_ns(tracer: Tracer, keep: list[bool], names: tuple[str, ...]) -> int:
    """Summed duration of spans named ``names`` that are not nested in one another."""
    wanted = set(names)
    nested = tracer.within(wanted)
    return sum(
        tracer.duration_ns(index)
        for index, name in enumerate(tracer.names)
        if keep[index] and name in wanted and not nested[index]
    )
