"""The benchmark's workloads: two on-chain rounds and the cross-device harness.

Each workload turns a seed into inputs, runs one *pass* of the program on
them and checks the outputs.  A pass is what a user of the system waits for:
set-up, every round, settlement, and the transparency audit.  The workloads
call the program only through its public API; the clock is read at the
boundaries of those calls, never from timers inside the program.

Every workload runs in one process on the serial evaluation backend
(``sv_workers`` unset): no pools, threads or sockets, so a small machine
measures the program and not its scheduler.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

from probes import AUDIT_PHASE, ROOT
from tracer import Tracer

now = time.perf_counter

#: Relative slack allowed between the settled payouts and the reward pool.
PAYOUT_TOLERANCE = 1e-9
#: Exact GroupSV must be efficient to this absolute tolerance: Σ v_j = v(N) − v(∅).
EXACT_EFFICIENCY_TOLERANCE = 1e-9


@dataclass
class PassRecord:
    """Everything one pass measured, checked and counted."""

    planned: list[str]
    done: dict[str, bool] = field(default_factory=dict)
    # Each phase is kept as its (start, end) clock readings.
    setup: tuple[float, float] | None = None
    rounds: list[tuple[float, float]] = field(default_factory=list)
    round_updates: list[int] = field(default_factory=list)
    audits: list[tuple[float, float]] = field(default_factory=list)
    wall: tuple[float, float] | None = None
    digest: str = ""
    public: dict[str, float] = field(default_factory=dict)
    error: str = ""

    def ok(self, op: str, passed: bool = True) -> None:
        self.done[op] = bool(passed)

    @property
    def attempted(self) -> int:
        return len(self.planned)

    @property
    def failed(self) -> int:
        # An operation a failure kept from running counts as failed.
        return sum(1 for op in self.planned if not self.done.get(op, False))


def _phase(tracer: Tracer | None, name: str):
    """A span when tracing, nothing otherwise."""
    return tracer.span(name) if tracer is not None else nullcontext()


def _stop_tracing(tracer: Tracer | None) -> None:
    # Checks and digests run after the traced region with the originals restored.
    if tracer is not None:
        tracer.unpatch()


def _sha256_json(payload: Any) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class OnChainSpec:
    """One on-chain workload: the protocol and scenario it runs."""

    name: str
    why: str
    owners: int
    groups: int
    rounds: int
    samples: int = 1500
    sigma: float = 0.1
    local_epochs: int = 5
    learning_rate: float = 2.0
    reward_pool: float = 1000.0
    shard_size: int | None = None
    sv_estimator: str = "exact"
    sv_samples: int = 128
    state_root_version: int = 1
    sqlite: bool = False
    authority_rotation: bool = False
    churn: bool = False
    drop_probability: float = 0.0
    audit_mode: str = "replay"


class OnChainWorkload:
    """The staged on-chain round: every miner re-executes every block."""

    def __init__(self, spec: OnChainSpec) -> None:
        self.spec = spec
        self.name, self.why = spec.name, spec.why

    def planned_ops(self) -> list[str]:
        return [
            "setup", *[f"round-{r}" for r in range(self.spec.rounds)], "settlement", "audit",
            "check:replicas-share-head", "check:audit-passed", "check:payouts-sum-to-pool",
            "check:efficiency",
        ]

    def _setup(self, seed: int, workdir: str):
        from repro.core.config import ProtocolConfig
        from repro.core.pipeline import (
            ChurnScenario, ComposedScenario, LossyGossipScenario, RoundScheduler, SetupStage,
        )
        from repro.core.protocol import BlockchainFLProtocol
        from repro.datasets.loader import make_owner_datasets

        spec = self.spec
        extra = 1 if spec.churn else 0
        dataset, owner_data = make_owner_datasets(
            n_owners=spec.owners + extra, sigma=spec.sigma, n_samples=spec.samples, seed=seed
        )
        config = ProtocolConfig(
            n_owners=spec.owners,
            n_groups=spec.groups,
            n_rounds=spec.rounds,
            local_epochs=spec.local_epochs,
            learning_rate=spec.learning_rate,
            reward_pool=spec.reward_pool,
            permutation_seed=seed,
            aggregation_topology="sharded" if spec.shard_size else "flat",
            shard_size=spec.shard_size,
            sv_estimator=spec.sv_estimator,
            sv_samples=spec.sv_samples,
            state_root_version=spec.state_root_version,
            authority_rotation=spec.authority_rotation,
        )
        store = f"sqlite:{os.path.join(workdir, 'chain.db')}" if spec.sqlite else None
        protocol = BlockchainFLProtocol(
            owner_data[: spec.owners], dataset.test_features, dataset.test_labels,
            dataset.n_classes, config, store=store,
        )
        scenarios = []
        if spec.churn:
            # The joiner enters at round 2 and the second owner leaves at round 3.
            leaver = sorted(protocol.owner_ids)[1]
            scenarios.append(ChurnScenario(joins=[(owner_data[spec.owners], 2)], leaves=[(leaver, 3)]))
        if spec.drop_probability:
            scenarios.append(LossyGossipScenario(drop_probability=spec.drop_probability, seed=seed))
        scenario = ComposedScenario(scenarios) if scenarios else None
        scheduler = RoundScheduler(protocol, scenario)
        SetupStage().run(protocol, scheduler.scenario)
        return dataset, protocol, scheduler

    def setup_only(self, seed: int, workdir: str) -> tuple[float, float]:
        """Time one set-up on its own (datasets, wiring, the committed setup block)."""
        start = now()
        _, protocol, _ = self._setup(seed, workdir)
        interval = (start, now())
        protocol.close()
        return interval

    def run_pass(self, seed: int, workdir: str, tracer: Tracer | None = None, audits: int = 1) -> PassRecord:
        from repro.core.audit import audit_chain
        from repro.core.pipeline import ProtocolResult, SettlementStage

        spec = self.spec
        record = PassRecord(planned=self.planned_ops())
        protocol = None
        start = now()
        try:
            with _phase(tracer, ROOT):
                dataset, protocol, scheduler = self._setup(seed, workdir)
                record.setup = (start, now())
                record.ok("setup")
                result = ProtocolResult()
                parameters = protocol._template_parameters
                for round_number in range(spec.rounds):
                    began = now()
                    round_result = scheduler.run_round(round_number, parameters)
                    record.rounds.append((began, now()))
                    record.round_updates.append(sum(len(group) for group in round_result.groups))
                    record.ok(f"round-{round_number}")
                    parameters = round_result.global_parameters
                    result.rounds.append(round_result)
                result.final_parameters = parameters
                result = SettlementStage().run(protocol, result, scheduler.scenario)
                record.ok("settlement")
                chain = protocol.participants[protocol.owner_ids[0]].node.chain
                passed = True
                for _ in range(audits):
                    began = now()
                    with _phase(tracer, AUDIT_PHASE):
                        report = audit_chain(
                            chain, dataset.test_features, dataset.test_labels, dataset.n_classes,
                            mode=spec.audit_mode,
                        )
                    record.audits.append((began, now()))
                    passed &= report.passed
                record.ok("audit")
            record.wall = (start, now())
            _stop_tracing(tracer)
            self._check(protocol, chain, result, passed, record)
            record.public = self._public_counters(protocol, chain, scheduler)
            record.digest = chain.head.block_hash
        except Exception as exc:  # noqa: BLE001 - a failed pass is reported, not raised
            record.error = f"{type(exc).__name__}: {exc}"
        finally:
            _stop_tracing(tracer)
            if protocol is not None:
                protocol.close()
        return record

    def _check(self, protocol, chain, result, audit_passed: bool, record: PassRecord) -> None:
        heads = {p.node.chain.head.block_hash for p in protocol.participants.values()}
        record.ok("check:replicas-share-head", len(heads) == 1)
        record.ok("check:audit-passed", audit_passed)
        paid = math.fsum(result.reward_balances.values())
        pool = self.spec.reward_pool
        record.ok("check:payouts-sum-to-pool", abs(paid - pool) <= PAYOUT_TOLERANCE * pool)
        efficient = True
        for round_number in range(self.spec.rounds):
            evaluation = chain.state.get("contribution", f"evaluation/{round_number}")
            gap = abs(math.fsum(evaluation["group_values"]) - evaluation["global_utility"])
            # v(∅) is the engine's empty-coalition utility, 0.  The sampled
            # estimator truncates a permutation once its prefix is within
            # `tolerance` of v(N), so its sum may miss v(N) by that much.
            bound = EXACT_EFFICIENCY_TOLERANCE
            if "estimator" in evaluation:
                bound += float(evaluation["estimator"]["tolerance"])
            efficient &= gap <= bound
        record.ok("check:efficiency", efficient)

    def _public_counters(self, protocol, chain, scheduler) -> dict[str, float]:
        stats = protocol.network.stats
        totals = stats.delivery_report()["totals"]
        attempted = totals.get("attempted", 0)
        counters = {
            "blocks": float(chain.height),
            "replicas": float(len(protocol.participants)),
            "gas": float(chain.total_gas()),
            "network.messages": float(stats.messages_sent),
            "network.bytes": float(stats.bytes_sent),
            "network.retries": float(totals.get("retries", 0)),
            "network.dropped": float(totals.get("dropped", 0) + totals.get("partitioned", 0)),
            "network.delivered_frac": totals.get("delivered", 0) / attempted if attempted else 0.0,
            "resyncs": float(sum(len(p.node.resyncs) for p in protocol.participants.values())),
            "view_changes": float(sum(len(ctx.metadata.get("view_changes", [])) for ctx in scheduler.contexts)),
        }
        if protocol.storage is not None and hasattr(protocol.storage, "path"):
            path = protocol.storage.path
            counters["db_bytes"] = float(sum(
                os.path.getsize(p) for p in (path, path + ".blocklog") if os.path.exists(p)
            ))
        return counters


@dataclass(frozen=True)
class CrossDeviceSpec:
    name: str
    why: str
    devices: int = 1000
    shard_size: int = 32
    distribution: str = "linear"
    sv_samples: int = 64
    rounds: int = 3


class CrossDeviceWorkload:
    """The cross-device harness: sharded masking and the sampled estimator, no chain.

    The harness runs set-up and every round inside one call, so the pass
    marks the round boundaries from outside: a probe on the harness's
    per-round committee dealing (its first step each round) stamps the start
    of a round, and the call's return ends the last one.  A second probe keeps
    each committee's published aggregate, from which the audit re-derives the
    published committee values, the cross-device counterpart of the chain
    audit's re-evaluation of every round.
    """

    def __init__(self, spec: CrossDeviceSpec) -> None:
        self.spec = spec
        self.name, self.why = spec.name, spec.why

    def planned_ops(self) -> list[str]:
        return [
            "setup", *[f"round-{r}" for r in range(self.spec.rounds)], "audit",
            "check:audit-passed", "check:efficiency", "check:mask-count",
        ]

    def _config(self, seed: int):
        from repro.core.crossdevice import CrossDeviceConfig

        spec = self.spec
        return CrossDeviceConfig(
            n_devices=spec.devices, shard_size=spec.shard_size, distribution=spec.distribution,
            sv_estimator="sampled", sv_samples=spec.sv_samples, n_rounds=spec.rounds, seed=seed,
        )

    def setup_only(self, seed: int, workdir: str) -> tuple[float, float]:
        """Time the harness's set-up on its own: the round loop is swapped for a no-op."""
        from repro.core import crossdevice

        rounds = crossdevice._run_rounds
        crossdevice._run_rounds = lambda *args, **kwargs: None
        try:
            start = now()
            crossdevice.simulate_cross_device(self._config(seed))
            return start, now()
        finally:
            crossdevice._run_rounds = rounds

    def run_pass(self, seed: int, workdir: str, tracer: Tracer | None = None, audits: int = 1) -> PassRecord:
        from repro.core import crossdevice
        from repro.crypto.masking import SecureAggregator

        spec = self.spec
        record = PassRecord(planned=self.planned_ops())
        config = self._config(seed)
        round_starts: list[float] = []
        aggregates: list[Any] = []
        boundaries = Tracer()
        boundaries.patch(crossdevice, "make_groups", None, lambda *_: round_starts.append(now()))
        boundaries.patch(SecureAggregator, "aggregate_mean", None,
                         lambda _t, _a, _k, result: aggregates.append(result))
        start = now()
        try:
            with _phase(tracer, ROOT):
                try:
                    result = crossdevice.simulate_cross_device(config)
                finally:
                    finished = now()
                    boundaries.unpatch()
                ends = round_starts[1:] + [finished]
                record.setup = (start, round_starts[0])
                record.ok("setup")
                for round_number, (began, ended) in enumerate(zip(round_starts, ends)):
                    record.rounds.append((began, ended))
                    record.round_updates.append(spec.devices)
                    record.ok(f"round-{round_number}")
                audited = True
                for _ in range(audits):
                    began = now()
                    with _phase(tracer, AUDIT_PHASE):
                        audited &= self._audit(config, result, aggregates)
                    record.audits.append((began, now()))
                record.ok("audit")
            record.wall = (start, now())
            _stop_tracing(tracer)
            record.ok("check:audit-passed", audited)
            efficient = all(
                abs(math.fsum(r.shard_values) - r.global_utility)
                <= EXACT_EFFICIENCY_TOLERANCE + float(r.estimator["tolerance"])
                for r in result.rounds
            )
            record.ok("check:efficiency", efficient)
            record.ok("check:mask-count", result.max_mask_count <= spec.shard_size - 1)
            record.digest = _sha256_json([
                [r.shard_values, r.global_utility, sorted(r.user_values.items())] for r in result.rounds
            ])
        except Exception as exc:  # noqa: BLE001 - a failed pass is reported, not raised
            record.error = f"{type(exc).__name__}: {exc}"
        finally:
            boundaries.unpatch()
            _stop_tracing(tracer)
        return record

    @staticmethod
    def _audit(config, result, aggregates) -> bool:
        """Re-run the sampled estimator on the published committee aggregates.

        The validation split is public (it is regenerated from the seed the
        same way the harness makes it), so anyone holding the aggregates can
        recompute every committee's value; they must match bit for bit.
        """
        from repro.datasets.synthetic import make_blobs
        from repro.shapley.estimator import estimator_seed_for_round, sampled_group_shapley
        from repro.shapley.utility import AccuracyUtility

        features, labels = make_blobs(
            config.n_train + config.n_test, config.n_features, config.n_classes, seed=config.seed
        )
        scorer = AccuracyUtility(features[config.n_train:], labels[config.n_train:], config.n_classes)
        offset = 0
        for record in result.rounds:
            names = [f"shard-{j}" for j in range(len(record.shards))]
            models = aggregates[offset: offset + len(names)]
            offset += len(names)
            estimate = sampled_group_shapley(
                names, dict(zip(names, models)), scorer, n_permutations=config.sv_samples,
                seed=estimator_seed_for_round(config.seed, record.round_number),
            )
            if [estimate.values[n] for n in names] != record.shard_values:
                return False
            if estimate.grand_utility != record.global_utility:
                return False
        return offset == len(aggregates)


WORKLOADS = {
    workload.name: workload
    for workload in (
        OnChainWorkload(OnChainSpec(
            name="onchain-exact",
            why="The paper's protocol at the reference size on CLI defaults; every miner "
                "re-executes exact GroupSV, so replicated execution dominates the round.",
            owners=27, groups=9, rounds=3,
        )),
        OnChainWorkload(OnChainSpec(
            name="onchain-churn-lossy",
            why="Same consensus path under cohort churn, 8% message loss, v3 Merkle roots, "
                "SQLite commits and the sampled estimator: writes, resync and the fault path.",
            owners=24, groups=4, rounds=4, shard_size=3, sv_estimator="sampled", sv_samples=64,
            state_root_version=3, sqlite=True, authority_rotation=True, churn=True,
            drop_probability=0.08, audit_mode="incremental",
        )),
        CrossDeviceWorkload(CrossDeviceSpec(
            name="crossdevice-1k",
            why="1000 devices in 32-device committees bypass the chain; pairwise masking "
                "dominates, so chain fixes read flat here and masking fixes show.",
        )),
    )
}


def scratch_directory(root) -> tempfile.TemporaryDirectory:
    """A fresh scratch directory under ``root`` (inside the checkout), removed on exit."""
    os.makedirs(root, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=root)
