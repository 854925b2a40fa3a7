"""Tests for transactions and receipts (repro.blockchain.transaction)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.blockchain.transaction import Transaction, TransactionReceipt
from repro.exceptions import InvalidTransactionError, ValidationError


def make_tx(**overrides):
    defaults = dict(sender="alice", contract="registry", method="register_participant", args={"public_key": 5}, nonce=0)
    defaults.update(overrides)
    return Transaction(**defaults)


class TestTransaction:
    def test_signature_is_generated_automatically(self):
        assert make_tx().signature != ""

    def test_signature_verifies(self):
        assert make_tx().verify_signature()

    def test_tampered_args_fail_verification(self):
        tx = make_tx()
        tampered = dataclasses.replace(tx, args={"public_key": 6})
        forged = Transaction(
            sender=tampered.sender,
            contract=tampered.contract,
            method=tampered.method,
            args=tampered.args,
            nonce=tampered.nonce,
            signature=tx.signature,
        )
        assert not forged.verify_signature()
        with pytest.raises(InvalidTransactionError):
            forged.validate()

    def test_wrong_sender_cannot_reuse_signature(self):
        tx = make_tx()
        forged = Transaction(
            sender="mallory",
            contract=tx.contract,
            method=tx.method,
            args=tx.args,
            nonce=tx.nonce,
            signature=tx.signature,
        )
        assert not forged.verify_signature()

    def test_hash_changes_with_content(self):
        assert make_tx().tx_hash != make_tx(nonce=1).tx_hash

    def test_hash_is_stable(self):
        assert make_tx().tx_hash == make_tx().tx_hash

    def test_array_arguments_are_allowed(self):
        tx = make_tx(args={"payload": np.arange(4, dtype=np.uint64)})
        tx.validate()

    def test_rejects_empty_sender(self):
        with pytest.raises(ValidationError):
            make_tx(sender="")

    def test_rejects_missing_contract_or_method(self):
        with pytest.raises(ValidationError):
            make_tx(contract="")
        with pytest.raises(ValidationError):
            make_tx(method="")

    def test_rejects_negative_nonce(self):
        with pytest.raises(ValidationError):
            make_tx(nonce=-1)

    def test_unserializable_args_rejected_at_construction(self):
        # Signing canonically serializes the body, so unserializable arguments
        # cannot even produce a signed transaction.
        with pytest.raises(ValidationError):
            make_tx(args={"bad": object()})

    def test_signed_tx_with_unserializable_args_is_an_invalid_transaction(self):
        # A transaction arriving already signed skips signing; validate must
        # still reject it as a bad transaction, not a generic validation error.
        forged = make_tx(args={"bad": object()}, signature="ab" * 32)
        with pytest.raises(InvalidTransactionError, match="not serializable"):
            forged.validate()


class TestTransactionReceipt:
    def test_to_dict_shape(self):
        receipt = TransactionReceipt(tx_hash="ab", success=True, result={"x": 1}, gas_used=10)
        payload = receipt.to_dict()
        assert payload["tx_hash"] == "ab"
        assert payload["success"] is True
        assert payload["gas_used"] == 10

    def test_failed_receipt_carries_error(self):
        receipt = TransactionReceipt(tx_hash="cd", success=False, error="boom")
        assert receipt.to_dict()["error"] == "boom"

    def test_events_round_trip_through_dict(self):
        receipt = TransactionReceipt(tx_hash="ef", success=True, events=({"name": "E", "data": {}},))
        assert receipt.to_dict()["events"] == [{"name": "E", "data": {}}]
