"""Federated secure training: FedAvg determinism, byzantine exclusion.

Five groups of checks over :mod:`repro.federated`:

* **FedAvg determinism** — Hypothesis proves the documented pairwise-
  tree summation is a pure function of the ``{client: delta}`` *set*:
  insertion order and arrival subsets never change a byte.
* **Byzantine matrix** — a bit-flipped ciphertext, a replayed prior-
  round record, and a forged inclusion proof each leave an evidence
  record, and the merged result stays byte-identical to the federation
  in which that client simply never contributed (exclusion before
  merge, never silent averaging).
* **Round protocol** — stragglers past the deadline and partitioned
  (dropout) clients are excluded with evidence; losing quorum aborts
  the round without committing anything.
* **Durability** — a rebooted aggregator resumes from the ledger tip
  and finishes with roots/losses/params bit-identical to the
  uninterrupted federation; committed rounds serve inclusion proofs
  across the reboot.
* **Resident client models** — a client builds its model once per boot
  and reuses it every round; the rounds commit the same bytes as
  clients that rebuild the model each round.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federated.aggregate import DTYPE, fedavg
from repro.federated.client import FederatedClient
from repro.federated.coordinator import QuorumError
from repro.federated.ledger import LedgerError
from repro.federated.merkle import verify_proof
from repro.federated.session import FederatedSession, FederationConfig


def make_session(**overrides) -> FederatedSession:
    defaults = dict(n_clients=3, rounds=2, local_steps=2, batch=4,
                    rows_per_client=8, seed=4242)
    defaults.update(overrides)
    return FederatedSession(FederationConfig(**defaults))


def digest(params: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(params, dtype=DTYPE).tobytes()
    ).hexdigest()


def flip_byte(sealed: bytes, pos: int = 7, bit: int = 3) -> bytes:
    out = bytearray(sealed)
    out[pos % len(out)] ^= 1 << bit
    return bytes(out)


# ----------------------------------------------------------------------
# FedAvg determinism (satellite 2)
# ----------------------------------------------------------------------
_delta_arrays = st.integers(min_value=1, max_value=24).flatmap(
    lambda n: st.lists(
        st.lists(
            st.floats(
                min_value=-1e3, max_value=1e3, width=32,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=n, max_size=n,
        ),
        min_size=1, max_size=6,
    )
)


class TestFedAvgDeterminism:
    @given(_delta_arrays, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_insertion_order_never_changes_a_byte(self, rows, rng):
        """The merge reads ``sorted(deltas)``, so any arrival order of
        the same ``{client: delta}`` set yields identical bytes."""
        deltas = {
            cid: np.asarray(row, dtype=DTYPE) for cid, row in enumerate(rows)
        }
        avg, order = fedavg(deltas)
        items = list(deltas.items())
        rng.shuffle(items)
        avg2, order2 = fedavg(dict(items))
        assert order == order2 == sorted(deltas)
        assert avg.tobytes() == avg2.tobytes()

    @given(_delta_arrays, st.data())
    @settings(max_examples=60, deadline=None)
    def test_subset_equals_subset_reference(self, rows, data):
        """Merging an accepted subset equals merging only that subset
        from scratch — exclusion order/time cannot leak into the sum."""
        deltas = {
            cid: np.asarray(row, dtype=DTYPE) for cid, row in enumerate(rows)
        }
        keep = data.draw(
            st.sets(st.sampled_from(sorted(deltas)), min_size=1),
            label="accepted subset",
        )
        subset = {cid: deltas[cid] for cid in sorted(keep)}
        reverse = {cid: deltas[cid] for cid in sorted(keep, reverse=True)}
        assert fedavg(subset)[0].tobytes() == fedavg(reverse)[0].tobytes()

    def test_pairwise_tree_documented_shape(self):
        """3 deltas sum as (d0+d1)+d2 — the fixed tree, not np.mean."""
        deltas = {
            0: np.asarray([1e8], dtype=DTYPE),
            1: np.asarray([1.0], dtype=DTYPE),
            2: np.asarray([-1e8], dtype=DTYPE),
        }
        expected = (
            (deltas[0] + deltas[1]) + deltas[2]
        ) / DTYPE(3)
        assert fedavg(deltas)[0].tobytes() == expected.astype(
            DTYPE
        ).tobytes()


# ----------------------------------------------------------------------
# Byzantine matrix (satellite 4)
# ----------------------------------------------------------------------
def run_federation(knobs=None, quorum=None, rounds=2, **overrides):
    session = make_session(knobs=knobs or {}, quorum=quorum, rounds=rounds,
                           **overrides)
    results = session.run()
    return session, results


class TestByzantineExclusion:
    def test_tampered_ciphertext_excluded_with_evidence(self):
        session, results = run_federation(
            knobs={1: {"tamper": flip_byte}}, quorum=2
        )
        for result in results:
            assert [e.reason for e in result.excluded] == ["bad-mac"]
            assert [e.client_id for e in result.excluded] == [1]
            assert result.participants == [0, 2]

    def test_tampered_equals_never_contributed(self):
        """Exclusion before merge: the tampered client influences not a
        single byte relative to the same client never submitting."""
        tampered, t_results = run_federation(
            knobs={1: {"tamper": flip_byte}}, quorum=2
        )
        absent, a_results = run_federation(
            knobs={1: {"drop_rounds": {1, 2}}}, quorum=2
        )
        assert digest(tampered.coordinator.params) == digest(
            absent.coordinator.params
        )
        for tr, ar in zip(t_results, a_results):
            assert tr.root == ar.root
            assert tr.losses == ar.losses

    def test_replayed_prior_round_excluded(self):
        """A round-1 record resubmitted in round 2 fails the AAD/MAC
        binding and is excluded — only in round 2."""
        session, results = run_federation(
            knobs={1: {"replay_round": 1}}, quorum=2
        )
        assert results[0].excluded == []  # round 1: replay of itself
        assert [
            (e.client_id, e.reason) for e in results[1].excluded
        ] == [(1, "bad-mac")]
        reference, _ = run_federation(
            knobs={1: {"drop_rounds": {2}}}, quorum=2
        )
        assert digest(session.coordinator.params) == digest(
            reference.coordinator.params
        )

    def test_forged_proof_rejected_with_evidence(self):
        session, results = run_federation()
        coordinator = session.coordinator
        payload, proof = coordinator.proof_for(1, 0)
        assert coordinator.audit(1, 0, payload, proof)
        before = len(coordinator.evidence)
        forged = flip_byte(payload, pos=20, bit=0)
        assert not coordinator.audit(1, 0, forged, proof)
        marks = coordinator.evidence[before:]
        assert [(m.round_no, m.client_id, m.reason) for m in marks] == [
            (1, 0, "forged-proof")
        ]


# ----------------------------------------------------------------------
# Round protocol: stragglers, dropouts, quorum
# ----------------------------------------------------------------------
class TestRoundProtocol:
    def test_straggler_past_deadline_excluded(self):
        session, results = run_federation(
            knobs={2: {"compute_handicap": 5.0}}, quorum=2, rounds=1,
            round_deadline=1.0,
        )
        assert [
            (e.client_id, e.reason) for e in results[0].excluded
        ] == [(2, "straggler")]
        assert results[0].participants == [0, 1]

    def test_partitioned_client_is_dropout(self):
        session = make_session(quorum=2, rounds=1)
        session.cluster.boot()
        session.host.barrier()
        coordinator = session.boot()
        session.cluster.network.partition("aggregator", "client-2")
        result = coordinator.run_round(1)
        assert [
            (e.client_id, e.reason) for e in result.excluded
        ] == [(2, "dropout")]
        session.cluster.network.heal("aggregator", "client-2")
        healed = coordinator.run_round(2)
        assert healed.participants == [0, 1, 2]

    def test_quorum_loss_aborts_without_commit(self):
        session = make_session(
            knobs={1: {"drop_rounds": {1}}, 2: {"drop_rounds": {1}}}
        )
        session.cluster.boot()
        session.host.barrier()
        coordinator = session.boot()
        with pytest.raises(QuorumError):
            coordinator.run_round(1)
        assert session.ledger.committed_round() == 0
        assert coordinator.acked_round == 0


# ----------------------------------------------------------------------
# Durability: reboot resume, proofs across reboots, ledger guard
# ----------------------------------------------------------------------
class TestDurableResume:
    def test_reboot_resume_is_bit_identical(self):
        golden = make_session()
        golden.run()
        golden_roots = [golden.ledger.root_of(r) for r in (1, 2)]

        resumed = make_session()
        resumed.cluster.boot()
        resumed.host.barrier()
        first = resumed.boot()
        r1 = first.run_round(1)
        resumed.host.power_fail()
        resumed.host.barrier()
        second = resumed.boot()  # fresh volatile tier from the ledger
        assert second is not first
        assert second.acked_round == 1
        r2 = second.run_round(2)

        assert [r1.root, r2.root] == golden_roots
        assert digest(second.params) == digest(golden.coordinator.params)
        assert second.params.tobytes() == (
            resumed.ledger.load_params().tobytes()
        )

    def test_proofs_survive_reboot(self):
        session = make_session()
        session.run()
        session.host.power_fail()
        session.host.barrier()
        coordinator = session.boot()
        for round_no in (1, 2):
            root = session.ledger.root_of(round_no)
            for cid in range(3):
                payload, proof = coordinator.proof_for(round_no, cid)
                assert verify_proof(payload, proof, root)
                assert coordinator.audit(round_no, cid, payload, proof)
        assert coordinator.evidence == []

    def test_ledger_rejects_round_regression(self):
        session, results = run_federation(rounds=1)
        with pytest.raises(LedgerError):
            session.ledger.commit_round(
                1, b"\x00" * 32, 3, session.coordinator.params
            )

    def test_excluded_client_has_no_proof(self):
        session, _ = run_federation(
            knobs={1: {"tamper": flip_byte}}, quorum=2, rounds=1
        )
        assert session.coordinator.proof_for(1, 1) is None
        assert session.coordinator.proof_for(1, 0) is not None


# ----------------------------------------------------------------------
# Resident client models: one build per client per boot
# ----------------------------------------------------------------------
def federate_across_reboot(seed: int, builds: list):
    """Four rounds with an aggregator power failure and boot after
    round 2.  Returns the roots, losses and merged-parameter bytes, and
    per boot ``(builds during boot(), builds during its rounds)``."""
    session = make_session(seed=seed, rounds=4)
    session.cluster.boot()
    session.host.barrier()
    results, per_boot = [], []
    for rounds in ((1, 2), (3, 4)):
        if rounds[0] > 1:
            session.host.power_fail()
            session.host.barrier()
        builds.clear()
        coordinator = session.boot()
        at_boot = len(builds)
        results += [coordinator.run_round(r) for r in rounds]
        per_boot.append((at_boot, len(builds) - at_boot))
    return (
        [r.root for r in results],
        [r.losses for r in results],
        coordinator.params.tobytes(),
        per_boot,
    )


class TestResidentClientModel:
    @pytest.mark.parametrize("seed", [4242, 7])
    def test_resident_model_equals_rebuilt_every_round(self, seed, monkeypatch):
        builds: list = []
        build = FederatedSession.builder

        def counting_builder(self):
            builds.append(self)
            return build(self)

        monkeypatch.setattr(FederatedSession, "builder", counting_builder)
        resident = federate_across_reboot(seed, builds)

        train = FederatedClient._train

        def rebuild_every_round(self, round_no, params):
            self._net = None  # force the per-round build
            return train(self, round_no, params)

        monkeypatch.setattr(FederatedClient, "_train", rebuild_every_round)
        rebuilt = federate_across_reboot(seed, builds)

        roots, losses, params, _ = resident
        assert (roots, losses, params) == rebuilt[:3]
        assert len(set(roots)) == 4
        # boot() builds only the aggregator's initial parameters; each
        # of the 3 clients builds once per boot, not once per round.
        assert resident[3] == [(1, 3), (1, 3)]
        assert rebuilt[3] == [(1, 3 * 2), (1, 3 * 2)]
