"""Tests for deterministic simulator snapshots (repro.sim.checkpoint).

The contract under test: a checkpoint taken at quiescence restores to an
independent fork whose subsequent execution is indistinguishable from
the original's — same clock, same seq stream, same RNG draws, same
ambient page-store accounting — and a graph that *cannot* be snapshotted
(live generator processes) fails loudly instead of silently dropping
work.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CheckpointError
from repro.sim.checkpoint import (
    CHECKPOINT_STATS,
    Checkpoint,
    checkpoint_enabled,
    payload_summary,
    set_checkpoint,
    snapshot,
)
from repro.sim.engine import Simulator, Timeout
from repro.sim.parallel import ForkSpec, derive_seed, run_forked_sweep
from repro.sim.rng import DeterministicRng


@pytest.fixture(autouse=True)
def _ambient_checkpoint():
    """Leave the process-global toggle the way we found it."""
    yield
    set_checkpoint(None)


# -- enable/disable plumbing -------------------------------------------------


class TestToggle:
    def test_default_is_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECKPOINT", raising=False)
        set_checkpoint(None)
        assert checkpoint_enabled()

    @pytest.mark.parametrize("value", ["0", "false", "off", "cold"])
    def test_env_disables(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_CHECKPOINT", value)
        set_checkpoint(None)
        assert not checkpoint_enabled()

    def test_forced_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINT", "0")
        set_checkpoint(True)
        assert checkpoint_enabled()


# -- round trips -------------------------------------------------------------


class TestRoundTrip:
    def test_sim_clock_and_seq_survive(self):
        sim = Simulator()

        def proc():
            yield Timeout(5.0)
            yield Timeout(5.0)

        sim.spawn(proc())
        sim.run()
        cp = sim.checkpoint(label="clock")
        fork = Simulator.restore(cp)
        # A restored clock must match *exactly* — approximate equality
        # would hide the very drift the checkpoint contract forbids.
        assert fork.now == sim.now  # reprolint: disable=UNIT301
        assert fork._seq == sim._seq
        assert cp.now == sim.now and cp.seq == sim._seq  # reprolint: disable=UNIT301

    def test_forks_are_independent(self):
        sim = Simulator()
        sim.run()
        cp = snapshot((sim, {"k": [1]}), label="independent")
        fork_a = cp.restore()
        fork_b = cp.restore()
        fork_a[1]["k"].append(2)
        assert fork_b[1]["k"] == [1]
        assert fork_a[0] is not fork_b[0]

    def test_rng_stream_continues_identically(self):
        rng = DeterministicRng(42)
        rng.random_bytes(64)                  # advance past the start
        cp = snapshot((rng,), label="rng")
        expected = rng.random_bytes(32)
        restored, = cp.restore()
        assert restored.random_bytes(32) == expected

    def test_pending_generator_free_timers_survive(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, fired.append, 1)
        cp = snapshot(sim, label="timers")
        assert cp.pending == 1
        fork = cp.restore()
        fork.run()
        assert fired == []            # the original's list, untouched
        assert fork.now == 3.0

    def test_singleton_identity_survives(self, platform):
        from repro.faults import NO_FAULTS
        cp = snapshot(platform, label="singletons")
        fork = cp.restore()
        assert fork.faults is NO_FAULTS

    def test_checkpoint_is_itself_picklable(self):
        sim = Simulator()
        sim.run()
        cp = snapshot(sim, label="ship-me")
        clone = pickle.loads(pickle.dumps(cp))
        assert clone.digest == cp.digest
        assert clone.label == cp.label
        assert isinstance(clone.restore(), Simulator)


# -- quiescence --------------------------------------------------------------


class TestQuiescence:
    def test_live_generator_raises_checkpoint_error(self):
        sim = Simulator()

        def proc():
            yield Timeout(1.0)
            yield Timeout(1.0)

        sim.spawn(proc())
        with pytest.raises(CheckpointError, match="quiescent"):
            snapshot(sim, label="live")

    def test_error_counts_pending_work(self):
        sim = Simulator()

        def proc():
            yield Timeout(1.0)

        sim.spawn(proc())
        with pytest.raises(CheckpointError, match="pending"):
            snapshot(sim)

    def test_pending_count_and_quiescent(self):
        sim = Simulator()
        assert sim.quiescent
        sim.schedule(1.0, lambda: None)
        assert sim.pending_count == 1 and not sim.quiescent
        sim.run()
        assert sim.quiescent


# -- persistence -------------------------------------------------------------


class TestSaveLoad:
    def test_save_load_round_trip(self, tmp_path):
        sim = Simulator()
        sim.run()
        cp = snapshot(sim, label="disk")
        path = tmp_path / "warm.ckpt"
        cp.save(str(path))
        loaded = Checkpoint.load(str(path))
        assert loaded.digest == cp.digest
        assert loaded.label == "disk"
        assert isinstance(loaded.restore(), Simulator)

    def test_bad_magic_is_rejected(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointError, match="magic"):
            Checkpoint.load(str(path))


# -- telemetry ---------------------------------------------------------------


class TestStats:
    def test_counters_track_snapshot_and_restore(self):
        CHECKPOINT_STATS.reset()
        sim = Simulator()
        sim.run()
        cp = snapshot(sim)
        cp.restore()
        cp.restore()
        snap = CHECKPOINT_STATS.snapshot()
        assert snap["snapshots"] == 1
        assert snap["restores"] == 2
        assert snap["snapshot_bytes"] == len(cp.payload)
        assert snap["largest_snapshot_bytes"] == len(cp.payload)

    def test_payload_summary_mentions_total(self):
        sim = Simulator()
        sim.run()
        cp = snapshot(sim, label="sized")
        text = payload_summary(cp)
        assert "sized" in text and f"{len(cp.payload):,d} B" in text


# -- ambient page-store accounting ------------------------------------------


class TestAmbientStores:
    def test_each_fork_rebalances_the_page_store(self, platform):
        from repro.kernel.pagestore import PAGE_STORE
        from repro.kernel.vm import VirtualMachine
        from repro.units import PAGE_SIZE

        # The suite may legitimately hold interned pages owned by other
        # live objects, so balance is asserted *relative* to the store
        # as this test found it, not against emptiness.
        before = (PAGE_STORE.live_contents, PAGE_STORE.live_refs,
                  PAGE_STORE.live_bytes)
        vm = VirtualMachine("ckpt-vm")
        content = bytes([7]) * PAGE_SIZE
        vm.map_page(0x1000, content)
        cp = snapshot((platform, vm), label="ambient")
        for _ in range(3):
            # Each restore reinstalls the snapshotted store state, so a
            # fork releasing its warm-up's references balances exactly —
            # no refcount over-release on the third fork.
            __, fork_vm = cp.restore()
            fork_vm.unmap_all()
            assert (PAGE_STORE.live_contents, PAGE_STORE.live_refs,
                    PAGE_STORE.live_bytes) == before


# -- fork-from-checkpoint sweeps --------------------------------------------


def _toy_warmup(base: int):
    rng = DeterministicRng(base)
    rng.random_bytes(16)
    sim = Simulator()
    sim.run()
    return (sim, rng)


def _toy_point(root, salt: int) -> tuple:
    sim, rng = root
    fired = []
    sim.schedule(float(salt), fired.append, salt)
    sim.run()
    return (sim.now, sim._seq, rng.fork(salt).random_bytes(8))


class TestForkedSweep:
    def _spec(self):
        return ForkSpec.build(
            "toy", _toy_warmup,
            [(i, _toy_point, (i,), {}) for i in range(4)],
            warmup_args=(1234,))

    def test_forked_matches_cold(self):
        set_checkpoint(False)
        cold = run_forked_sweep(self._spec())
        set_checkpoint(True)
        forked = run_forked_sweep(self._spec())
        assert forked == cold

    def test_forked_matches_cold_parallel(self):
        set_checkpoint(True)
        serial = run_forked_sweep(self._spec())
        parallel = run_forked_sweep(self._spec(), jobs=2)
        assert parallel == serial

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ForkSpec.build("dup", _toy_warmup,
                           [(1, _toy_point, (1,), {}),
                            (1, _toy_point, (2,), {})])

    def test_disabled_replays_warmup_per_point(self):
        CHECKPOINT_STATS.reset()
        set_checkpoint(False)
        run_forked_sweep(self._spec())
        assert CHECKPOINT_STATS.cold_warmups == 4
        assert CHECKPOINT_STATS.snapshots == 0


def _toy_spec(name: str, base: int, salts) -> ForkSpec:
    return ForkSpec.build(
        name, _toy_warmup,
        [((name, salt), _toy_point, (salt,), {}) for salt in salts],
        warmup_args=(base,))


class TestMultiSpecSweep:
    """One call, several specs, one pool; a one-point spec never
    snapshots."""

    def _specs(self):
        return (_toy_spec("wide", 1234, range(3)),
                _toy_spec("single", 99, (7,)),
                _toy_spec("pair", 5, (2, 9)))

    def test_keys_merge_in_submission_order(self):
        set_checkpoint(True)
        wide, single, pair = self._specs()
        merged = run_forked_sweep(wide, single, pair)
        assert list(merged) == [("wide", 0), ("wide", 1), ("wide", 2),
                                ("single", 7), ("pair", 2), ("pair", 9)]
        # Each spec's results are the ones it produces on its own.
        for spec in (wide, single, pair):
            alone = run_forked_sweep(spec)
            assert {k: merged[k] for k in alone} == alone

    def test_key_duplicated_across_specs_rejected(self):
        first = ForkSpec.build("a", _toy_warmup, [(1, _toy_point, (1,), {})],
                               warmup_args=(1,))
        second = ForkSpec.build("b", _toy_warmup,
                                [(1, _toy_point, (2,), {})],
                                warmup_args=(2,))
        CHECKPOINT_STATS.reset()
        with pytest.raises(ValueError, match="duplicate"):
            run_forked_sweep(first, second)
        # Rejected before any warm-up ran.
        assert CHECKPOINT_STATS.snapshots == 0
        assert CHECKPOINT_STATS.cold_warmups == 0

    def test_one_point_spec_warms_up_cold(self):
        set_checkpoint(True)
        CHECKPOINT_STATS.reset()
        run_forked_sweep(_toy_spec("single", 99, (7,)))
        assert CHECKPOINT_STATS.cold_warmups == 1
        assert CHECKPOINT_STATS.snapshots == 0
        assert CHECKPOINT_STATS.restores == 0

    def test_four_point_spec_snapshots_once(self):
        set_checkpoint(True)
        CHECKPOINT_STATS.reset()
        run_forked_sweep(_toy_spec("wide", 1234, range(4)))
        assert CHECKPOINT_STATS.snapshots == 1
        assert CHECKPOINT_STATS.restores == 4
        assert CHECKPOINT_STATS.cold_warmups == 0

    @pytest.mark.parametrize("checkpoint", [True, False])
    def test_parallel_equals_serial(self, checkpoint):
        set_checkpoint(checkpoint)
        serial = run_forked_sweep(*self._specs(), jobs=1)
        parallel = run_forked_sweep(*self._specs(), jobs=2)
        assert list(parallel) == list(serial)
        assert parallel == serial


# -- seed/RNG stability across the fork boundary (property) ------------------


class TestSeedStabilityAcrossForks:
    @given(base=st.integers(min_value=0, max_value=2**31 - 1),
           key=st.one_of(st.text(max_size=12),
                         st.integers(),
                         st.tuples(st.text(max_size=6), st.integers())))
    @settings(max_examples=50, deadline=None)
    def test_derive_seed_is_fork_invariant(self, base, key):
        """The per-point seed is a pure function of (base, key): the same
        on both sides of a checkpoint round trip, so a forked point and a
        cold point derive identical RNG streams."""
        seed = derive_seed(base, key)
        restored_base, restored_key = pickle.loads(
            pickle.dumps((base, key), protocol=4))
        assert derive_seed(restored_base, restored_key) == seed
        assert 0 <= seed < 2**31

    @given(base=st.integers(min_value=0, max_value=2**20),
           salt=st.integers(min_value=0, max_value=2**20),
           warm_draws=st.integers(min_value=0, max_value=8))
    @settings(max_examples=25, deadline=None)
    def test_forked_rng_draws_match_cold(self, base, salt, warm_draws):
        """A child forked from a restored RNG draws the same bytes as a
        child forked from the original at the same stream position —
        fork() purity is what makes warmup/point splits RNG-safe."""
        cold = DeterministicRng(base)
        for __ in range(warm_draws):
            cold.random_bytes(8)
        cp = snapshot((cold,), label="rng-prop")
        expected = cold.fork(salt).random_bytes(16)
        restored, = cp.restore()
        assert restored.fork(salt).random_bytes(16) == expected
