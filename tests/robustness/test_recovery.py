"""Cross-backend recovery proof: rollback-replay converges to
bit-identity with an uninjected golden run on every execution engine,
for every fault kind that can land in this fabric."""

import pytest

from repro.core.snapshot import state_digest
from repro.robustness import CheckpointManager, FaultInjector, FaultKind
from repro.robustness.faults import FaultEvent, FaultSite

from tests.robustness.conftest import ENGINES, make_busy_ring

#: One representative, guaranteed-to-land fault per kind (addresses
#: chosen against the busy-ring configuration).
LANDED_FAULTS = [
    FaultEvent(10, FaultSite(FaultKind.REGISTER, (0, 0, 0)), bit=5),
    FaultEvent(10, FaultSite(FaultKind.OUT, (0, 1)), bit=1),
    FaultEvent(10, FaultSite(FaultKind.PIPELINE, (0, 2, 1)), bit=9),
    FaultEvent(10, FaultSite(FaultKind.FIFO, (1, 0, 1)), bit=3, index=1),
    FaultEvent(10, FaultSite(FaultKind.CONFIG_WORD, (0, 0)), bit=4),
    FaultEvent(10, FaultSite(FaultKind.CONFIG_ROUTE, (1, 0, 1)), bit=2),
    FaultEvent(10, FaultSite(FaultKind.STUCK_DNODE, (1, 0))),
]

CYCLES = 24
CHECKPOINT_EVERY = 8


@pytest.mark.parametrize("engine,kwargs", ENGINES,
                         ids=[name for name, _ in ENGINES])
@pytest.mark.parametrize("event", LANDED_FAULTS,
                         ids=[e.site.kind.value for e in LANDED_FAULTS])
def test_single_fault_recovers_bit_identically(engine, kwargs, event):
    golden = make_busy_ring(**kwargs)
    golden_mid = None
    for _ in range(CYCLES):
        golden.step()
        if golden.cycles == 16:
            golden_mid = state_digest(golden)
    golden_final = state_digest(golden)

    ring = make_busy_ring(**kwargs)
    injector = FaultInjector(ring, seed=0)
    manager = CheckpointManager(ring, every=CHECKPOINT_EVERY)
    for cycle in range(CYCLES):
        if cycle == event.cycle:
            record = injector.inject(event)
            assert record.applied, record.describe()
        manager.step()
        if ring.cycles == 16 and state_digest(ring) != golden_mid:
            # Detected: last good checkpoint is cycle 8 (the cycle-16
            # checkpoint, if taken, holds corrupted state — drop it).
            good = [s for s in manager.checkpoints if s.cycles < 16]
            manager.checkpoints = good
            digest = manager.rollback_replay(16)
            assert digest == golden_mid, \
                f"{event.describe()}: replay diverged at detection point"
    assert state_digest(ring) == golden_final, \
        f"{event.describe()}: final state diverged after recovery"
    assert ring.faults_injected == 1
    assert ring.rollbacks >= 1, \
        f"{event.describe()}: fault was never detected"


@pytest.mark.parametrize("engine,kwargs", ENGINES,
                         ids=[name for name, _ in ENGINES])
def test_recovery_digest_matches_across_backends(engine, kwargs):
    """The *recovered* state digest is one value for all engines —
    recovery does not just work per engine, it converges to the same
    bit-exact fabric state everywhere."""
    reference = make_busy_ring(backend="interpreter")
    reference.run(CYCLES)
    reference_digest = state_digest(reference)

    ring = make_busy_ring(**kwargs)
    manager = CheckpointManager(ring, every=CHECKPOINT_EVERY)
    manager.run(12)
    ring.dnode(0, 1)._out ^= 0x80
    manager.rollback_replay(CYCLES)
    digest = state_digest(ring)
    if ring._batch_engine is None:
        assert digest == reference_digest
    else:
        # A batch digest carries the per-lane block; the scalar part
        # must still match the scalar reference bit for bit.
        assert digest[:-1] == reference_digest[:-1]


def test_stream_drop_recovers_with_host_state():
    """Dropped stream words need host-side rewind too: the checkpoint
    pairs the fabric snapshot with DataController.capture_state()."""
    from repro.asm import assemble, load_system
    from repro.core.snapshot import capture, restore

    source = """
.ring boot
dnode 0.0 global
    mul out, in1, #3
switch 0
    route 0.1 <- host0
"""

    def build():
        system = load_system(assemble(source, layers=4, width=2))
        system.data.stream(0, list(range(1, 33)))
        system.data.add_tap(0, 0, limit=32)
        return system

    golden = build()
    digests = {}
    for _ in range(32):
        golden.step()
        if golden.cycles % 8 == 0:
            digests[golden.cycles] = state_digest(golden.ring)
    golden_tap = golden.data.taps[0].samples

    system = build()
    checkpoint = None
    detected = False
    for cycle in range(32):
        if system.cycles == 8:
            checkpoint = (8, capture(system.ring),
                          system.data.capture_state())
        if cycle == 10:
            assert system.data.channel(0).drop_next() == 1
        system.step()
        at = system.cycles
        if at in digests and state_digest(system.ring) != digests[at] \
                and not detected:
            detected = True
            cp_cycle, snapshot, host_state = checkpoint
            restore(system.ring, snapshot)
            system.data.restore_state(host_state)
            system.cycles = cp_cycle
            for _ in range(at - cp_cycle):
                system.step()
            assert state_digest(system.ring) == digests[at]
    assert detected, "dropped word never became visible"
    assert state_digest(system.ring) == digests[32]
    assert system.data.taps[0].samples == golden_tap
