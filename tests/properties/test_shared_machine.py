"""Out-of-order acquire on a shared machine, property-checked.

A :class:`SessionCache` runs every session of a daemon on one warm
:class:`~repro.injection.injector.Machine`.  The serial runner visits
sites in address order, so a session is only ever re-entered right
after its own prefix; a fleet worker revisits cached sessions after
the machine has served other sites, clients and fault models.  This
property draws such interleavings over ftpd, sshd and pop3d and checks
every experiment against the same point run on a fresh session with a
private machine, and the machine itself after every switch of owner:
memory byte-identical to the snapshot, every cached decode built from
pristine text.
"""

from __future__ import annotations

import pytest
from hypothesis import given, HealthCheck, settings, strategies as st

from repro.apps.registry import get_daemon_spec
from repro.injection import (BreakpointSession, get_fault_model,
                             record_golden, SessionCache)
from repro.injection.campaign import ENCODING_OLD

_DAEMONS = ("ftpd", "sshd", "pop3d")
_MODELS = ("branch-bit", "burst2", "register-bit", "memory-bit")
_SITES = 3             # covered sites per daemon
_POINTS = 4            # points per (site, model)
_CLIENT = "Client1"

_cells = {}
_reference = {}


@pytest.fixture(scope="module")
def cells(ftp_daemon, ssh_daemon, pop3_daemon):
    """Per daemon: the compiled daemon, its client factory and, per
    site x model, a few covered points (built once)."""
    compiled = {"ftpd": ftp_daemon, "sshd": ssh_daemon,
                "pop3d": pop3_daemon}
    for name in _DAEMONS:
        if name in _cells:
            continue
        daemon = compiled[name]
        factory = get_daemon_spec(name).client_factory(_CLIENT)
        golden = record_golden(daemon, factory)
        sites = {}
        for model_name in _MODELS:
            model = get_fault_model(model_name)
            for point in model.enumerate_points(daemon.module,
                                                daemon.auth_ranges()):
                address = point.instruction_address
                if address not in golden.coverage:
                    continue
                if address not in sites and len(sites) == _SITES:
                    continue
                bucket = sites.setdefault(address, {}).setdefault(
                    model_name, [])
                if len(bucket) < _POINTS:
                    bucket.append(point)
        _cells[name] = (daemon, factory, sites)
    return _cells


def _signature(outcome):
    status, kernel, __ = outcome
    return (status.kind, status.exit_code, status.signal,
            kernel.channel.normalized_transcript(), status.instret)


def _reference_run(daemon_name, daemon, factory, model, point):
    """The point on a fresh session with a private machine."""
    key = (daemon_name, model.name, point.key)
    if key not in _reference:
        session = BreakpointSession(daemon, factory,
                                    point.instruction_address)
        _reference[key] = _signature(
            model.apply(session, point, ENCODING_OLD, daemon.module))
    return _reference[key]


def _assert_machine_at_snapshot(session, module):
    process = session.process
    for region, blob in zip(process.memory.regions,
                            session.snapshot.region_blobs):
        assert bytes(region.data) == blob, region.name
    assert tuple(process.cpu.regs) == session.snapshot.regs
    assert process.cpu.eip == session.snapshot.eip
    text = module.text
    base = module.text_base
    cpu = process.cpu
    cached = list(cpu.decode_cache.items()) + [
        (address, entry[1]) for address, entry in cpu.prepared.items()]
    for address, instruction in cached:
        offset = address - base
        assert instruction.raw == bytes(
            text[offset:offset + len(instruction.raw)]), hex(address)


_step = st.tuples(st.sampled_from(_DAEMONS), st.sampled_from(_MODELS),
                  st.integers(0, _SITES - 1),
                  st.integers(0, _POINTS - 1))


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(steps=st.lists(_step, min_size=4, max_size=12),
       capacity=st.integers(2, 4))
def test_interleaved_sessions_match_private_machines(cells, steps,
                                                     capacity):
    cache = SessionCache(capacity=capacity)
    # replaying the steps backwards revisits every session after the
    # machine has served the daemon's other drawn sites
    for daemon_name, model_name, site_index, point_index in (
            steps + steps[::-1]):
        daemon, factory, sites = cells[daemon_name]
        address = sorted(sites)[site_index]
        points = sites[address].get(model_name)
        if not points:
            continue
        point = points[point_index % len(points)]
        model = get_fault_model(model_name)
        key = SessionCache.key(daemon, _CLIENT, None, address)
        session = cache.lookup(key)
        if session is None:
            session = BreakpointSession(daemon, factory, address,
                                        machine=cache.machine(daemon))
            assert session.reached
            cache.store(key, session)
        machine = cache.machine(daemon)
        assert session.machine is machine
        switched = machine.owner is not session
        session.acquire()
        assert machine.owner is session
        if switched:
            _assert_machine_at_snapshot(session, daemon.module)
        outcome = model.apply(session, point, ENCODING_OLD,
                              daemon.module)
        assert _signature(outcome) == _reference_run(
            daemon_name, daemon, factory, model, point)
