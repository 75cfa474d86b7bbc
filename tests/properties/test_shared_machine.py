"""Out-of-order acquire and chained prefixes on a shared machine.

A :class:`SessionCache` runs every session of a daemon on one warm
:class:`~repro.injection.injector.Machine`, which starts from the
golden CPU's decodes.  A new session's prefix starts from the
snapshot of the machine's last site when the golden run reaches that
site first (:meth:`~repro.injection.injector.Machine.chain_start`),
and from boot otherwise.  The serial runner visits sites in address
order, so a session is only ever re-entered right after its own
prefix; a fleet worker revisits cached sessions after the machine has
served other sites, clients and fault models, and takes work units
(runs of sites in address order) of several cells in any order.

The properties draw such interleavings over ftpd, sshd and pop3d and
check every experiment against the same point run on a fresh session
with a private machine, every new session's snapshot against the one
built from boot, and the machine itself after every switch of owner:
memory byte-identical to the snapshot, every cached decode built from
pristine text.  :func:`test_chained_snapshots_equal_boot_snapshots`
does the snapshot check for every reached site of all nine daemon x
client pairs, in address order and then backwards.
"""

from __future__ import annotations

import pytest
from hypothesis import (example, given, HealthCheck, settings,
                        strategies as st)

from repro.apps.registry import get_daemon_spec
from repro.injection import (BreakpointSession, get_fault_model,
                             record_golden, SessionCache)
from repro.injection.campaign import ENCODING_OLD
from repro.injection.injector import Machine

_DAEMONS = ("ftpd", "sshd", "pop3d")
_MODELS = ("branch-bit", "burst2", "register-bit", "memory-bit")
_SITES = 3             # covered sites per daemon
_POINTS = 4            # points per (site, model)
_CLIENT = "Client1"
_PAIRS = [(name, client) for name in _DAEMONS
          for client in get_daemon_spec(name).clients()]

_cells = {}
_goldens = {}
_reference = {}
_boot_states = {}
_boot_machines = {}
_first_points = {}


@pytest.fixture(scope="module")
def daemons(ftp_daemon, ssh_daemon, pop3_daemon):
    return {"ftpd": ftp_daemon, "sshd": ssh_daemon, "pop3d": pop3_daemon}


def _golden(daemons, name, client):
    """``(factory, golden run, the golden CPU's decodes, covered
    branch-bit sites in address order)`` of one pair, recorded once."""
    if (name, client) not in _goldens:
        daemon = daemons[name]
        factory = get_daemon_spec(name).client_factory(client)
        decodes = {}
        golden = record_golden(daemon, factory, decodes=decodes)
        points = get_fault_model("branch-bit").enumerate_points(
            daemon.module, daemon.auth_ranges())
        sites = sorted({point.instruction_address for point in points}
                       & golden.coverage)
        _goldens[name, client] = factory, golden, decodes, sites
    return _goldens[name, client]


@pytest.fixture(scope="module")
def cells(daemons):
    """Per daemon: the compiled daemon, its client factory, its
    Client1 golden run and decodes and, per site x model, a few
    covered points (built once)."""
    for name in _DAEMONS:
        if name in _cells:
            continue
        daemon = daemons[name]
        factory, golden, decodes, __ = _golden(daemons, name, _CLIENT)
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
        _cells[name] = (daemon, factory, sites, golden, decodes)
    return _cells


def _signature(outcome):
    status, kernel, __ = outcome
    return (status.kind, status.exit_code, status.signal,
            kernel.channel.normalized_transcript(), status.instret)


def _reference_run(pair, daemon, factory, model, point):
    """The point on a fresh session with a private machine."""
    key = (pair, model.name, point.key)
    if key not in _reference:
        session = BreakpointSession(daemon, factory,
                                    point.instruction_address)
        _reference[key] = _signature(
            model.apply(session, point, ENCODING_OLD, daemon.module))
    return _reference[key]


def _snapshot_state(session):
    """Everything *session*'s snapshot holds, by value: region blobs,
    the CPU tuple, ``instret``, the kernel, its channel and client
    (and how the prefix ended)."""
    snapshot = session.snapshot
    kernel = snapshot.kernel
    channel = kernel.channel
    return {
        "regions": snapshot.region_blobs,
        "cpu": (snapshot.regs, snapshot.eip, snapshot.eflags,
                snapshot.segments),
        "instret": snapshot.instret,
        "kernel": (bytes(kernel.stderr_log), kernel.next_fd,
                   kernel.syscall_count, list(kernel.write_events),
                   {fd: (handle.path, handle.position)
                    for fd, handle in kernel.open_files.items()}),
        "channel": (bytes(channel.to_server), list(channel.transcript)),
        "client": {name: value
                   for name, value in vars(channel.client).items()
                   if name != "channel"},
        "arrival": session.arrival,
    }


def _boot_state(daemons, name, client, address):
    """The snapshot state at *address* of a session built from boot on
    a machine that never got the golden run's decodes."""
    key = (name, client, address)
    if key not in _boot_states:
        factory = _golden(daemons, name, client)[0]
        machine = _boot_machines.get(name)
        if machine is None:
            machine = _boot_machines[name] = Machine(daemons[name])
        session = BreakpointSession(daemons[name], factory, address,
                                    machine=machine)
        assert session.reached and not session.chained
        _boot_states[key] = _snapshot_state(session)
    return _boot_states[key]


def _site_point(daemon, name, model, address):
    """The first point *model* enumerates at *address*, or ``None``."""
    key = (name, model.name)
    if key not in _first_points:
        firsts = _first_points[key] = {}
        for point in model.enumerate_points(daemon.module,
                                            daemon.auth_ranges()):
            firsts.setdefault(point.instruction_address, point)
    return _first_points[key].get(address)


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
        (instruction.address, instruction)
        for block in cpu.blocks.values() for instruction in block[4]]
    for address, instruction in cached:
        offset = address - base
        assert instruction.raw == bytes(
            text[offset:offset + len(instruction.raw)]), hex(address)


@pytest.mark.parametrize("name,client", _PAIRS)
def test_chained_snapshots_equal_boot_snapshots(daemons, name, client):
    """Every reached site of the pair on one machine that starts from
    the golden CPU's decodes, in address order (almost every prefix
    chains) and then backwards (a site the golden run reaches earlier
    never chains from a later one): each session's snapshot equals
    the one built from boot, also once every later prefix has run."""
    daemon = daemons[name]
    factory, golden, decodes, sites = _golden(daemons, name, client)
    machine = SessionCache().machine(daemon, decodes)
    assert machine.process.cpu.decode_cache
    built = []
    for order in (sites, sites[::-1]):
        for address in order:
            session = BreakpointSession(daemon, factory, address,
                                        machine=machine,
                                        golden=golden)
            assert session.reached, hex(address)
            built.append(session)
    forward = built[:len(sites)]
    assert 2 * sum(session.chained for session in forward) > len(sites)
    for session in built:
        assert _snapshot_state(session) == _boot_state(
            daemons, name, client, session.breakpoint_address), \
            hex(session.breakpoint_address)
    built[-1].acquire()
    _assert_machine_at_snapshot(built[-1], daemon.module)


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
        daemon, factory, sites, golden, decodes = cells[daemon_name]
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
                                        machine=cache.machine(daemon,
                                                              decodes),
                                        golden=golden)
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
            (daemon_name, _CLIENT), daemon, factory, model, point)


#: one fleet work unit: a pair, where its run of sites starts (a
#: fraction of the pair's sites), how many sites it takes, and the
#: fault model of its campaign.
_unit = st.tuples(st.sampled_from(_PAIRS), st.floats(0, 1),
                  st.integers(1, 6), st.sampled_from(_MODELS))


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(units=st.lists(_unit, min_size=2, max_size=6),
       capacity=st.integers(1, 4))
# the second unit's first site comes after the first unit's in the
# second client's golden run too, and both prefixes are alike up to
# there: only the client's state tells the two cells apart
@example(units=[(("ftpd", "Client1"), 0.0, 1, "branch-bit"),
                (("ftpd", "Client2"), 0.2, 2, "branch-bit")],
         capacity=1)
def test_fleet_unit_orders_chain_soundly(daemons, units, capacity):
    """A worker's session cache serving units of several cells, in any
    order, each unit's sites in address order: every new session's
    snapshot equals the boot one (a prefix chains only within one
    golden run and budget, whichever cell ran last), and the first
    point of each site matches a private machine's."""
    cache = SessionCache(capacity=capacity)
    for (name, client), start, length, model_name in units:
        daemon = daemons[name]
        factory, golden, decodes, sites = _golden(daemons, name, client)
        first = min(int(start * len(sites)), len(sites) - 1)
        model = get_fault_model(model_name)
        for address in sites[first:first + length]:
            key = SessionCache.key(daemon, client, None, address)
            session = cache.lookup(key)
            if session is None:
                session = BreakpointSession(
                    daemon, factory, address,
                    machine=cache.machine(daemon, decodes),
                    golden=golden)
                assert _snapshot_state(session) == _boot_state(
                    daemons, name, client, address), hex(address)
                cache.store(key, session)
            point = _site_point(daemon, name, model, address)
            if point is not None:
                assert _signature(model.apply(
                    session, point, ENCODING_OLD, daemon.module)) \
                    == _reference_run((name, client), daemon, factory,
                                      model, point)
