"""Golden-run recording: coverage, determinism, and the block tier
against the reference loop."""

from __future__ import annotations

import zlib

import pytest

from repro.apps.ftpd import client1, client2
from repro.apps.registry import get_daemon_spec
from repro.emu import CPU
from repro.emu.memory import PAGE_SHIFT
from repro.injection import record_golden


class TestGoldenRun:
    def test_clean_exit_required(self, ftp_daemon):
        golden = record_golden(ftp_daemon, client1)
        assert golden.exit_kind == "exit"

    def test_milestones(self, ftp_daemon):
        denied = record_golden(ftp_daemon, client1)
        granted = record_golden(ftp_daemon, client2)
        assert not denied.broke_in and not denied.granted
        assert granted.granted
        assert granted.client_state["retrieved_files"] == 2

    def test_coverage_contains_auth_entry(self, ftp_daemon):
        golden = record_golden(ftp_daemon, client1)
        user_start, __ = ftp_daemon.program.function_range("user")
        assert user_start in golden.coverage

    def test_unreached_code_not_covered(self, ftp_daemon):
        golden = record_golden(ftp_daemon, client1)
        # client1 never logs in, so retrieve()'s body is not reached
        retr_start, retr_end = ftp_daemon.program.function_range(
            "retrieve")
        reached = [a for a in golden.coverage
                   if retr_start + 20 <= a < retr_end]
        assert not reached

    def test_byte_coverage_superset_of_starts(self, ftp_daemon):
        golden = record_golden(ftp_daemon, client1)
        text_start = ftp_daemon.module.text_base
        text_end = text_start + len(ftp_daemon.module.text)
        starts_in_text = {a for a in golden.coverage
                          if text_start <= a < text_end}
        assert starts_in_text <= golden.coverage_bytes

    def test_deterministic(self, ftp_daemon):
        first = record_golden(ftp_daemon, client1)
        second = record_golden(ftp_daemon, client1)
        assert first.transcript == second.transcript
        assert first.coverage == second.coverage
        assert first.instret == second.instret

    def test_different_clients_different_coverage(self, ftp_daemon):
        wrong_pw = record_golden(ftp_daemon, client1)
        correct = record_golden(ftp_daemon, client2)
        assert wrong_pw.coverage != correct.coverage


def _touched_pages(live):
    """``(region, page)`` of every writable page the golden access log
    touches; every other page's masks are all dead."""
    pages = set()
    for address, span in zip(live.starts, live.spans):
        for byte in (address, address + abs(span) - 1):
            for region, (start, size) in enumerate(live.regions):
                if start <= byte < start + size:
                    pages.add((region, (byte - start) >> PAGE_SHIFT))
    return pages


def _recorded(golden):
    """Everything a campaign reads from *golden*, live masks at every
    syscall index included."""
    live = golden.live_bytes
    pages = _touched_pages(live)
    return {
        "states": golden.states, "coverage": golden.coverage,
        "last_fetch": golden.last_fetch,
        "last_instret_read": golden.last_instret_read,
        "dead_regs": golden.dead_regs, "arrivals": golden.arrivals,
        "transcript": golden.transcript, "instret": golden.instret,
        "exit": (golden.exit_kind, golden.exit_code, golden.broke_in,
                 golden.granted, golden.client_state),
        "pages": pages,
        "masks": {(index, region, page): zlib.decompress(
            live.packed(index, region, page))
            for index in range(len(golden.states))
            for region, page in pages},
    }


@pytest.mark.parametrize("daemon_name,client", [
    (name, client) for name in ("ftpd", "sshd", "pop3d")
    for client in get_daemon_spec(name).clients()])
def test_block_tier_records_the_reference_golden_run(
        daemon_name, client, ftp_daemon, ssh_daemon, pop3_daemon,
        monkeypatch):
    """All nine goldens: the block tier (trace extended a block at a
    time, blocks made under the access log going through the memory
    methods, pushes forwarded to pops) records exactly what the
    reference loop records, live masks included."""
    daemon = {"ftpd": ftp_daemon, "sshd": ssh_daemon,
              "pop3d": pop3_daemon}[daemon_name]
    factory = get_daemon_spec(daemon_name).client_factory(client)
    block = record_golden(daemon, factory)
    assert block.perf["superstep_instructions"] > 0
    monkeypatch.setattr(CPU, "run",
                        lambda cpu, budget, stop=frozenset():
                        cpu._run_reference(budget, stop))
    reference = record_golden(daemon, factory)
    assert reference.perf["superstep_instructions"] == 0
    assert _recorded(block) == _recorded(reference)
