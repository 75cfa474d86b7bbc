"""Fault-tolerant campaign runner: isolation, watchdog, journal
resume, quarantine."""

from __future__ import annotations

import json

import pytest

from repro.apps.ftpd import client1
from repro.cc import compile_program
from repro.emu import Process
from repro.injection import (CampaignRunner, HANG, HARNESS_FAULT,
                             JournalError, NOT_ACTIVATED, run_campaign,
                             Watchdog, WatchdogConfig)
from repro.injection.runner import refine_limit_outcome
from repro.kernel import Kernel, ScriptedClient
from repro.x86 import assemble

SLICE = 60


# ----------------------------------------------------------------------
# A tiny handcrafted daemon whose only branch has a known
# infinite-loop flip: jne's displacement 0xFA becomes 0xFE (jne back
# onto itself) when bit 2 of byte 1 flips.

LOOP_DAEMON_ASM = """
.text
.global _start
_start:
    movl $3, %ecx
loop:
    nop
    nop
    nop
    dec %ecx
    jnz loop
    movl $0, %ebx
    movl $1, %eax
    int $0x80
"""

LOOP_BRANCH_ADDRESS = 0x8048009   # the jne
LOOP_FLIP_BYTE_OFFSET = 1         # its displacement byte (0xFA)
LOOP_FLIP_BIT = 2                 # 0xFA ^ 0x04 == 0xFE: jne to itself


class NullClient(ScriptedClient):
    def receive(self, data):
        pass

    def broke_in(self):
        return False


class LoopDaemon:
    """Minimal stand-in satisfying the runner's daemon protocol."""

    def __init__(self):
        self.module = assemble(LOOP_DAEMON_ASM)

    def auth_ranges(self):
        return [(self.module.text_base,
                 self.module.text_base + len(self.module.text))]

    def make_kernel(self, client):
        return Kernel.for_client(client)


def run_loop_campaign(**kwargs):
    kwargs.setdefault("budget", 5_000)
    return run_campaign(LoopDaemon(), "Null", NullClient, **kwargs)


# ----------------------------------------------------------------------
# Watchdog / HANG classification

class TestHangWatchdog:
    def test_infinite_loop_flip_is_classified_hang(self):
        campaign = run_loop_campaign()
        by_flip = {(r.point.byte_offset, r.point.bit): r
                   for r in campaign.results}
        hang = by_flip[(LOOP_FLIP_BYTE_OFFSET, LOOP_FLIP_BIT)]
        assert hang.outcome == HANG
        assert hang.exit_kind == "limit"
        assert "tight loop" in hang.detail
        low, high = hang.hang_eip_range
        assert low <= LOOP_BRANCH_ADDRESS <= high

    def test_hang_folds_into_fsv_for_paper_tables(self):
        campaign = run_loop_campaign()
        refined = campaign.counts(refined=True)
        folded = campaign.counts()
        assert refined[HANG] >= 1
        assert folded["FSV"] == refined["FSV"] + refined[HANG]
        assert sum(folded.values()) == campaign.total_runs

    def test_budget_exhaustion_with_progress_stays_fsv(self):
        # A program that executes fresh code until the budget dies is
        # looping but *progressing*; the probe must not call it HANG.
        source = """
int main() {
    int i;
    int total;
    total = 0;
    i = 0;
    while (i < 100000000) {
        total = total + i;
        i = i + 1;
    }
    return total & 1;
}
"""
        program = compile_program(source)
        process = Process(program.module, Kernel())
        watchdog = Watchdog(WatchdogConfig(loop_eip_limit=4))
        status = watchdog.run(process, 10_000)
        assert status.kind == "limit"
        # the while-loop body spans more than 4 distinct EIPs
        assert not status.hang_probe.tight_loop

    def test_probe_detects_tight_loop_directly(self):
        source = "int main() { while (1) { } return 0; }"
        program = compile_program(source)
        process = Process(program.module, Kernel())
        watchdog = Watchdog()
        status = watchdog.run(process, 10_000)
        assert status.kind == "limit"
        assert status.hang_probe.tight_loop
        assert status.hang_probe.eip_low <= status.hang_probe.eip_high

    def test_refine_promotes_fsv_limit_to_hang(self):
        source = "int main() { while (1) { } return 0; }"
        program = compile_program(source)
        process = Process(program.module, Kernel())
        status = Watchdog().run(process, 10_000)
        outcome, detail, eip_range = refine_limit_outcome(
            "FSV", "server looping (budget exhausted)", status)
        assert outcome == HANG
        assert eip_range == (status.hang_probe.eip_low,
                             status.hang_probe.eip_high)

    def test_refine_leaves_other_outcomes_alone(self):
        source = "int main() { while (1) { } return 0; }"
        program = compile_program(source)
        process = Process(program.module, Kernel())
        status = Watchdog().run(process, 10_000)
        outcome, detail, eip_range = refine_limit_outcome(
            "BRK", "unauthorised access granted", status)
        assert outcome == "BRK"
        assert eip_range is None

    def test_wall_clock_watchdog(self):
        source = "int main() { while (1) { } return 0; }"
        program = compile_program(source)
        process = Process(program.module, Kernel())
        watchdog = Watchdog(WatchdogConfig(wall_clock_limit=0.0,
                                           slice_instructions=256))
        status = watchdog.run(process, 10_000_000)
        assert status.kind == "limit"
        assert status.hang_probe.wall_clock
        outcome, detail, __ = refine_limit_outcome(
            "FSV", "server looping (budget exhausted)", status)
        assert outcome == HANG
        assert "wall-clock" in detail


# ----------------------------------------------------------------------
# Experiment isolation (HARNESS_FAULT)

class TestHarnessFaultIsolation:
    def test_exception_becomes_one_record_and_campaign_completes(
            self, ftp_daemon, monkeypatch):
        baseline = run_campaign(ftp_daemon, "Client1", client1,
                                max_points=SLICE)
        victim = next(r.point for r in baseline.results if r.activated)
        original = Process.flip_bit

        def exploding_flip(self, address, bit):
            if (address, bit) == (victim.flip_address, victim.bit):
                raise RuntimeError("synthetic emulator fault")
            return original(self, address, bit)

        monkeypatch.setattr(Process, "flip_bit", exploding_flip)
        campaign = run_campaign(ftp_daemon, "Client1", client1,
                                max_points=SLICE)
        faults = campaign.results_with_outcome(HARNESS_FAULT)
        assert len(faults) == 1
        fault = faults[0]
        assert fault.point == victim
        assert not fault.activated
        assert "RuntimeError" in fault.detail
        assert "synthetic emulator fault" in fault.detail
        # every other point still ran, with unchanged outcomes
        assert campaign.total_runs == SLICE
        for before, after in zip(baseline.results, campaign.results):
            if after.point != victim:
                assert before.outcome == after.outcome

    def test_harness_fault_folds_into_na(self, ftp_daemon, monkeypatch):
        baseline = run_campaign(ftp_daemon, "Client1", client1,
                                max_points=SLICE)
        victim = next(r.point for r in baseline.results if r.activated)
        original = Process.flip_bit

        def exploding_flip(self, address, bit):
            if (address, bit) == (victim.flip_address, victim.bit):
                raise RuntimeError("boom")
            return original(self, address, bit)

        monkeypatch.setattr(Process, "flip_bit", exploding_flip)
        campaign = run_campaign(ftp_daemon, "Client1", client1,
                                max_points=SLICE)
        refined = campaign.counts(refined=True)
        folded = campaign.counts()
        assert refined[HARNESS_FAULT] == 1
        assert folded["NA"] == refined["NA"] + 1

    def test_fault_mid_run_drops_the_shared_machine(self, ftp_daemon,
                                                    monkeypatch):
        """A harness fault in the middle of a suffix run leaves the
        daemon's shared machine (memory, CPU, caches) suspect: it is
        dropped and rebuilt, and every other point -- the later sites'
        included -- matches a clean run."""
        from repro.injection import injector
        points = 160                          # two activated sites
        baseline = run_campaign(ftp_daemon, "Client1", client1,
                                max_points=points)
        activated = [r.point for r in baseline.results if r.activated]
        victim = activated[3]
        assert any(point.instruction_address
                   > victim.instruction_address for point in activated)
        flipped = []
        original_flip = Process.flip_bit
        original_run = Watchdog.run
        machines = []
        original_machine = injector.Machine.__init__

        def marking_flip(self, address, bit):
            flipped.append((address, bit)
                           == (victim.flip_address, victim.bit))
            return original_flip(self, address, bit)

        def faulting_run(self, process, budget):
            if flipped[-1]:
                process.run(200)              # dirty the machine
                raise RuntimeError("synthetic mid-run fault")
            return original_run(self, process, budget)

        def counting_machine(self, daemon):
            machines.append(self)
            original_machine(self, daemon)

        monkeypatch.setattr(Process, "flip_bit", marking_flip)
        monkeypatch.setattr(Watchdog, "run", faulting_run)
        monkeypatch.setattr(injector.Machine, "__init__",
                            counting_machine)
        campaign = run_campaign(ftp_daemon, "Client1", client1,
                                max_points=points)
        faults = campaign.results_with_outcome(HARNESS_FAULT)
        assert [fault.point for fault in faults] == [victim]
        assert "synthetic mid-run fault" in faults[0].detail
        assert len(machines) == 2             # dropped and rebuilt once

        def signature(result):
            return (result.point, result.outcome, result.exit_kind,
                    result.crash_latency, result.activation_instret,
                    result.detail)

        assert [signature(r) for r in campaign.results
                if r.point != victim] \
            == [signature(r) for r in baseline.results
                if r.point != victim]


# ----------------------------------------------------------------------
# JSONL journal: checkpoint / resume

class TestJournalResume:
    def journal_lines(self, path):
        with open(path) as handle:
            return [json.loads(line) for line in handle
                    if line.strip()]

    def test_journal_records_every_result(self, ftp_daemon, tmp_path):
        path = tmp_path / "run.jsonl"
        campaign = run_campaign(ftp_daemon, "Client1", client1,
                                max_points=SLICE, journal=path)
        lines = self.journal_lines(path)
        assert lines[0]["type"] == "meta"
        assert lines[0]["daemon"] == "FtpDaemon"
        results = [line for line in lines if line["type"] == "result"]
        assert len(results) == campaign.total_runs == SLICE

    def test_kill_and_resume_equivalence(self, ftp_daemon, tmp_path):
        path = tmp_path / "run.jsonl"
        uninterrupted = run_campaign(ftp_daemon, "Client1", client1,
                                     max_points=SLICE, journal=path)
        # Simulate a SIGKILL after 20 experiments: keep the meta line
        # plus 20 full records and half of the 21st.
        with open(path) as handle:
            lines = handle.readlines()
        with open(path, "w") as handle:
            handle.writelines(lines[:21])
            handle.write(lines[21][:len(lines[21]) // 2])

        executed = []
        original = CampaignRunner._execute

        def counting_execute(self, point, location):
            executed.append(point)
            return original(self, point, location)

        CampaignRunner._execute = counting_execute
        try:
            resumed = run_campaign(ftp_daemon, "Client1", client1,
                                   max_points=SLICE, journal=path,
                                   resume=True)
        finally:
            CampaignRunner._execute = original
        # only the missing suffix was re-executed ...
        assert len(executed) == SLICE - 20
        # ... and the tallies are identical to the uninterrupted run
        assert resumed.counts(refined=True) \
            == uninterrupted.counts(refined=True)
        assert [r.outcome for r in resumed.results] \
            == [r.outcome for r in uninterrupted.results]
        assert [r.point for r in resumed.results] \
            == [r.point for r in uninterrupted.results]
        # the journal was healed: meta + one record per experiment
        lines = self.journal_lines(path)
        assert len(lines) == SLICE + 1

    def test_resume_with_complete_journal_runs_nothing(
            self, ftp_daemon, tmp_path):
        path = tmp_path / "run.jsonl"
        first = run_campaign(ftp_daemon, "Client1", client1,
                             max_points=SLICE, journal=path)

        def forbidden(self, point, location):
            raise AssertionError("resume should not re-execute")

        original = CampaignRunner._execute
        CampaignRunner._execute = forbidden
        try:
            resumed = run_campaign(ftp_daemon, "Client1", client1,
                                   max_points=SLICE, journal=path,
                                   resume=True)
        finally:
            CampaignRunner._execute = original
        assert resumed.counts(refined=True) == first.counts(refined=True)

    def test_resume_rejects_mismatched_journal(self, ftp_daemon,
                                               tmp_path):
        path = tmp_path / "run.jsonl"
        run_campaign(ftp_daemon, "Client1", client1, max_points=8,
                     journal=path)
        with pytest.raises(JournalError):
            run_campaign(ftp_daemon, "Client2", client1, max_points=8,
                         journal=path, resume=True)

    def test_corrupt_middle_line_raises(self, ftp_daemon, tmp_path):
        path = tmp_path / "run.jsonl"
        run_campaign(ftp_daemon, "Client1", client1, max_points=8,
                     journal=path)
        with open(path) as handle:
            lines = handle.readlines()
        lines[3] = "{not json}\n"
        with open(path, "w") as handle:
            handle.writelines(lines)
        with pytest.raises(JournalError):
            run_campaign(ftp_daemon, "Client1", client1, max_points=8,
                         journal=path, resume=True)


# ----------------------------------------------------------------------
# Quarantine-with-retry

class TestQuarantine:
    def _unstable_campaign(self, monkeypatch, **kwargs):
        """Make the known hang flip alternate with a harmless one, so
        its outcome never stabilises across re-executions."""
        target = (LOOP_BRANCH_ADDRESS + LOOP_FLIP_BYTE_OFFSET,
                  LOOP_FLIP_BIT)
        calls = {"n": 0}
        original = Process.flip_bit

        def flaky_flip(self, address, bit):
            if (address, bit) == target:
                calls["n"] += 1
                if calls["n"] % 2 == 0:
                    bit = 0        # displacement 0xFA -> 0xFB: still
                                   # terminates, different outcome
            return original(self, address, bit)

        monkeypatch.setattr(Process, "flip_bit", flaky_flip)
        return run_loop_campaign(retries=1, **kwargs)

    def test_stable_campaign_with_retries_quarantines_nothing(self):
        campaign = run_loop_campaign(retries=2)
        assert campaign.quarantined_count == 0
        baseline = run_loop_campaign()
        assert campaign.counts(refined=True) \
            == baseline.counts(refined=True)

    def test_unstable_point_is_quarantined(self, monkeypatch):
        campaign = self._unstable_campaign(monkeypatch)
        assert campaign.quarantined_count == 1
        entry = campaign.quarantined[0]
        assert entry.point.byte_offset == LOOP_FLIP_BYTE_OFFSET
        assert entry.point.bit == LOOP_FLIP_BIT
        assert entry.rounds >= 1
        assert len(set(entry.outcomes)) > 1
        # excluded from results and every tally, counted explicitly
        keys = [(r.point.byte_offset, r.point.bit)
                for r in campaign.results]
        assert (LOOP_FLIP_BYTE_OFFSET, LOOP_FLIP_BIT) not in keys
        assert sum(campaign.counts().values()) == campaign.total_runs

    def test_quarantine_is_journaled_and_survives_resume(
            self, monkeypatch, tmp_path):
        path = tmp_path / "run.jsonl"
        campaign = self._unstable_campaign(monkeypatch, journal=path)
        assert campaign.quarantined_count == 1
        with open(path) as handle:
            lines = [json.loads(line) for line in handle]
        quarantine = [line for line in lines
                      if line["type"] == "quarantine"]
        assert len(quarantine) == 1
        assert quarantine[0]["point"]["bit"] == LOOP_FLIP_BIT
        # resume keeps the point quarantined without re-running it
        resumed = run_loop_campaign(retries=1, journal=path,
                                    resume=True)
        assert resumed.quarantined_count == 1
        assert resumed.counts(refined=True) \
            == campaign.counts(refined=True)


# ----------------------------------------------------------------------
# Coverage/breakpoint disagreement (defensive path)

class TestCoverageDisagreement:
    def test_forged_mismatch_is_recorded_and_journaled(
            self, ftp_daemon, tmp_path, monkeypatch):
        clean = run_campaign(ftp_daemon, "Client1", client1,
                             max_points=SLICE)
        victim = next(r for r in clean.results
                      if r.outcome == NOT_ACTIVATED)
        forged_address = victim.point.instruction_address

        import dataclasses
        from repro.injection import runner as runner_module
        real_record_golden = runner_module.record_golden

        def forged_golden(daemon, client_factory, budget):
            golden = real_record_golden(daemon, client_factory, budget)
            return dataclasses.replace(
                golden,
                coverage=frozenset(golden.coverage
                                   | {forged_address}))

        monkeypatch.setattr(runner_module, "record_golden",
                            forged_golden)
        path = tmp_path / "run.jsonl"
        campaign = run_campaign(ftp_daemon, "Client1", client1,
                                max_points=SLICE, journal=path)
        disagreements = [r for r in campaign.results
                         if "coverage/breakpoint disagreement"
                         in r.detail]
        assert disagreements
        for result in disagreements:
            assert result.outcome == NOT_ACTIVATED
            assert not result.activated
            assert result.point.instruction_address == forged_address
        # the detail string travelled through the journal
        with open(path) as handle:
            journaled = [json.loads(line) for line in handle]
        journaled_details = [line["detail"] for line in journaled
                             if line["type"] == "result"
                             and line["address"] == forged_address]
        assert journaled_details
        assert all("coverage/breakpoint disagreement" in detail
                   for detail in journaled_details)

    def test_campaign_tally_still_sums(self, ftp_daemon, monkeypatch):
        clean = run_campaign(ftp_daemon, "Client1", client1,
                             max_points=SLICE)
        victim = next(r for r in clean.results
                      if r.outcome == NOT_ACTIVATED)
        forged_address = victim.point.instruction_address

        import dataclasses
        from repro.injection import runner as runner_module
        real_record_golden = runner_module.record_golden

        def forged_golden(daemon, client_factory, budget):
            golden = real_record_golden(daemon, client_factory, budget)
            return dataclasses.replace(
                golden,
                coverage=frozenset(golden.coverage
                                   | {forged_address}))

        monkeypatch.setattr(runner_module, "record_golden",
                            forged_golden)
        campaign = run_campaign(ftp_daemon, "Client1", client1,
                                max_points=SLICE)
        assert campaign.total_runs == SLICE
        assert sum(campaign.counts().values()) == SLICE
        assert campaign.counts() == clean.counts()
