"""Fault-model registry: resolution, enumeration, campaigns,
journal/resume, and the BranchBitFlip equivalence guarantee."""

import pytest

from repro.apps.ftpd import CLIENT_FACTORIES as FTP_CLIENTS
from repro.analysis import campaign_to_dict
from repro.analysis.equivalence import campaign_differences
from repro.injection import (available_fault_models, BranchBitFlip,
                             BurstInjectionPoint, DEFAULT_FAULT_MODEL,
                             FaultModel, get_fault_model,
                             MemoryBitFlip, MemoryInjectionPoint,
                             MultiBitBurst, RegisterBitFlip,
                             RegisterInjectionPoint, run_campaign)
from repro.injection.faultmodels import point_from_dict, point_to_dict
from repro.injection.locations import LOCATION_MISC
from repro.injection.targets import branch_instructions


# ----------------------------------------------------------------------
# Registry resolution

def test_all_models_registered():
    assert available_fault_models() == ["branch-bit", "burst2",
                                        "memory-bit", "register-bit"]
    assert DEFAULT_FAULT_MODEL == "branch-bit"


def test_get_fault_model_resolution_forms():
    assert isinstance(get_fault_model(None), BranchBitFlip)
    assert isinstance(get_fault_model("burst2"), MultiBitBurst)
    assert isinstance(get_fault_model(RegisterBitFlip),
                      RegisterBitFlip)
    instance = MemoryBitFlip(stack_window=2, data_window=0)
    assert get_fault_model(instance) is instance


def test_get_fault_model_unknown_lists_available():
    with pytest.raises(KeyError) as excinfo:
        get_fault_model("cosmic-ray")
    message = str(excinfo.value)
    assert "cosmic-ray" in message and "branch-bit" in message


def test_base_model_is_abstract():
    model = FaultModel()
    with pytest.raises(NotImplementedError):
        model.enumerate_points(None, ())
    with pytest.raises(NotImplementedError):
        model.apply(None, None, "old", None)


# ----------------------------------------------------------------------
# Enumeration shapes

def test_enumeration_shapes(ftp_daemon):
    module = ftp_daemon.module
    ranges = ftp_daemon.auth_ranges()
    instructions = branch_instructions(module, ranges)
    branch_bits = sum(8 * i.length for i in instructions)

    branch = BranchBitFlip().enumerate_points(module, ranges)
    assert len(branch) == branch_bits

    burst = MultiBitBurst().enumerate_points(module, ranges)
    assert len(burst) == sum(7 * i.length for i in instructions)

    register = RegisterBitFlip().enumerate_points(module, ranges)
    assert len(register) == len(instructions) * 8 * 11

    memory = MemoryBitFlip(stack_window=4,
                           data_window=2).enumerate_points(module,
                                                           ranges)
    assert len(memory) == len(instructions) * (4 + 2) * 8


def test_enumeration_order_matches_sort_key(ftp_daemon):
    module = ftp_daemon.module
    ranges = ftp_daemon.auth_ranges()
    for name in available_fault_models():
        points = get_fault_model(name).enumerate_points(module, ranges)
        keys = [point.sort_key for point in points]
        assert keys == sorted(keys), name
        assert len({point.key for point in points}) == len(points), name


def test_locations_text_models_classify_data_models_misc(ftp_daemon):
    module = ftp_daemon.module
    ranges = ftp_daemon.auth_ranges()
    burst_model = MultiBitBurst()
    point = burst_model.enumerate_points(module, ranges)[0]
    assert burst_model.location(point) != ""
    register_model = RegisterBitFlip()
    reg_point = register_model.enumerate_points(module, ranges)[0]
    assert register_model.location(reg_point) == LOCATION_MISC


# ----------------------------------------------------------------------
# Point serialization round-trips

def test_branch_point_record_has_no_ptype(ftp_daemon):
    point = BranchBitFlip().enumerate_points(
        ftp_daemon.module, ftp_daemon.auth_ranges())[0]
    record = point_to_dict(point)
    assert "ptype" not in record
    assert point_from_dict(record) == point


def test_new_model_points_roundtrip():
    points = [
        BurstInjectionPoint(instruction_address=0x1000, byte_offset=1,
                            bit=3, instruction_length=2,
                            mnemonic="je", opcode=0x74,
                            kind="cond_branch"),
        RegisterInjectionPoint(instruction_address=0x1000, register=2,
                               bit=31, mnemonic="je",
                               kind="cond_branch"),
        MemoryInjectionPoint(instruction_address=0x1000, space="stack",
                             offset=4, bit=7),
        MemoryInjectionPoint(instruction_address=0x1000, space="data",
                             offset=0, bit=0),
    ]
    for point in points:
        record = point_to_dict(point)
        assert record["ptype"] in ("burst", "register", "memory")
        assert point_from_dict(record) == point


def test_unknown_ptype_rejected():
    with pytest.raises(ValueError):
        point_from_dict({"ptype": "neutrino", "address": 0})


def test_point_keys_are_distinct_per_model():
    burst = BurstInjectionPoint(instruction_address=0x1000,
                                byte_offset=0, bit=0,
                                instruction_length=2, mnemonic="je",
                                opcode=0x74, kind="cond_branch")
    register = RegisterInjectionPoint(instruction_address=0x1000,
                                      register=0, bit=0)
    memory = MemoryInjectionPoint(instruction_address=0x1000,
                                  space="stack", offset=0, bit=0)
    keys = {burst.key, register.key, memory.key}
    assert len(keys) == 3
    assert all(":" in key for key in keys)


# ----------------------------------------------------------------------
# Campaigns per model (smoke, with journal/resume/shard)

@pytest.mark.parametrize("model", ["burst2", "register-bit",
                                   "memory-bit"])
def test_new_model_campaign_journal_resume(model, ftp_daemon,
                                           tmp_path):
    journal = str(tmp_path / ("%s.jsonl" % model))
    first = run_campaign(ftp_daemon, "Client1",
                         FTP_CLIENTS["Client1"], fault_model=model,
                         max_points=6, journal=journal, resume=True)
    assert first.total_runs == 6
    assert first.fault_model == model
    resumed = run_campaign(ftp_daemon, "Client1",
                           FTP_CLIENTS["Client1"], fault_model=model,
                           max_points=6, journal=journal, resume=True)
    assert resumed.timing["executed"] == 0
    assert campaign_differences(resumed, first) == []


def test_resume_rejects_model_mismatch(ftp_daemon, tmp_path):
    from repro.injection import JournalError
    journal = str(tmp_path / "j.jsonl")
    run_campaign(ftp_daemon, "Client1", FTP_CLIENTS["Client1"],
                 fault_model="register-bit", max_points=2,
                 journal=journal, resume=True)
    with pytest.raises(JournalError):
        run_campaign(ftp_daemon, "Client1", FTP_CLIENTS["Client1"],
                     fault_model="memory-bit", max_points=2,
                     journal=journal, resume=True)


def test_register_campaign_parallel_matches_serial(ftp_daemon):
    serial = run_campaign(ftp_daemon, "Client1",
                          FTP_CLIENTS["Client1"],
                          fault_model="register-bit", max_points=24)
    sharded = run_campaign(ftp_daemon, "Client1",
                           FTP_CLIENTS["Client1"],
                           fault_model="register-bit", max_points=24,
                           workers=2)
    assert campaign_differences(sharded, serial) == []


# ----------------------------------------------------------------------
# The BranchBitFlip equivalence guarantee: default campaigns are the
# pre-plugin pipeline, serial and sharded.

def test_branch_bit_equivalence_serial_and_sharded(ftp_daemon):
    default = run_campaign(ftp_daemon, "Client1",
                           FTP_CLIENTS["Client1"], max_points=40)
    explicit = run_campaign(ftp_daemon, "Client1",
                            FTP_CLIENTS["Client1"],
                            fault_model="branch-bit", max_points=40)
    sharded = run_campaign(ftp_daemon, "Client1",
                           FTP_CLIENTS["Client1"],
                           fault_model=BranchBitFlip(), max_points=40,
                           workers=3)
    assert default.fault_model == "branch-bit"
    assert campaign_differences(explicit, default) == []
    assert campaign_differences(sharded, default) == []
    # the serialized records are the legacy shape bit-for-bit
    assert all("ptype" not in record
               for record in campaign_to_dict(default)["results"])


def test_burst_defeats_new_encoding_sometimes(ftp_daemon):
    """Sanity: the burst model is *applied* under the new encoding via
    map->flip->map-back (reencodes=True), i.e. campaigns differ from a
    raw-byte application for at least some points."""
    model = get_fault_model("burst2")
    assert model.reencodes
    assert not get_fault_model("register-bit").reencodes
    assert not get_fault_model("memory-bit").reencodes
