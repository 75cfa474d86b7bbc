"""Fault-injection framework: targets, injector, outcomes, campaigns."""

from .campaign import (ALL_ENCODINGS, CampaignResult, CampaignSpec,
                       ENCODING_NEW, ENCODING_OLD, enumerate_specs,
                       QuarantinedPoint, run_both_encodings,
                       run_campaign, run_spec, RunOptions)
from .faultmodels import (available_fault_models, BranchBitFlip,
                          BurstInjectionPoint, DEFAULT_FAULT_MODEL,
                          FAULT_MODELS, FaultModel, get_fault_model,
                          MemoryBitFlip, MemoryInjectionPoint,
                          MultiBitBurst, register_fault_model,
                          RegisterBitFlip, RegisterInjectionPoint)
from .golden import GoldenRun, record_golden
from .injector import (BreakpointSession, plain_run,
                       run_clean_connection, SessionCache,
                       single_injection)
from .snapshot import MachineSnapshot
from .runner import (campaign_timing, CampaignInterrupted,
                     CampaignJournal, CampaignRunner,
                     discover_shard_journals, JournalError,
                     JournalFamily, JournalLoadReport,
                     shard_journal_path, Watchdog, WatchdogConfig)
from .chaos import (ChaosAction, ChaosPolicy, corrupt_journal_tail)
from .pruning import (class_is_audited, default_classify,
                      fan_out_result, GuardedWatchdog, PointClass,
                      PRUNE_BYTES, PRUNE_DEAD, PRUNE_FAULT,
                      PRUNE_SOLO, PRUNE_SUCC, PruningAuditError,
                      PruningPlan, result_signature, SitePlan)
from .scheduler import (build_units, CampaignScheduler,
                        instruction_groups, UNIT_INSTRUCTIONS,
                        WorkUnit)
from .fleet import (default_daemon_factory, FleetConfig,
                    run_fleet_campaign, WorkerFleet)
from .locations import (ALL_LOCATIONS, classify_location,
                        LOCATION_2BC, LOCATION_2BO, LOCATION_6BC1,
                        LOCATION_6BC2, LOCATION_6BO,
                        LOCATION_DEFINITIONS, LOCATION_MISC)
from .outcomes import (ALL_OUTCOMES, classify_completed_run,
                       FAIL_SILENCE_VIOLATION, FOLD_TO_PAPER, HANG,
                       HARNESS_FAULT, InjectionResult, NOT_ACTIVATED,
                       NOT_MANIFESTED, OUTCOME_DESCRIPTIONS,
                       REFINED_OUTCOMES, SECURITY_BREAKIN,
                       SYSTEM_DETECTION)
from .latent import (LatentErrorResult, LatentStudyResult,
                     run_latent_study, sample_text_faults)
from .random_campaign import RandomCampaignResult, run_random_campaign
from .targets import (branch_instructions, DEFAULT_TARGET_KINDS,
                      describe_targets, enumerate_points, InjectionPoint,
                      TARGET_KINDS_WITH_CALLS)

__all__ = [
    "ALL_ENCODINGS", "CampaignSpec", "enumerate_specs", "run_spec",
    "RunOptions",
    "FaultModel", "FAULT_MODELS", "DEFAULT_FAULT_MODEL",
    "available_fault_models", "get_fault_model", "register_fault_model",
    "BranchBitFlip", "MultiBitBurst", "RegisterBitFlip", "MemoryBitFlip",
    "BurstInjectionPoint", "RegisterInjectionPoint",
    "MemoryInjectionPoint",
    "CampaignResult", "ENCODING_OLD", "ENCODING_NEW", "run_campaign",
    "run_both_encodings", "QuarantinedPoint", "GoldenRun",
    "record_golden", "BreakpointSession", "MachineSnapshot",
    "SessionCache", "plain_run",
    "single_injection", "run_clean_connection", "CampaignRunner",
    "CampaignJournal", "JournalError", "JournalFamily",
    "campaign_timing", "CampaignInterrupted", "JournalLoadReport",
    "ChaosAction", "ChaosPolicy", "corrupt_journal_tail",
    "PruningAuditError", "PruningPlan", "SitePlan", "PointClass",
    "GuardedWatchdog", "default_classify", "fan_out_result",
    "class_is_audited", "result_signature", "PRUNE_DEAD",
    "PRUNE_BYTES", "PRUNE_FAULT", "PRUNE_SUCC", "PRUNE_SOLO",
    "CampaignScheduler", "WorkUnit", "build_units",
    "instruction_groups", "UNIT_INSTRUCTIONS",
    "FleetConfig", "WorkerFleet", "run_fleet_campaign",
    "default_daemon_factory", "shard_journal_path",
    "discover_shard_journals",
    "Watchdog", "WatchdogConfig", "HANG", "HARNESS_FAULT",
    "REFINED_OUTCOMES", "FOLD_TO_PAPER",
    "ALL_LOCATIONS", "classify_location", "LOCATION_2BC", "LOCATION_2BO",
    "LOCATION_6BC1", "LOCATION_6BC2", "LOCATION_6BO", "LOCATION_MISC",
    "LOCATION_DEFINITIONS", "ALL_OUTCOMES", "classify_completed_run",
    "InjectionResult", "NOT_ACTIVATED", "NOT_MANIFESTED",
    "SYSTEM_DETECTION", "FAIL_SILENCE_VIOLATION", "SECURITY_BREAKIN",
    "OUTCOME_DESCRIPTIONS", "branch_instructions", "describe_targets",
    "enumerate_points", "InjectionPoint", "DEFAULT_TARGET_KINDS",
    "TARGET_KINDS_WITH_CALLS", "RandomCampaignResult",
    "run_random_campaign", "LatentErrorResult", "LatentStudyResult",
    "run_latent_study", "sample_text_faults",
]
