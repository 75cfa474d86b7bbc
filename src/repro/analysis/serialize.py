"""Campaign result serialization.

Campaigns take minutes; downstream analysis (plots, cross-machine
comparisons, regression tracking) wants the raw per-experiment records
without re-running anything.  This module round-trips
:class:`~repro.injection.campaign.CampaignResult` through plain JSON,
and exposes per-record converters (:func:`result_to_dict` /
:func:`result_from_dict`) used by the fault-tolerant runner's JSONL
journal.

Schema history: v1 had no ``crashed_after_breakin``,
``hang_eip_range`` or ``quarantined`` fields; v2 had no ``timing``;
v3's ``timing`` had no execution-engine ``perf`` counter dict (see
:class:`repro.emu.perf.PerfCounters`); v4 predates the fault-model
registry (no ``fault_model`` field, and every point record is a
branch-bit point with no ``ptype`` discriminator); v5 predates the
observability layer (no per-record ``forensics`` snapshot and no
campaign ``metrics`` registry dump -- both optional in v6 and simply
absent from older records); v6 predates equivalence-class pruning (no
per-record ``class_id``/``representative`` provenance -- optional in
v7, absent from exhaustive records).  Older payloads still load, with
the missing fields defaulted -- a v3/v4 payload loads as a
``branch-bit`` campaign, which is what it was.
"""

from __future__ import annotations

import json

from ..injection import faultmodels
from ..injection.campaign import CampaignResult, QuarantinedPoint
from ..injection.outcomes import InjectionResult

SCHEMA_VERSION = 7
_LOADABLE_SCHEMAS = (1, 2, 3, 4, 5, 6, 7)


def campaign_to_dict(campaign):
    """Plain-data snapshot of a campaign (golden run omitted: it is
    reproducible from the daemon + client name)."""
    return {
        "schema": SCHEMA_VERSION,
        "daemon": campaign.daemon_name,
        "client": campaign.client_name,
        "encoding": campaign.encoding,
        "fault_model": campaign.fault_model,
        "results": [result_to_dict(result)
                    for result in campaign.results],
        "quarantined": [quarantined_to_dict(entry)
                        for entry in campaign.quarantined],
        "timing": campaign.timing,
        "metrics": campaign.metrics,
    }


def point_to_dict(point):
    """Serialize any fault model's point.  Branch-bit points keep the
    legacy record shape (no ``ptype``); other models stamp their
    discriminator, which :func:`point_from_dict` dispatches on."""
    return faultmodels.point_to_dict(point)


def point_from_dict(record):
    return faultmodels.point_from_dict(record)


def result_to_dict(result):
    record = point_to_dict(result.point)
    record.update({
        "location": result.location,
        "outcome": result.outcome,
        "activated": result.activated,
        "activation_instret": result.activation_instret,
        "exit_kind": result.exit_kind,
        "exit_code": result.exit_code,
        "signal": result.signal,
        "crash_latency": result.crash_latency,
        "broke_in": result.broke_in,
        "crashed_after_breakin": result.crashed_after_breakin,
        "detail": result.detail,
        "hang_eip_range": (None if result.hang_eip_range is None
                           else list(result.hang_eip_range)),
    })
    # Optional and omitted when absent: journals stay one compact line
    # per record unless the campaign actually ran with forensics on.
    if result.forensics is not None:
        record["forensics"] = result.forensics
    # Same deal for pruning provenance: only multi-member equivalence
    # classes stamp it, so exhaustive journals are byte-identical to
    # pre-v7 ones (modulo the schema number).
    if result.class_id is not None:
        record["class_id"] = result.class_id
    if result.representative is not None:
        record["representative"] = result.representative
    return record


def result_from_dict(record):
    hang_eip_range = record.get("hang_eip_range")
    return InjectionResult(
        point=point_from_dict(record),
        location=record["location"],
        outcome=record["outcome"],
        activated=record["activated"],
        activation_instret=record["activation_instret"],
        exit_kind=record["exit_kind"],
        exit_code=record["exit_code"],
        signal=record["signal"],
        crash_latency=record["crash_latency"],
        broke_in=record["broke_in"],
        crashed_after_breakin=record.get("crashed_after_breakin",
                                         False),
        detail=record["detail"],
        hang_eip_range=(None if hang_eip_range is None
                        else tuple(hang_eip_range)),
        forensics=record.get("forensics"),
        class_id=record.get("class_id"),
        representative=record.get("representative"))


def quarantined_to_dict(entry):
    return {
        "point": point_to_dict(entry.point),
        "location": entry.location,
        "outcomes": list(entry.outcomes),
        "rounds": entry.rounds,
    }


def quarantined_from_dict(record):
    return QuarantinedPoint(
        point=point_from_dict(record["point"]),
        location=record["location"],
        outcomes=tuple(record["outcomes"]),
        rounds=record["rounds"])



def campaign_from_dict(payload):
    """Rebuild a :class:`CampaignResult` (without the golden run)."""
    if payload.get("schema") not in _LOADABLE_SCHEMAS:
        raise ValueError("unsupported schema %r" % payload.get("schema"))
    campaign = CampaignResult(daemon_name=payload["daemon"],
                              client_name=payload["client"],
                              encoding=payload["encoding"],
                              fault_model=payload.get("fault_model",
                                                      "branch-bit"))
    for record in payload["results"]:
        campaign.results.append(result_from_dict(record))
    for record in payload.get("quarantined", ()):
        campaign.quarantined.append(quarantined_from_dict(record))
    campaign.timing = payload.get("timing")
    campaign.metrics = payload.get("metrics")
    return campaign


def save_campaign(campaign, path):
    """Write a campaign to *path* as JSON."""
    with open(path, "w") as handle:
        json.dump(campaign_to_dict(campaign), handle, indent=1)


def load_campaign(path):
    """Read a campaign previously written by :func:`save_campaign`."""
    with open(path) as handle:
        return campaign_from_dict(json.load(handle))


def campaign_from_shard_journals(journal):
    """Reconstruct a :class:`CampaignResult` from a campaign's journal
    family: the base file and the per-worker ``<journal>.shardK``
    files a fleet writes (see :mod:`repro.injection.fleet`).

    *journal* is the campaign's base journal path; the files must
    agree on the campaign they record.
    """
    from ..injection.runner import JournalFamily
    family = JournalFamily.load(journal)
    if not family.members:
        raise FileNotFoundError("no journal found for %r" % journal)
    metas = family.metas
    for meta in metas[1:]:
        for field in ("daemon", "client", "encoding", "model"):
            if meta.get(field) != metas[0].get(field):
                raise ValueError(
                    "journal files disagree on %s: %r vs %r"
                    % (field, metas[0].get(field), meta.get(field)))
    return campaign_from_family(family)


def campaign_from_family(family):
    """A :class:`CampaignResult` of a loaded
    :class:`~repro.injection.runner.JournalFamily`'s records, headed
    by its first meta line.  Results are ordered by point (address,
    byte, bit), which matches enumeration order for a contiguous auth
    section; tallies are order-independent either way."""
    head = family.metas[0] if family.metas else {}
    campaign = CampaignResult(daemon_name=head.get("daemon", ""),
                              client_name=head.get("client", ""),
                              encoding=head.get("encoding", ""),
                              fault_model=head.get("model",
                                                   "branch-bit"))
    campaign.results = sorted(
        (result_from_dict(record) for record in family.results.values()),
        key=lambda result: result.point.sort_key)
    campaign.quarantined = sorted(
        (quarantined_from_dict(record)
         for record in family.quarantined.values()),
        key=lambda entry: entry.point.sort_key)
    return campaign
