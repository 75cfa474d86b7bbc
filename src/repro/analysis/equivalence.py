"""One definition of "this campaign equals that one".

Every engine configuration -- the compiled fast path, dirty-page
restore, pruning, the worker fleet, observers, chaos recovery and
journal resume -- must produce what a plain serial run produces.
:func:`campaign_differences` is the one comparison the tests and CI
gates use to say so.  It compares:

* the campaign header the table renderers label rows with (daemon,
  client, encoding, fault model);
* every per-experiment record, in order, as the journal writes it
  (:func:`~repro.analysis.serialize.result_to_dict`), minus the
  fields in :data:`CONFIGURATION_FIELDS`;
* the quarantined points;
* the deterministic metrics core (everything outside ``volatile``).

Tables 1/3/5 and Figure 4 are pure functions of the header and the
records, so equal records mean byte-identical paper products.
"""

from __future__ import annotations

from .serialize import quarantined_to_dict, result_to_dict

#: Record fields that say how a result was obtained, not what it was:
#: the forensic ring exists only with ``forensics=True``, and pruning
#: stamps ``class_id``/``representative`` provenance on fanned-out
#: members.  Every other field is a function of the experiment alone.
CONFIGURATION_FIELDS = ("forensics", "class_id", "representative")

HEADER_FIELDS = ("daemon_name", "client_name", "encoding",
                 "fault_model")

#: record mismatches listed before the rest are summarised.
MAX_LISTED = 10


def deterministic_core(metrics):
    """A metrics registry dump without its ``volatile`` section (wall
    clocks, worker counts, cache statistics): the part that must not
    depend on how the campaign was run."""
    core = dict(metrics or {})
    core.pop("volatile", None)
    return core


def _comparable_record(result):
    record = result_to_dict(result)
    for name in CONFIGURATION_FIELDS:
        record.pop(name, None)
    return record


def _record_differences(campaign, reference):
    lines = []
    if len(campaign.results) != len(reference.results):
        lines.append("%d record(s), reference has %d"
                     % (len(campaign.results), len(reference.results)))
    mismatched = 0
    for index, (result, expected) in enumerate(
            zip(campaign.results, reference.results)):
        record = _comparable_record(result)
        wanted = _comparable_record(expected)
        if record == wanted:
            continue
        mismatched += 1
        if mismatched > MAX_LISTED:
            continue
        fields = sorted(name for name in set(record) | set(wanted)
                        if record.get(name) != wanted.get(name))
        lines.append("record %d (%s): %s" % (
            index, expected.point.key, "; ".join(
                "%s %r != %r" % (name, record.get(name),
                                 wanted.get(name))
                for name in fields)))
    if mismatched > MAX_LISTED:
        lines.append("... %d more record(s) differ"
                     % (mismatched - MAX_LISTED))
    return lines


def campaign_differences(campaign, reference):
    """Mismatch lines between *campaign* and *reference*; an empty
    list means the two are equivalent."""
    lines = ["%s %r != %r" % (name, getattr(campaign, name),
                              getattr(reference, name))
             for name in HEADER_FIELDS
             if getattr(campaign, name) != getattr(reference, name)]
    lines.extend(_record_differences(campaign, reference))
    quarantined = [quarantined_to_dict(entry)
                   for entry in campaign.quarantined]
    expected = [quarantined_to_dict(entry)
                for entry in reference.quarantined]
    if quarantined != expected:
        lines.append("quarantined %r != %r" % (quarantined, expected))
    core = deterministic_core(campaign.metrics)
    wanted = deterministic_core(reference.metrics)
    for section in sorted(set(core) | set(wanted)):
        if core.get(section) != wanted.get(section):
            lines.append("metrics %s %r != %r"
                         % (section, core.get(section),
                            wanted.get(section)))
    return lines
