"""Outcome categories (Section 5.1 of the paper) and the differential
classifier that assigns them."""

from __future__ import annotations

from dataclasses import dataclass

NOT_ACTIVATED = "NA"
NOT_MANIFESTED = "NM"
SYSTEM_DETECTION = "SD"
FAIL_SILENCE_VIOLATION = "FSV"
SECURITY_BREAKIN = "BRK"

#: refinements introduced by the fault-tolerant runner (not part of
#: the paper's five-way taxonomy; fold back via FOLD_TO_PAPER).
HANG = "HANG"
HARNESS_FAULT = "HF"

ALL_OUTCOMES = (NOT_ACTIVATED, NOT_MANIFESTED, SYSTEM_DETECTION,
                FAIL_SILENCE_VIOLATION, SECURITY_BREAKIN)

#: the full tally produced by the runner: the paper's five outcomes
#: plus the two refinements.
REFINED_OUTCOMES = ALL_OUTCOMES + (HANG, HARNESS_FAULT)

#: the order ``repro report``, ``repro top`` and ``repro status``
#: list outcome tallies in.
OUTCOME_ORDER = (NOT_ACTIVATED, NOT_MANIFESTED, FAIL_SILENCE_VIOLATION,
                 SYSTEM_DETECTION, SECURITY_BREAKIN, HANG, HARNESS_FAULT)

#: how the refinements map back onto the paper's taxonomy for Table
#: 1/3/5 comparisons: a detected tight loop was classified FSV
#: ("server looping") before the watchdog existed, and a harness
#: fault yields no valid observation of the target at all, like NA.
FOLD_TO_PAPER = {HANG: FAIL_SILENCE_VIOLATION,
                 HARNESS_FAULT: NOT_ACTIVATED}

OUTCOME_DESCRIPTIONS = {
    NOT_ACTIVATED: "breakpoint never reached; behaviour unchanged",
    NOT_MANIFESTED: "corrupted instruction executed, no visible impact",
    SYSTEM_DETECTION: "server process crashed (illegal instruction, "
                      "segmentation violation, ...)",
    FAIL_SILENCE_VIOLATION: "communication inconsistent with the "
                            "error-free run",
    SECURITY_BREAKIN: "access granted when it should have been denied",
    HANG: "watchdog: server stuck in a tight loop / no forward "
          "progress (refines FSV)",
    HARNESS_FAULT: "harness/emulator raised an unexpected exception; "
                   "no valid observation (excluded like NA)",
}


@dataclass
class InjectionResult:
    """One single-bit experiment's outcome."""

    point: object                  # targets.InjectionPoint
    location: str                  # Table 2 code (2BC, ..., MISC)
    outcome: str                   # NA / NM / SD / FSV / BRK
    activated: bool = False
    activation_instret: int = 0
    exit_kind: str = ""            # exit / crash / limit / hang
    exit_code: int = 0
    signal: str = ""
    crash_latency: int | None = None
    broke_in: bool = False
    crashed_after_breakin: bool = False
    detail: str = ""
    #: (low, high) EIP bounds of the loop body when outcome is HANG
    #: and the instruction-rate probe identified a tight loop.
    hang_eip_range: tuple | None = None
    #: crash-forensics snapshot (:mod:`repro.obs.forensics`) captured
    #: at SD/HANG/HF time when the campaign ran with forensics on;
    #: observational only, never part of any tally.
    forensics: dict | None = None
    #: equivalence-class provenance (:mod:`repro.injection.pruning`):
    #: set on every member of a multi-point class when the campaign
    #: ran with pruning on.  ``representative`` is the point key whose
    #: actual execution this record's outcome was copied from (the
    #: representative's own record carries its own key).  ``None`` on
    #: exhaustive campaigns and singleton classes.
    class_id: str | None = None
    representative: str | None = None


def classify_completed_run(golden, client, transcript, status):
    """Classify a run that was *activated* and ran to some end.

    Returns ``(outcome, detail)``.  Priority order:

    1. BRK -- the client obtained access the golden run was denied
       (paper: "a special type of FSV that creates security holes");
       a subsequent crash does not undo the breach.
    2. SD  -- the server crashed.
    3. FSV -- hang, or transcript differs from golden.
    4. NM  -- transcript identical and the server exited.
    """
    broke_in = client.broke_in() and not golden.broke_in
    if broke_in:
        detail = "unauthorised access granted"
        if status.kind == "crash":
            detail += " (server crashed afterwards: %s)" % status.signal
        return SECURITY_BREAKIN, detail
    if status.kind == "crash":
        return SYSTEM_DETECTION, "%s %s" % (status.signal, status.vector)
    if status.kind == "limit":
        return FAIL_SILENCE_VIOLATION, "server looping (budget exhausted)"
    if status.kind == "hang":
        return FAIL_SILENCE_VIOLATION, "client left waiting (server hang)"
    if transcript != golden.transcript:
        return FAIL_SILENCE_VIOLATION, _transcript_difference(
            golden.transcript, transcript)
    return NOT_MANIFESTED, ""


def _transcript_difference(golden_transcript, transcript):
    """Short human-readable description of the first divergence."""
    for index, (golden_chunk, chunk) in enumerate(
            zip(golden_transcript, transcript)):
        if golden_chunk != chunk:
            return ("message %d differs: expected %s %r..., got %s %r..."
                    % (index, golden_chunk[0], golden_chunk[1][:24],
                       chunk[0], chunk[1][:24]))
    if len(transcript) < len(golden_transcript):
        missing = golden_transcript[len(transcript)]
        return "missing message: %s %r..." % (missing[0], missing[1][:24])
    extra = transcript[len(golden_transcript)]
    return "extra message: %s %r..." % (extra[0], extra[1][:24])
