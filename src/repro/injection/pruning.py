"""Equivalence-class pruning: inject one representative per class.

A selective-exhaustive campaign runs every (instruction x bit) point,
but most corrupted images are provably redundant: they never activate,
they fault before retiring a single instruction, or they decode to an
operation whose one-step effect on the live machine state is identical
to another member's.  This module partitions the enumerated points of
one campaign cell into *equivalence classes* before any experiment
runs; the runner executes one representative per class and fans its
outcome out to every member, with the class provenance journaled
(schema v7 ``class_id``/``representative``) so tallies, tables and
resume behaviour are byte-identical to the exhaustive sweep.

Class taxonomy (per site ``S`` of length ``L``)
-----------------------------------------------

``dead``
    ``S`` is outside the golden run's coverage: the fault is never
    activated, every point at the site is ``NA``.  Model-independent.
``bytes``
    Members whose corruption writes *byte-identical* text (under the
    Section 6.2 re-encoding, distinct masks can collide after the
    map->flip->map-back round trip).  Identical deterministic inputs
    give identical runs; unconditionally sound, and the granularity a
    tripped class dissolves to (see *guard* below).
``fault``
    The corrupted stream raises before anything retires (undecodable
    first instruction, a decoded-but-unimplemented mnemonic) or
    faults immediately after the first retire (a resolved-taken branch
    into unmapped memory or onto undecodable text).  The crash arrives
    at a deterministic ``instret`` with a member-independent
    signal/vector, so the serialized records are identical.
``succ``
    Members whose corrupted first instruction is proven equivalent on
    the *live snapshot state*: a branch (``jcc``/``jmp rel``) whose
    resolved successor -- taken target, or fall-through under the
    materialized lazy EFLAGS -- is the same address, a ``nop``, or a
    flag-only ALU form (``cmp``/``test`` without memory operands) at a
    site where a bounded forward scan proves the flags are fully
    overwritten before being read.  After the first step every member
    is in the same machine state at the same EIP, so the suffix --
    which is a deterministic function of that state -- is identical.

Everything else stays in a singleton (or same-``bytes``) class and
runs exactly as an exhaustive campaign would.

The runtime guard
-----------------

The ``succ`` argument has one hole: the suffix must never *re-fetch*
the corrupted bytes (members differ only there).  Guarded
representatives therefore run under :class:`GuardedWatchdog`, which
drives the CPU with :meth:`~repro.emu.process.Process.run_watched`
over the site's watch window (every address from which a fetch could
overlap the corrupted span).  If the run enters the window the class
is *declassified*: it dissolves into its same-``bytes`` subgroups,
each of which runs its own representative -- the trip costs speed,
never soundness.  Data reads of text bytes are not watched (the
in-repo assembler never emits code that reads its own text as data);
``--audit-fraction`` is the empirical backstop for that documented
limitation: a seeded, partition-independent sample of classes is
exhaustively re-run and any member whose outcome diverges from its
representative hard-fails the campaign with
:class:`PruningAuditError`.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field, replace

from ..kernel import ServerHang
from ..x86 import (DecodeOutOfBytesError, InvalidOpcodeError,
                   KIND_COND_BRANCH, KIND_JUMP, decode,
                   disassemble_range)
from ..x86.flags import condition_met
from .injector import hang_status
from .runner import HangProbe, Watchdog

#: class kinds (the ``class_id`` prefix, see module docstring).
PRUNE_DEAD = "dead"
PRUNE_BYTES = "bytes"
PRUNE_FAULT = "fault"
PRUNE_SUCC = "succ"
#: singleton classes: one point, no journal stamping, no guard.
PRUNE_SOLO = "solo"

#: longest encodable IA-32 instruction: a fetch starting up to this
#: many bytes minus one before a corrupted span can still read it.
_MAX_INSN = 15

#: forward-scan bound for the static flags-liveness analysis.
_FLAGS_SCAN_LIMIT = 16

#: mnemonics that write every flag the conditional logic reads
#: (OF/SF/ZF/AF/PF/CF) -- reaching one of these before any reader
#: proves the incoming flags dead.
_FLAG_KILLERS = frozenset(
    name + suffix
    for name in ("add", "sub", "and", "or", "xor", "cmp", "test", "neg")
    for suffix in ("", "b"))

#: mnemonics that neither read nor write flags; the scan may step over
#: them.  Anything not listed here or in :data:`_FLAG_KILLERS` ends
#: the scan conservatively (partial writers like ``inc``/shifts,
#: readers like ``adc``/``setcc``, and every control transfer).
_FLAG_NEUTRAL = frozenset((
    "mov", "movb", "lea", "push", "pop", "nop", "movzx", "movsx",
    "xchg", "xchgb"))

#: flag-only writers eligible for the flags-dead ``succ`` merge:
#: they write no register or memory destination.
_FLAG_ONLY = frozenset(("cmp", "cmpb", "test", "testb"))


class PruningAuditError(RuntimeError):
    """An audited class member's outcome diverged from its
    representative -- the equivalence claim was wrong for this cell,
    so the campaign must not trust the pruned tally."""


def class_is_audited(class_id, fraction, seed=0):
    """Deterministic, partition-independent audit selection.

    Hashing the (seed, class_id) pair rather than counting classes
    makes the choice identical for serial and sharded campaigns and
    stable under resume.
    """
    if fraction <= 0:
        return False
    if fraction >= 1:
        return True
    digest = zlib.crc32(("%d:%s" % (seed, class_id)).encode("ascii"))
    return digest / 2.0 ** 32 < fraction


def result_signature(result):
    """The outcome fields an audit compares (everything the tables and
    serialized records are built from, minus the point identity)."""
    return (result.outcome, result.activated,
            result.activation_instret, result.exit_kind,
            result.exit_code, result.signal, result.crash_latency,
            result.broke_in, result.crashed_after_breakin,
            result.detail, result.hang_eip_range)


def fan_out_result(rep_result, point, location):
    """A member's journal record: the representative's outcome with
    the member's own point identity and Table 3 location.  Forensics
    snapshots stay on the representative (they describe the one run
    that actually executed)."""
    return replace(rep_result, point=point, location=location,
                   forensics=None)


# ----------------------------------------------------------------------
# The re-fetch guard

class GuardedWatchdog(Watchdog):
    """A :class:`~repro.injection.runner.Watchdog` that drives the
    suffix with :meth:`~repro.emu.process.Process.run_watched` over
    the site's watch window.

    The corrupted site itself is inside the window, so the first
    instruction runs as a one-instruction slice; after that the run
    proceeds in ordinary watchdog slices until it either finishes or
    lands on a watched address.

    Landing back on the site itself (``eip == site``) -- a loop
    re-executing the corrupted instruction, by far the most common
    re-fetch -- is re-resolved dynamically: if every member's
    instruction provably goes to the same successor under the *live*
    flags (``dispositions``), the runs are still in lock-step, so the
    guard steps the representative's instruction and keeps going.
    This extends the seal-time first-step equivalence to every
    dynamic execution of the site.  Any other hit -- or an execution
    where the members disagree -- latches ``tripped``; the run still
    completes (unguarded), so the representative's own result stays
    valid, but the class must be declassified to its same-bytes
    subgroups before fanning out.  A post-budget probe that visits the
    window latches it too.
    """

    def __init__(self, config, watch, tracer=None, site=None,
                 dispositions=None):
        super().__init__(config, tracer)
        self.watch = frozenset(watch)
        self.site = site
        self.dispositions = tuple(dispositions or ())
        self.rechecks = 0
        self.tripped = False

    def _members_agree(self, cpu):
        """Do all member instructions resolve to one successor under
        the live flags?  Sound because the members' machines are in
        identical states here (the guard ensured lock-step so far, and
        any flags a ``flagsonly`` member wrote differently were killed
        before the first control transfer could lead back to the
        site), so the representative's flags are every member's
        flags."""
        successor = None
        for disposition in self.dispositions:
            tag = disposition[0]
            if tag == "branch":
                condition, target, fall = disposition[1:4]
                taken = (condition is None
                         or condition_met(condition, cpu.eflags))
                nxt = target if taken else fall
            elif tag in ("nop", "flagsonly"):
                nxt = disposition[1]
            else:
                return False
            if successor is None:
                successor = nxt
            elif nxt != successor:
                return False
        return True

    def run(self, process, budget):
        config = self.config
        started = time.monotonic()
        cpu = process.cpu
        # The corrupted instruction first, then each lock-step re-step,
        # runs as a one-instruction slice of the CPU's run loop, so an
        # attached forensic ring or sampler sees it like any other.
        stepping = cpu.instret < budget
        try:
            while True:
                if cpu.halted:
                    status = process._status(
                        "exit", getattr(cpu, "exit_code", 0))
                    break
                if stepping:
                    stepping = False
                    status = process._status(*cpu.run(cpu.instret + 1))
                    if status.kind == "crash":
                        break
                    continue
                ceiling = min(cpu.instret + config.slice_instructions,
                              budget)
                if self.tripped:
                    status = process.run(ceiling)
                else:
                    status = process.run_watched(self.watch, ceiling)
                    if status.kind == "watched":
                        if (cpu.eip == self.site
                                and cpu.instret < budget
                                and self.dispositions
                                and self._members_agree(cpu)):
                            self.rechecks += 1
                            stepping = True
                        else:
                            self.tripped = True
                        continue
                if status.kind != "limit" or ceiling >= budget:
                    break
                if config.wall_clock_limit is not None:
                    elapsed = time.monotonic() - started
                    if elapsed > config.wall_clock_limit:
                        status.hang_probe = HangProbe(
                            tight_loop=True, wall_clock=True,
                            eip_low=cpu.eip, eip_high=cpu.eip,
                            elapsed=elapsed)
                        return status
        except ServerHang as hang:
            return hang_status(process, hang)
        if status.kind == "limit":
            status.hang_probe = self._probe(process)
            if not self.watch.isdisjoint(self.probe_seen):
                self.tripped = True
        return status


# ----------------------------------------------------------------------
# Plan data model

@dataclass
class PointClass:
    """One equivalence class, sealed and ready to run."""

    class_id: str
    kind: str
    points: list                   # members in enumeration order
    #: ``succ`` classes spanning more than one corrupted image need
    #: the re-fetch guard; everything else is sound without it.
    needs_guard: bool = False
    #: fetch addresses that can read bytes *this class's* members
    #: disagree on -- the guard set.  Per class, not per site: the
    #: span only covers this class's own images, so an unrelated long
    #: replacement at the same site does not poison the window.
    watch: frozenset = frozenset()
    #: guard recheck inputs: the site address and the member images'
    #: static dispositions, so a loop re-executing the site can be
    #: re-resolved against the live flags instead of tripping.
    site: int = 0
    dispositions: tuple = ()

    @property
    def representative(self):
        return self.points[0]

    @property
    def size(self):
        return len(self.points)


@dataclass
class _ByteGroup:
    """All points at one site whose fault writes the same bytes."""

    replacement: bytes
    members: list = field(default_factory=list)  # (index, point)
    disposition: tuple = ("opaque", "")


@dataclass
class SitePlan:
    """Every enumerated point at one instruction site.

    Text sites are classified statically into :class:`_ByteGroup`
    dispositions at plan-build time and *sealed* into
    :class:`PointClass` lists lazily, at the first experiment for the
    site, because branch resolution and the unimplemented-mnemonic
    check need the live snapshot (materialized EFLAGS, dispatch
    table).  The snapshot state at a site is deterministic, so sealing
    is too -- serial and sharded campaigns derive identical classes.
    """

    address: int
    members: list                  # (enumeration index, point)
    dead: bool = False
    groups: list = field(default_factory=list)
    #: fetch addresses *before* the site that can reach into it (the
    #: image-independent part of every class's guard set; each class
    #: adds its own ``[address, address + span)``).
    watch: frozenset = frozenset()
    #: [address, span_end) is the widest corrupted byte span.
    span_end: int = 0
    flags_dead: bool = False
    module: object = None
    classes: list | None = None

    @property
    def sealed(self):
        return self.classes is not None

    def points(self):
        return [point for __, point in self.members]

    def keys(self):
        return [point.key for __, point in self.members]

    # -- sealing -------------------------------------------------------

    def seal_dead(self):
        self.classes = [PointClass(
            class_id="%s:%x" % (PRUNE_DEAD, self.address),
            kind=PRUNE_DEAD, points=self.points())]

    def seal_solo(self):
        """Singletons only -- the exhaustive behaviour, class-shaped."""
        self.classes = [
            PointClass(class_id="%s:%s" % (PRUNE_SOLO, point.key),
                       kind=PRUNE_SOLO, points=[point])
            for __, point in self.members]

    def seal(self, cpu):
        """Resolve the static dispositions against the live snapshot
        (``cpu`` is the session CPU stopped at the site; ``None`` when
        the breakpoint run disagreed with coverage, in which case only
        the unconditional same-bytes merge applies)."""
        if self.classes is not None:
            return
        eflags = cpu.eflags if cpu is not None else 0
        dispatch = cpu._dispatch if cpu is not None else None
        mapped = (_mapped_predicate(cpu.memory)
                  if cpu is not None else (lambda address: True))
        buckets = {}
        for group in self.groups:
            key = self._resolve(group, eflags, dispatch, mapped)
            buckets.setdefault(key, []).append(group)
        classes = []
        for key, groups in buckets.items():
            kind = key[0]
            if kind == PRUNE_SUCC:
                # The class's guard window only spans *its own*
                # images.  A merged representative whose very first
                # successor sits inside that window would re-fetch
                # bytes the members disagree on immediately, so the
                # merge would trip on step one -- dissolve it to its
                # same-bytes groups up front instead.
                span = max(len(group.replacement) for group in groups)
                watch = self.watch.union(
                    range(self.address, self.address + span))
                if len(groups) > 1 and key[1] in watch:
                    classes.extend(self._bytes_class(group)
                                   for group in groups)
                    continue
                classes.append(PointClass(
                    class_id="%s:%x:%x" % (PRUNE_SUCC, self.address,
                                           key[1]),
                    kind=PRUNE_SUCC, points=self._points_of(groups),
                    needs_guard=len(groups) > 1, watch=watch,
                    site=self.address,
                    dispositions=tuple(group.disposition
                                       for group in groups)))
            elif kind == PRUNE_FAULT:
                classes.append(PointClass(
                    class_id="%s:%x:%s" % (PRUNE_FAULT, self.address,
                                           key[1]),
                    kind=PRUNE_FAULT, points=self._points_of(groups)))
            else:
                # bytes keys embed the replacement, so each bucket
                # holds exactly one group.
                classes.extend(self._bytes_class(group)
                               for group in groups)
        classes.sort(key=lambda cls: cls.points[0].sort_key)
        self.classes = classes

    @staticmethod
    def _points_of(groups):
        members = sorted((pair for group in groups
                          for pair in group.members),
                         key=lambda pair: pair[0])
        return [point for __, point in members]

    def _bytes_class(self, group):
        return PointClass(
            class_id="%s:%x:%08x" % (PRUNE_BYTES, self.address,
                                     zlib.crc32(group.replacement)),
            kind=PRUNE_BYTES, points=self._points_of([group]))

    def _resolve(self, group, eflags, dispatch, mapped):
        """Bucket key for one byte group under the live state."""
        bytes_key = (PRUNE_BYTES, group.replacement)
        disposition = group.disposition
        tag = disposition[0]
        if dispatch is None:
            return bytes_key
        if tag == "fault":
            return (PRUNE_FAULT, disposition[1])
        if tag == "opaque":
            mnemonic = disposition[1]
            if mnemonic and mnemonic not in dispatch:
                return (PRUNE_FAULT, "unimplemented")
            return bytes_key
        if tag == "branch":
            condition, target, fall, mnemonic = disposition[1:]
            if mnemonic not in dispatch:
                return (PRUNE_FAULT, "unimplemented")
            taken = (condition is None
                     or condition_met(condition, eflags))
            successor = target if taken else fall
            if taken and not mapped(successor):
                return (PRUNE_FAULT, "wild-unmapped")
            if taken and self._lands_undecodable(successor):
                return (PRUNE_FAULT, "wild-undecodable")
            return (PRUNE_SUCC, successor)
        if tag in ("nop", "flagsonly"):
            fall, mnemonic = disposition[1:]
            if mnemonic not in dispatch:
                return (PRUNE_FAULT, "unimplemented")
            if tag == "flagsonly" and not self.flags_dead:
                return bytes_key
            return (PRUNE_SUCC, fall)
        return bytes_key

    def _lands_undecodable(self, target):
        """A taken branch onto *original* text bytes that do not
        decode faults on the very next fetch -- provable statically
        when the decode window cannot overlap the corrupted span."""
        module = self.module
        if module is None:
            return False
        text_end = module.text_base + len(module.text)
        if not module.text_base <= target < text_end:
            return False
        if (target + _MAX_INSN > self.address
                and target < self.span_end):
            return False                  # window touches dirty bytes
        offset = target - module.text_base
        try:
            decode(bytes(module.text[offset:offset + _MAX_INSN]),
                   target)
        except InvalidOpcodeError:
            return True
        except DecodeOutOfBytesError:
            return False    # CPU maps this to #PF, not #UD; keep solo
        return False


def _mapped_predicate(memory):
    spans = [(region.start, region.end) for region in memory.regions]

    def mapped(address):
        for start, end in spans:
            if start <= address < end:
                return True
        return False

    return mapped


@dataclass
class PruningPlan:
    """Per-site classification of one campaign cell's points."""

    model_name: str
    sites: list                    # SitePlan, enumeration order

    def class_count(self):
        """Classes across sealed sites (unsealed sites count their
        byte-group upper bound)."""
        count = 0
        for site in self.sites:
            count += (len(site.classes) if site.sealed
                      else len(site.groups))
        return count


def split_by_image(model, module, cls, encoding):
    """Dissolve a tripped class into its same-bytes subgroups.

    Declassification's fallback granularity: members writing
    byte-identical corrupted images form a deterministic-run class
    with no equivalence argument needed.  Subgroups preserve
    enumeration order, so the tripped representative leads the first
    one and its completed run is reused.
    """
    address = cls.points[0].instruction_address
    groups = {}
    order = []
    for point in cls.points:
        image = bytes(model.corrupted_bytes(module, point, encoding))
        members = groups.get(image)
        if members is None:
            members = groups[image] = []
            order.append(image)
        members.append(point)
    return [PointClass(class_id="%s:%x:%08x"
                       % (PRUNE_BYTES, address, zlib.crc32(image)),
                       kind=PRUNE_BYTES, points=groups[image])
            for image in order]


# ----------------------------------------------------------------------
# Classifiers (FaultModel.classify_points implementations)

def _group_by_site(points):
    sites = {}
    order = []
    for index, point in enumerate(points):
        address = point.instruction_address
        plan = sites.get(address)
        if plan is None:
            plan = sites[address] = SitePlan(address=address,
                                             members=[])
            order.append(plan)
        plan.members.append((index, point))
    return order


def default_classify(model, module, points, encoding, coverage,
                     ranges=None):
    """Model-agnostic classification: merge never-activated sites
    (coverage is the same for every model) and keep every covered
    point a singleton.  Data-error models use this as-is -- their
    corruption is transient state, not a text image, so no static
    byte-level argument applies.
    """
    sites = _group_by_site(points)
    for site in sites:
        if site.address in coverage:
            site.seal_solo()
        else:
            site.dead = True
            site.seal_dead()
    return PruningPlan(model_name=model.name, sites=sites)


def classify_text_points(model, module, points, encoding, coverage,
                         ranges=None):
    """Full static classifier for text-corrupting models.

    Covered sites are grouped by corrupted image
    (``model.corrupted_bytes``), each group is classified by decoding
    the corrupted stream in place, and the per-site watch window and
    flags-liveness facts are precomputed.  Branch resolution against
    the live EFLAGS happens later, in :meth:`SitePlan.seal`.
    """
    sites = _group_by_site(points)
    boundary_cache = {}
    for site in sites:
        if site.address not in coverage:
            site.dead = True
            site.seal_dead()
            continue
        site.module = module
        address = site.address
        length = site.members[0][1].instruction_length
        span_end = address + length
        groups = {}
        for index, point in site.members:
            image = bytes(model.corrupted_bytes(module, point,
                                                encoding))
            group = groups.get(image)
            if group is None:
                group = groups[image] = _ByteGroup(replacement=image)
            group.members.append((index, point))
            span_end = max(span_end, address + len(image))
        site.span_end = span_end
        site.groups = list(groups.values())
        for group in site.groups:
            group.disposition = _classify_replacement(
                module, address, group.replacement)
        site.watch = _site_watch(module, ranges, address,
                                 boundary_cache)
        site.flags_dead = _flags_dead_after(module, address + length,
                                            ranges)
    return PruningPlan(model_name=model.name, sites=sites)


def _corrupted_stream(module, address, image):
    """The first fetch window of the corrupted program at *address*:
    the injected image, then the original text that follows it."""
    offset = address - module.text_base + len(image)
    tail = bytes(module.text[offset:offset + _MAX_INSN])
    return (bytes(image) + tail)[:_MAX_INSN]


def _classify_replacement(module, address, image):
    """Static disposition of one corrupted image (see
    :meth:`SitePlan._resolve` for the dynamic half)."""
    stream = _corrupted_stream(module, address, image)
    try:
        instruction = decode(stream, address)
    except (InvalidOpcodeError, DecodeOutOfBytesError) as exc:
        # fetch_decode maps these to #UD / #PF respectively -- both
        # fault before anything retires, so the exception type alone
        # fixes the run's signal, latency and record bytes.
        return ("fault", "undecodable-%s" % type(exc).__name__)
    mnemonic = instruction.mnemonic
    fall = address + len(instruction.raw)
    operands = instruction.operands
    # A relative branch resolvable from EFLAGS alone: ``jmp rel``
    # (condition None, unconditionally taken) or a ``jcc`` (condition
    # code set).  ``loop``/``loope``/``loopne``/``jecxz`` also decode
    # as KIND_COND_BRANCH but with ``condition is None`` -- they read
    # (and the loop forms *write*) ECX, so they are not one-step
    # equivalent to anything and fall through to ``opaque``.
    is_plain_jump = (instruction.kind == KIND_JUMP
                     and instruction.condition is None)
    is_jcc = (instruction.kind == KIND_COND_BRANCH
              and instruction.condition is not None)
    if ((is_plain_jump or is_jcc) and operands
            and getattr(operands[0], "kind", "") == "rel"):
        return ("branch", instruction.condition, operands[0].target,
                fall, mnemonic)
    if mnemonic == "nop":
        return ("nop", fall, mnemonic)
    if mnemonic in _FLAG_ONLY and not any(
            getattr(operand, "kind", "") == "mem"
            for operand in operands):
        return ("flagsonly", fall, mnemonic)
    return ("opaque", mnemonic)


def _site_watch(module, ranges, address, boundary_cache):
    """Pre-site fetch addresses that can reach into the site.

    A fetch starting in ``[address - 14, address)`` can overlap
    corrupted bytes at ``address``; each class extends this base with
    its own ``[address, address + span)``.  Addresses before the site
    that host an *original* instruction boundary ending at or before
    the site are excluded -- a fetch there decodes untouched bytes and
    provably ends before the span -- so the golden prefix code just
    before the site does not trip the guard.  Unknown addresses stay
    watched (conservative).
    """
    watch = set(range(address - (_MAX_INSN - 1), address))
    for start, end in ranges or ():
        if not start <= address < end:
            continue
        key = (start, address)
        boundaries = boundary_cache.get(key)
        if boundaries is None:
            boundaries = set()
            for instruction in disassemble_range(
                    module.text, module.text_base, start, address):
                if (instruction.mnemonic != "(bad)"
                        and instruction.address + len(instruction.raw)
                        <= address):
                    boundaries.add(instruction.address)
            boundary_cache[key] = boundaries
        watch.difference_update(boundaries)
        break
    return frozenset(watch)


def _flags_dead_after(module, address, ranges):
    """Bounded forward scan: are the arithmetic flags provably
    overwritten before any instruction can read them, starting at
    *address*?  Stops (conservatively ``False``) at any control
    transfer, partial flag writer, unknown mnemonic, or range end.
    """
    end = None
    for start, stop in ranges or ():
        if start <= address < stop:
            end = stop
            break
    if end is None:
        return False
    instructions = disassemble_range(module.text, module.text_base,
                                     address, end)
    for instruction in instructions[:_FLAGS_SCAN_LIMIT]:
        mnemonic = instruction.mnemonic
        if instruction.condition is not None:
            return False               # jcc/setcc/cmovcc read flags
        if mnemonic in _FLAG_KILLERS:
            return True
        if mnemonic not in _FLAG_NEUTRAL:
            return False
    return False
