"""Error propagation analysis (the paper's Section 7 future work:
"exploring error propagation and its impact on system security").

For one injection experiment, the analyzer records the executed-EIP
stream and register file of both the golden and the injected run from
the activation point onward, and reports:

* the *divergence latency* -- how many instructions after activation
  the control flow first departs from the golden path (0 for a flipped
  taken/not-taken decision, larger when the corrupt instruction's
  damage is initially latent in data);
* which registers diverge first (data-error propagation);
* how many messages and bytes the wounded server sent to the network
  *after* the divergence -- the observable content of a transient
  vulnerability window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..apps.common import CONNECTION_INSTRUCTION_BUDGET
from ..emu import Process
from ..injection.injector import plain_run
from ..obs.forensics import first_divergence
from ..obs.ring import TraceRecorder
from ..x86.registers import REG32_NAMES


@dataclass
class PropagationReport:
    """How one single-bit error spread through the system."""

    activated: bool
    exit_kind: str = ""
    #: instructions from activation until the EIP stream first differs
    #: from the golden run (None = never diverged).
    divergence_latency: int | None = None
    first_divergent_eip: int | None = None
    golden_eip_at_divergence: int | None = None
    #: register name -> instructions-after-activation of first
    #: divergence (only registers that ever diverged).
    register_divergence: dict = field(default_factory=dict)
    #: socket messages/bytes the server sent at or after the control
    #: divergence point.
    messages_after_divergence: int = 0
    bytes_after_divergence: int = 0
    #: total instructions executed after activation.
    instructions_after_activation: int = 0

    @property
    def diverged(self):
        return self.divergence_latency is not None


def analyze_propagation(daemon, client_factory, instruction_address,
                        flip_address, bit,
                        budget=CONNECTION_INSTRUCTION_BUDGET,
                        max_trace=50_000):
    """Run one experiment twice (clean and flipped) and diff the
    post-activation execution.  Returns a :class:`PropagationReport`.
    """
    golden = _trace_from_breakpoint(daemon, client_factory,
                                    instruction_address, budget,
                                    flip=None, max_trace=max_trace)
    if golden is None:
        return PropagationReport(activated=False)
    injected = _trace_from_breakpoint(daemon, client_factory,
                                      instruction_address, budget,
                                      flip=(flip_address, bit),
                                      max_trace=max_trace)
    golden_trace, __, ___ = golden
    trace, kernel, status = injected

    report = PropagationReport(activated=True, exit_kind=status.kind,
                               instructions_after_activation=len(
                                   trace.eips))

    # Control-flow divergence: first index where the EIP streams
    # differ (shared with the forensics CLI's divergence locator).
    divergence_index = first_divergence(golden_trace.eips, trace.eips)

    if divergence_index is not None:
        report.divergence_latency = divergence_index
        if divergence_index < len(trace.eips):
            report.first_divergent_eip = trace.eips[divergence_index]
        if divergence_index < len(golden_trace.eips):
            report.golden_eip_at_divergence = \
                golden_trace.eips[divergence_index]

    # Register divergence: first index per register.
    compare_length = min(len(trace.regs), len(golden_trace.regs))
    for register in range(8):
        for index in range(compare_length):
            if trace.regs[index][register] \
                    != golden_trace.regs[index][register]:
                report.register_divergence[REG32_NAMES[register]] = index
                break

    # Network traffic after the divergence.  write_events hold absolute
    # instret values; activation was at (final instret minus the
    # post-activation trace length) of the injected run.
    if divergence_index is not None:
        activation_point = status.instret - len(trace.eips)
        divergence_instret = activation_point + divergence_index
        for event_instret, byte_count in kernel.write_events:
            if event_instret >= divergence_instret:
                report.messages_after_divergence += 1
                report.bytes_after_divergence += byte_count
    return report


def _trace_from_breakpoint(daemon, client_factory, instruction_address,
                           budget, flip, max_trace=None):
    """Run to the breakpoint, then trace the remainder (optionally with
    the bit flipped).  Returns (recorder, kernel, status) or None when
    the breakpoint is never reached."""
    client = client_factory()
    kernel = daemon.make_kernel(client)
    process = Process(daemon.module, kernel)
    arrival = process.run_until(instruction_address, budget)
    if arrival.kind != "breakpoint":
        return None
    if flip is not None:
        process.flip_bit(*flip)
    # Head capture (repro.obs.ring.TraceRecorder): divergence is
    # searched from the activation point forward, so the *first*
    # max_trace instructions are the ones that matter.
    recorder = TraceRecorder(limit=max_trace)
    process.cpu.trace_hook = recorder.hook
    return recorder, kernel, plain_run(process, budget)


def format_propagation(report):
    """Human-readable rendering of a report."""
    if not report.activated:
        return "error not activated"
    lines = ["propagation report (%s)" % report.exit_kind]
    if report.diverged:
        lines.append("  control flow diverged %d instruction(s) after "
                     "activation" % report.divergence_latency)
        if report.first_divergent_eip is not None:
            lines.append("    corrupted path at 0x%x (golden path at "
                         "0x%x)" % (report.first_divergent_eip,
                                    report.golden_eip_at_divergence
                                    or 0))
    else:
        lines.append("  control flow never diverged")
    if report.register_divergence:
        worst = sorted(report.register_divergence.items(),
                       key=lambda item: item[1])
        lines.append("  registers diverged: "
                     + ", ".join("%s@+%d" % item for item in worst))
    lines.append("  messages sent after divergence: %d (%d bytes)"
                 % (report.messages_after_divergence,
                    report.bytes_after_divergence))
    return "\n".join(lines)
