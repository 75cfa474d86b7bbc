"""Latent-error and system-load study (paper Section 5.4).

"When an error occurs in the system ... it persists until the memory
page is reloaded.  [...] A higher server load means more client
requests coming in and the potential for more diversified client
request patterns.  The more diversified client requests are, the
higher the chance of different parts of the server code being
exercised and thus the higher the probability of a latent error being
manifested."

This module makes that argument measurable: flip one bit in a
long-lived server image, then serve a stream of connections drawn from
a workload (a cycle of client patterns) and record when -- if ever --
the latent error first manifests (any outcome other than NM for that
connection's client pattern).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..apps.common import CONNECTION_INSTRUCTION_BUDGET
from ..emu import Process
from .golden import record_golden
from .injector import plain_run
from .outcomes import classify_completed_run, NOT_MANIFESTED


@dataclass
class LatentErrorResult:
    """Fate of one latent fault under one workload."""

    address: int
    bit: int
    manifested: bool
    first_connection: int | None = None
    outcome: str = ""
    detail: str = ""


@dataclass
class LatentStudyResult:
    """All faults of one study."""

    workload_labels: tuple
    connections_per_fault: int
    results: list = field(default_factory=list)

    @property
    def manifestation_rate(self):
        if not self.results:
            return 0.0
        manifested = sum(1 for r in self.results if r.manifested)
        return manifested / len(self.results)

    def mean_time_to_manifestation(self):
        """Mean first-manifestation connection index (manifested only)."""
        hits = [r.first_connection for r in self.results if r.manifested]
        if not hits:
            return None
        return sum(hits) / len(hits)


def run_latent_study(daemon, workload, faults,
                     connections_per_fault=None,
                     budget=CONNECTION_INSTRUCTION_BUDGET):
    """Serve connections against faulted images.

    ``workload`` is a list of ``(label, client_factory)`` pairs; each
    fault's image serves one connection per pair, cycling in order
    (``connections_per_fault`` defaults to one full cycle).  ``faults``
    is a list of ``(address, bit)`` text-segment flips.
    """
    if connections_per_fault is None:
        connections_per_fault = len(workload)
    goldens = {label: record_golden(daemon, factory, budget)
               for label, factory in workload}
    study = LatentStudyResult(
        workload_labels=tuple(label for label, __ in workload),
        connections_per_fault=connections_per_fault)
    for address, bit in faults:
        parent = Process(daemon.module, None)
        parent.flip_bit(address, bit)
        result = LatentErrorResult(address=address, bit=bit,
                                   manifested=False)
        for connection in range(connections_per_fault):
            label, factory = workload[connection % len(workload)]
            client = factory()
            kernel = daemon.make_kernel(client)
            child = parent.clone_for_connection(kernel)
            status = plain_run(child, budget)
            outcome, detail = classify_completed_run(
                goldens[label], client,
                kernel.channel.normalized_transcript(), status)
            if outcome != NOT_MANIFESTED:
                result.manifested = True
                result.first_connection = connection + 1
                result.outcome = outcome
                result.detail = "%s under %s" % (detail, label)
                break
        study.results.append(result)
    return study


def sample_text_faults(daemon, count, seed=541):
    """Uniform random (address, bit) samples over the text segment."""
    rng = random.Random(seed)
    text_base = daemon.module.text_base
    text_length = len(daemon.module.text)
    return [(text_base + rng.randrange(text_length), rng.randrange(8))
            for __ in range(count)]
