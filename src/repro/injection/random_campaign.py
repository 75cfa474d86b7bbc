"""The conclusions' massive random-injection testbed.

Section 7: "a testbed to run massive random error injection
experiments targeting FTP servers while the servers are under constant
attack has been set up.  The preliminary results show that about one
out of 3,000 single-bit errors causes security violation."

Here the whole *text segment* (not just the auth functions) is the
fault universe: each trial flips one uniformly random bit of one
uniformly random text byte while a wrong-password client attacks, and
the BRK rate over trials estimates the paper's 1-in-3000 figure.
Faults are injected at load time (a latent memory error present before
the connection), so no breakpoint is involved and un-activated faults
count toward the denominator exactly as in the paper's testbed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..apps.common import CONNECTION_INSTRUCTION_BUDGET
from ..emu import Process
from .golden import record_golden
from .injector import plain_run
from .outcomes import (classify_completed_run, NOT_ACTIVATED,
                       SECURITY_BREAKIN)


@dataclass
class RandomCampaignResult:
    trials: int
    outcomes: dict = field(default_factory=dict)
    breakins: list = field(default_factory=list)   # (address, bit)
    seed: int = 0

    @property
    def breakin_count(self):
        return self.outcomes.get(SECURITY_BREAKIN, 0)

    @property
    def breakin_rate(self):
        return self.breakin_count / self.trials if self.trials else 0.0

    @property
    def one_in(self):
        """The paper's 'one out of N' phrasing."""
        if not self.breakin_count:
            return float("inf")
        return self.trials / self.breakin_count


def run_random_campaign(daemon, client_factory, trials=3000, seed=2001,
                        budget=CONNECTION_INSTRUCTION_BUDGET,
                        rng=None):
    """Estimate the random single-bit-error break-in rate.

    The fault sequence is drawn from an explicit
    :class:`random.Random` -- pass ``rng`` to share one generator
    across retried/resumed partial campaigns; by default a fresh
    ``random.Random(seed)`` makes the whole run a pure function of
    ``seed``, so repeated runs are reproducible bit for bit.
    """
    rng = rng if rng is not None else random.Random(seed)
    golden = record_golden(daemon, client_factory, budget)
    text = daemon.module.text
    text_base = daemon.module.text_base
    outcomes = {}
    breakins = []
    for __ in range(trials):
        offset = rng.randrange(len(text))
        bit = rng.randrange(8)
        address = text_base + offset
        if address not in golden.coverage_bytes:
            # Never fetched: behaviour provably identical (the flip
            # stays latent for this connection).
            outcomes[NOT_ACTIVATED] = outcomes.get(NOT_ACTIVATED, 0) + 1
            continue
        client = client_factory()
        kernel = daemon.make_kernel(client)
        process = Process(daemon.module, kernel)
        process.flip_bit(address, bit)
        status = plain_run(process, budget)
        outcome, __detail = classify_completed_run(
            golden, client, kernel.channel.normalized_transcript(),
            status)
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        if outcome == SECURITY_BREAKIN:
            breakins.append((address, bit))
    return RandomCampaignResult(trials=trials, outcomes=outcomes,
                                breakins=breakins, seed=seed)
