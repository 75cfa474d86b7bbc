"""``logging``-based campaign reporting.

Campaign progress and harness warnings used to go through ad-hoc
writes to whatever stream the CLI held; routing them through a
``repro``-rooted :mod:`logging` hierarchy lets library users silence,
redirect or capture campaign output with stock logging configuration,
and gives the CLI ``--verbose`` / ``--quiet`` for free.

Nothing here installs a handler at import time: a library that embeds
:mod:`repro` keeps full control.  The CLI calls
:func:`configure_logging` once per invocation.
"""

from __future__ import annotations

import logging
import sys

#: root of the package's logger hierarchy.
LOGGER_NAME = "repro"

#: warn-once registry (see :func:`warn_once`).
_WARNED = set()


def get_logger(child=None):
    """The package logger, or a dotted child of it."""
    name = LOGGER_NAME if not child else "%s.%s" % (LOGGER_NAME, child)
    return logging.getLogger(name)


def configure_logging(verbosity=0, stream=None):
    """Install (or replace) the CLI's handler on the ``repro`` logger.

    ``verbosity`` follows the usual CLI convention: negative is quiet
    (warnings only), zero the default (progress and summaries), and
    positive verbose (per-component debug detail).  Idempotent --
    calling it again rebinds the single managed handler, so tests and
    repeated ``main()`` calls never stack handlers.
    """
    logger = get_logger()
    if verbosity < 0:
        level = logging.WARNING
    elif verbosity == 0:
        level = logging.INFO
    else:
        level = logging.DEBUG
    handler = logging.StreamHandler(stream if stream is not None
                                    else sys.stderr)
    handler.set_name("repro-cli")
    handler.setFormatter(logging.Formatter("%(message)s"))
    for existing in list(logger.handlers):
        if existing.get_name() == "repro-cli":
            logger.removeHandler(existing)
    logger.addHandler(handler)
    logger.setLevel(level)
    return logger


def warn_once(key, message, *args, logger=None):
    """Log *message* at WARNING level, once per *key* per process.

    Used for data-shape complaints that would otherwise repeat for
    every record of a campaign (e.g. an unknown counter key in a
    shard's perf payload).
    """
    if key in _WARNED:
        return False
    _WARNED.add(key)
    (logger if logger is not None else get_logger()).warning(
        message, *args)
    return True


def reset_warn_once():
    """Forget warn-once history (test isolation)."""
    _WARNED.clear()


class ProgressReporter:
    """Event-bus subscriber logging ``done / total`` lines.

    ``bus.subscribe(ProgressReporter())`` folds each campaign's
    ``campaign-started`` (the total), ``outcomes`` deltas (the owner
    reports the results resumed from a journal as one) and
    ``campaign-finished`` into an INFO line
    every *step* experiments and one at completion, through the
    ``repro.campaign`` logger so ``--quiet`` can silence it.
    """

    def __init__(self, step=250, logger=None):
        self.step = step
        self.logger = (logger if logger is not None
                       else get_logger("campaign"))
        self._campaigns = {}      # campaign -> [done, total, last]

    def __call__(self, event):
        kind, campaign = event["type"], event["campaign"]
        if kind == "campaign-started":
            self._campaigns[campaign] = [0, event["points"], 0]
            return
        state = self._campaigns.get(campaign)
        if state is None:
            return
        if kind == "outcomes":
            state[0] += sum(event["delta"].values())
        elif kind == "campaign-finished":
            state[0] = (sum(event["counts"].values())
                        + event["quarantined"])
        done, total, last = state
        if done != last and (done - last >= self.step or done == total):
            state[2] = done
            self.logger.info("  ... %d / %d experiments", done, total)
