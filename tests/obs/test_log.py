"""Logging plumbing: handler idempotence, verbosity mapping,
warn-once, and the progress reporter."""

from __future__ import annotations

import io
import logging

import pytest

from repro.obs import (configure_logging, get_logger, ProgressReporter,
                       warn_once)
from repro.obs.log import reset_warn_once


@pytest.fixture(autouse=True)
def _clean_state():
    reset_warn_once()
    yield
    reset_warn_once()
    logger = get_logger()
    for handler in list(logger.handlers):
        if handler.get_name() == "repro-cli":
            logger.removeHandler(handler)


def _cli_handlers():
    return [handler for handler in get_logger().handlers
            if handler.get_name() == "repro-cli"]


class TestConfigureLogging:
    def test_levels(self):
        assert configure_logging(-1).level == logging.WARNING
        assert configure_logging(0).level == logging.INFO
        assert configure_logging(2).level == logging.DEBUG

    def test_idempotent_no_handler_stacking(self):
        for __ in range(5):
            configure_logging(0)
        assert len(_cli_handlers()) == 1

    def test_stream_receives_messages(self):
        stream = io.StringIO()
        configure_logging(0, stream=stream)
        get_logger("campaign").info("hello %d", 7)
        assert "hello 7" in stream.getvalue()

    def test_quiet_drops_info(self):
        stream = io.StringIO()
        configure_logging(-1, stream=stream)
        get_logger("campaign").info("progress line")
        get_logger("campaign").warning("warning line")
        assert "progress line" not in stream.getvalue()
        assert "warning line" in stream.getvalue()


class TestWarnOnce:
    def test_second_call_suppressed(self):
        stream = io.StringIO()
        configure_logging(0, stream=stream)
        assert warn_once(("k", 1), "first %s", "warning")
        assert not warn_once(("k", 1), "first %s", "warning")
        assert stream.getvalue().count("first warning") == 1

    def test_distinct_keys_both_fire(self):
        stream = io.StringIO()
        configure_logging(0, stream=stream)
        assert warn_once(("k", 1), "one")
        assert warn_once(("k", 2), "two")
        assert "one" in stream.getvalue()
        assert "two" in stream.getvalue()

    def test_reset_allows_repeat(self):
        configure_logging(0, stream=io.StringIO())
        warn_once("key", "message")
        reset_warn_once()
        assert warn_once("key", "message")


def _campaign_events(points, batches, quarantined=0, resumed=None):
    """A campaign's progress-relevant events: started, one
    ``outcomes`` delta for the resumed results (as the campaign's
    owner emits it), one per batch size, finished."""
    started = {"type": "campaign-started", "campaign": "c",
               "points": points}
    events = [started]
    if resumed is not None:
        started["resumed"] = resumed
        events.append({"type": "outcomes", "campaign": "c",
                       "delta": {"NA": resumed}})
    for size in batches:
        events.append({"type": "outcomes", "campaign": "c",
                       "delta": {"NA": size}})
    events.append({"type": "campaign-finished", "campaign": "c",
                   "counts": {"NA": sum(batches) + (resumed or 0)},
                   "quarantined": quarantined})
    return events


class TestProgressReporter:
    def test_steps_and_completion(self):
        stream = io.StringIO()
        configure_logging(0, stream=stream)
        progress = ProgressReporter(step=250)
        for event in _campaign_events(600, [1] * 600):
            progress(event)
        lines = stream.getvalue().splitlines()
        assert "250 / 600" in lines[0]
        assert "500 / 600" in lines[1]
        assert "600 / 600" in lines[2]
        assert len(lines) == 3

    def test_resumed_results_count_once(self):
        stream = io.StringIO()
        configure_logging(0, stream=stream)
        progress = ProgressReporter(step=1)
        for event in _campaign_events(10, [3, 5], resumed=2):
            progress(event)
        assert stream.getvalue().splitlines() == [
            "  ... 2 / 10 experiments", "  ... 5 / 10 experiments",
            "  ... 10 / 10 experiments"]

    def test_finish_completes_quarantined_and_resumed_runs(self):
        # quarantined points never appear in an outcomes delta: the
        # final line still reads N / N
        stream = io.StringIO()
        configure_logging(0, stream=stream)
        progress = ProgressReporter(step=1000)
        for event in _campaign_events(10, [3, 4], quarantined=1,
                                      resumed=2):
            progress(event)
        assert stream.getvalue().splitlines() == [
            "  ... 10 / 10 experiments"]

    def test_silenced_by_quiet(self):
        stream = io.StringIO()
        configure_logging(-1, stream=stream)
        progress = ProgressReporter(step=1)
        for event in _campaign_events(1, [1]):
            progress(event)
        assert stream.getvalue() == ""
