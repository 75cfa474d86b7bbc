"""Sampler unit behavior: skip arithmetic, phase split, merging,
symbolization -- campaign-level determinism lives in
tests/injection/test_observability.py."""

from __future__ import annotations

import pytest

from repro.obs.sampler import (as_sampler, hotspot_table,
                               load_profile, resolve_samples,
                               Sampler, SAMPLE_PERIOD,
                               write_collapsed)


class FakeSymbol:
    def __init__(self, name, address):
        self.name = name
        self.address = address


class FakeModule:
    """Just enough of a compiled module for symbolization."""

    def __init__(self):
        self.lines = {0x1000: 10, 0x1004: 11, 0x2000: 40}

    def function_symbols(self):
        return [FakeSymbol("alpha", 0x1000),
                FakeSymbol("beta", 0x2000)]


class TestConstruction:
    def test_default_period_is_prime(self):
        sampler = Sampler()
        assert sampler.period == SAMPLE_PERIOD == 997
        assert sampler.skip == SAMPLE_PERIOD - 1

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            Sampler(period=0)

    def test_as_sampler_coercions(self):
        assert as_sampler(None) is None
        sampler = Sampler(period=5)
        assert as_sampler(sampler) is sampler
        assert as_sampler(True).period == SAMPLE_PERIOD
        assert as_sampler(13).period == 13


class TestPhases:
    def test_guest_samples_bucket_by_phase(self):
        sampler = Sampler(period=1)
        sampler.samples[0x1000] = 2
        sampler.set_phase("golden")
        sampler.samples[0x2000] = 1
        sampler.set_phase("experiment")
        sampler.samples[0x1000] += 1
        assert sampler.by_phase == {"experiment": {0x1000: 3},
                                    "golden": {0x2000: 1}}
        assert sampler.total_samples == 4


class TestSerialization:
    def test_round_trip_and_volatile_split(self, tmp_path):
        sampler = Sampler(period=7)
        sampler.samples[0x1000] = 3
        path = tmp_path / "profile.json"
        sampler.save(path, {"merge": 0.25})
        profile = load_profile(path)
        assert profile["period"] == 7
        assert profile["samples"] == {"experiment": {"0x1000": 3}}
        assert profile["volatile"]["host_seconds"] == {"merge": 0.25}

    def test_absorb_dict_adds_counts(self):
        parent = Sampler(period=7)
        parent.samples[0x1000] = 1
        shard = Sampler(period=7)
        shard.samples[0x1000] = 2
        shard.set_phase("golden")
        shard.samples[0x2000] = 5
        parent.absorb_dict(shard.as_dict())
        assert parent.by_phase["experiment"] == {0x1000: 3}
        assert parent.by_phase["golden"] == {0x2000: 5}

    def test_absorb_none_is_a_noop(self):
        parent = Sampler()
        parent.samples[0x1000] = 1
        parent.absorb_dict(None)
        assert parent.by_phase["experiment"] == {0x1000: 1}


class TestSymbolization:
    def test_resolve_groups_by_function(self):
        counts = {0x1000: 2, 0x1004: 1, 0x2000: 4, 0x500: 1}
        resolved = resolve_samples(counts, FakeModule())
        assert resolved[0] == ("beta", 4, {40: 4})
        assert resolved[1] == ("alpha", 3, {10: 2, 11: 1})
        assert resolved[2] == ("?", 1, {})

    def test_hotspot_table_renders(self):
        sampler = Sampler(period=3)
        sampler.samples[0x1000] = 2
        sampler.samples[0x2000] = 1
        text = hotspot_table(sampler.as_dict(), FakeModule())
        assert "alpha" in text
        assert "66.7%" in text

    def test_hotspot_table_without_samples(self):
        text = hotspot_table(Sampler().as_dict(), FakeModule())
        assert "no samples" in text

    def test_collapsed_stack_output(self, tmp_path):
        sampler = Sampler(period=3)
        sampler.samples[0x1000] = 2
        sampler.set_phase("golden")
        sampler.samples[0x2000] = 7
        path = tmp_path / "collapsed.txt"
        write_collapsed(path, sampler.as_dict(), FakeModule())
        lines = path.read_text().splitlines()
        assert "experiment;alpha 2" in lines
        assert "golden;beta 7" in lines
