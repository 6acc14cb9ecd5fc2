"""JavaSpaces entries and template matching."""

import pytest

from repro.core import Entry, entry_fields


class Reading(Entry):
    def __init__(self, sensor=None, value=None, tick=None):
        self.sensor = sensor
        self.value = value
        self.tick = tick


class CalibratedReading(Reading):
    def __init__(self, sensor=None, value=None, tick=None, offset=None):
        super().__init__(sensor, value, tick)
        self.offset = offset


class Unrelated(Entry):
    def __init__(self, sensor=None):
        self.sensor = sensor


class TestFields:
    def test_public_fields_extracted(self):
        entry = Reading("t1", 20.5, 7)
        assert entry_fields(entry) == {"sensor": "t1", "value": 20.5, "tick": 7}

    def test_private_fields_ignored(self):
        entry = Reading("t1")
        entry._secret = "hidden"
        assert "_secret" not in entry_fields(entry)

    def test_equality(self):
        assert Reading("a", 1.0) == Reading("a", 1.0)
        assert Reading("a", 1.0) != Reading("a", 2.0)
        assert Reading("a") != Unrelated("a")

    def test_entries_unhashable(self):
        with pytest.raises(TypeError):
            hash(Reading("a"))

    def test_repr(self):
        assert "sensor='t1'" in repr(Reading("t1"))


class TestMatching:
    def test_none_fields_are_wildcards(self):
        template = Reading(sensor="t1")
        assert template.matches(Reading("t1", 99.0, 3))
        assert not template.matches(Reading("t2", 99.0, 3))

    def test_all_none_matches_any_instance(self):
        assert Reading().matches(Reading("x", 1.0, 2))

    def test_non_none_fields_must_equal(self):
        template = Reading(sensor="t1", value=20.5)
        assert template.matches(Reading("t1", 20.5))
        assert not template.matches(Reading("t1", 20.6))

    def test_subclass_matches_base_template(self):
        template = Reading(sensor="t1")
        assert template.matches(CalibratedReading("t1", 1.0, 2, 0.5))

    def test_base_does_not_match_subclass_template(self):
        template = CalibratedReading(sensor="t1")
        assert not template.matches(Reading("t1"))

    def test_different_class_never_matches(self):
        assert not Unrelated(sensor="t1").matches(Reading("t1"))

    def test_template_with_zero_value_is_not_wildcard(self):
        template = Reading(tick=0)
        assert template.matches(Reading("a", 1.0, 0))
        assert not template.matches(Reading("a", 1.0, 1))

