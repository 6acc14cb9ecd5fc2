"""JavaSpaces entries and template matching."""

import io

import pytest

from repro.core import Entry, ManualClock, TupleSpace, XmlCodec
from repro.core.bincodec import BinaryCodec
from repro.core.persistence import SpaceJournal, recover_space


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
        assert Reading._fields == ("sensor", "tick", "value")
        assert CalibratedReading._fields == ("offset", "sensor", "tick", "value")

    def test_a_class_without_init_inherits_its_parents_fields(self):
        class Bare(Entry):
            pass

        class Relabelled(Reading):
            pass

        assert Entry._fields == () and Bare._fields == ()
        assert Relabelled._fields == Reading._fields

    def test_init_without_named_parameters_is_refused(self):
        with pytest.raises(TypeError, match=r"\['rest'\]: entry fields must be named"):

            class Star(Entry):
                def __init__(self, sensor=None, *rest):
                    self.sensor = sensor

        with pytest.raises(TypeError, match=r"\['extra'\]"):

            class DoubleStar(Entry):
                def __init__(self, sensor=None, **extra):
                    self.sensor = sensor

        with pytest.raises(TypeError, match=r"\['sensor'\]"):

            class PositionalOnly(Entry):
                def __init__(self, sensor=None, /):
                    self.sensor = sensor

    def test_subclass_dropping_a_parent_field_is_refused(self):
        with pytest.raises(TypeError, match=r"drops field\(s\) \['tick', 'value'\]"):

            class Narrowed(Reading):
                def __init__(self, sensor=None):
                    super().__init__(sensor)

    def test_attribute_set_after_init_is_not_a_field(self):
        clock = ManualClock()
        space = TupleSpace(clock=clock)
        codec = XmlCodec()
        codec.register(Reading)
        sink = io.StringIO()
        SpaceJournal(space, sink, codec)
        entry = Reading("t1", 20.5)
        entry.unit = "C"
        space.write(entry)

        template = Reading(sensor="t1")
        template.unit = "F"
        assert template.matches(entry)
        assert space.read_if_exists(template) == entry
        assert "unit" not in repr(entry)
        for wire in (codec, BinaryCodec(codec)):
            assert wire.decode(wire.encode(entry)) == entry
        restored = TupleSpace(clock=clock)
        assert recover_space(restored, io.StringIO(sink.getvalue()), codec) == 1
        assert restored.read_if_exists(Reading()) == Reading("t1", 20.5)

    def test_private_fields_ignored(self):
        entry = Reading("t1")
        entry._secret = "hidden"
        assert entry == Reading("t1")
        assert "_secret" not in repr(entry)

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

