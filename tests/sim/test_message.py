"""Tests for the Message record."""

from repro.sim import Message


class TestMessage:
    def make(self, **kw):
        defaults = dict(src=0, dst=1, channel="c", payload="p", send_time=1.0)
        defaults.update(kw)
        return Message(**defaults)

    def test_fields(self):
        msg = self.make(tag="est", round=3)
        assert msg.src == 0 and msg.dst == 1
        assert msg.channel == "c"
        assert msg.tag == "est"
        assert msg.round == 3

    def test_self_message_detection(self):
        assert self.make(dst=0).is_self_message
        assert not self.make().is_self_message

    def test_frozen(self):
        import dataclasses

        import pytest

        msg = self.make()
        with pytest.raises(dataclasses.FrozenInstanceError):
            msg.src = 5  # type: ignore[misc]

    def test_optional_metadata_defaults(self):
        msg = self.make()
        assert msg.tag is None
        assert msg.round is None

    def test_equal_by_fields(self):
        assert self.make(tag="est") == self.make(tag="est")
        assert self.make(tag="est") != self.make(tag="ack")
        assert self.make() != self.make(send_time=2.0)

    def test_hashable_and_usable_as_dict_key(self):
        seen = {self.make(): "first"}
        seen[self.make()] = "again"
        seen[self.make(dst=2)] = "other"
        assert hash(self.make()) == hash(self.make())
        assert seen == {self.make(): "again", self.make(dst=2): "other"}

    def test_repr_names_the_fields(self):
        text = repr(self.make(tag="est", round=3))
        assert text.startswith("Message(")
        for part in ("src=0", "dst=1", "channel='c'", "payload='p'",
                     "send_time=1.0", "tag='est'", "round=3"):
            assert part in text
