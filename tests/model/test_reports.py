"""PositionReport validation and helpers."""

import copy
import pickle

import pytest

from repro.model.points import Domain
from repro.model.reports import PositionReport, ReportSource


def make(**kwargs):
    defaults = dict(entity_id="V1", t=10.0, lon=24.0, lat=37.0)
    defaults.update(kwargs)
    return PositionReport(**defaults)


class TestValidation:
    def test_minimal(self):
        r = make()
        assert r.source is ReportSource.SYNTHETIC
        assert r.domain is Domain.MARITIME

    def test_empty_entity_rejected(self):
        with pytest.raises(ValueError):
            make(entity_id="")

    def test_heading_range(self):
        make(heading=0.0)
        make(heading=359.9)
        with pytest.raises(ValueError):
            make(heading=360.0)
        with pytest.raises(ValueError):
            make(heading=-1.0)

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            make(speed=-0.1)

    def test_nan_time_rejected(self):
        with pytest.raises(ValueError):
            make(t=float("nan"))


class TestHelpers:
    def test_point_projection(self):
        r = make(alt=9000.0)
        p = r.point()
        assert (p.t, p.lon, p.lat, p.alt) == (10.0, 24.0, 37.0, 9000.0)

    def test_replace_time_preserves_rest(self):
        r = make(speed=5.0, heading=45.0, extras={"nav": "underway"})
        shifted = r.replace_time(99.0)
        assert shifted.t == 99.0
        assert shifted.speed == 5.0
        assert shifted.heading == 45.0
        assert shifted.extras == {"nav": "underway"}

    def test_frozen(self):
        r = make()
        with pytest.raises(AttributeError):
            r.t = 11.0


class _HashableExtras(dict):
    """A mapping a report can be hashed with (plain dicts cannot)."""

    def __hash__(self):
        return hash(frozenset(self.items()))


class TestPickling:
    """The hand-written state methods behave like the generated ones."""

    FULL = dict(
        entity_id="A7",
        t=12.5,
        lon=-3.25,
        lat=51.5,
        alt=9100.0,
        speed=230.0,
        heading=271.0,
        vertical_rate=-4.5,
        source=ReportSource.ADSB,
        domain=Domain.AVIATION,
        extras={"squawk": "7000", "nested": {"k": [1, 2]}},
    )

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_round_trip_equal_every_field(self, protocol):
        for original in (make(), PositionReport(**self.FULL)):
            restored = pickle.loads(pickle.dumps(original, protocol))
            assert restored == original
            assert type(restored) is PositionReport
            for name in PositionReport.__slots__:
                assert getattr(restored, name) == getattr(original, name)
            assert restored.source is original.source
            assert restored.domain is original.domain

    def test_extras_round_trip_is_a_copy(self):
        original = PositionReport(**self.FULL)
        restored = pickle.loads(pickle.dumps(original))
        assert restored.extras == original.extras
        assert restored.extras is not original.extras

    def test_hash_survives(self):
        original = make(extras=_HashableExtras(nav="underway"))
        restored = pickle.loads(pickle.dumps(original))
        assert hash(restored) == hash(original)
        assert len({original, restored}) == 1
        with pytest.raises(TypeError):
            hash(pickle.loads(pickle.dumps(make())))  # dict extras: as before

    def test_restored_is_frozen(self):
        restored = pickle.loads(pickle.dumps(make()))
        with pytest.raises(AttributeError):
            restored.t = 11.0
        assert not hasattr(restored, "__dict__")

    def test_state_is_the_slot_tuple(self):
        """A field added to the class must be added to the state methods."""
        original = PositionReport(**self.FULL)
        assert original.__getstate__() == tuple(
            getattr(original, name) for name in PositionReport.__slots__
        )

    def test_copy_and_deepcopy_use_the_same_state(self):
        original = PositionReport(**self.FULL)
        assert copy.copy(original) == original
        assert copy.deepcopy(original) == original
