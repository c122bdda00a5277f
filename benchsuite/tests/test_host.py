"""Host-speed correction arithmetic."""

import pytest

import host


def test_correction_scales_by_nominal_over_reference():
    assert host.correct(2.0, host.NOMINAL_REF_MS) == 2.0
    assert host.correct(2.0, 2 * host.NOMINAL_REF_MS) == 1.0
    assert host.correct(3.0, host.NOMINAL_REF_MS / 3) == pytest.approx(9.0)
    with pytest.raises(ValueError):
        host.correct(1.0, 0.0)


def test_median_within_uses_the_stretch_or_the_nearest_two():
    samples = [(0.0, 10.0), (1.0, 20.0), (2.0, 30.0), (3.0, 40.0), (10.0, 99.0)]
    assert host.median_within(samples, 0.5, 3.5) == 30.0
    assert host.median_within(samples, -1.0, 3.0) == 25.0
    # No reference inside a short stretch: the two nearest its middle.
    assert host.median_within(samples, 6.0, 6.1) == pytest.approx((40.0 + 99.0) / 2)
    with pytest.raises(ValueError):
        host.median_within([], 0.0, 1.0)


def test_reference_track_spaces_its_references():
    track = host.ReferenceTrack()
    track.between()
    track.between()
    assert len(track.samples) == 1
    track.take()
    assert len(track.samples) == 2
    assert all(ms > 0 for _, ms in track.samples)
