"""beaconpark's export table: every public name resolves, and retired names are gone."""

import pytest

import beaconpark


def test_every_public_name_resolves_and_is_listed():
    listed = dir(beaconpark)
    for name in beaconpark.__all__:
        assert name in listed
        getattr(beaconpark, name)


@pytest.mark.parametrize(
    "name",
    [
        "DistanceEstimate", "DistanceParticleFilter", "average_rssi", "run_identification",
        "raw_accuracy", "calibrate_noise_sigma",
    ],
)
def test_retired_names_are_not_exported(name):
    assert name not in beaconpark.__all__
    with pytest.raises(AttributeError):
        getattr(beaconpark, name)
