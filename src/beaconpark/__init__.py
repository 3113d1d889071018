"""BLE-beacon smart parking toolkit.

Eddystone frame codec, calibrated path-loss distance estimation,
particle-filtered proximity identification, a seeded RSSI scenario
simulator, and a parking registration/billing service.

The public names below are imported from their submodule on first use
(PEP 562), so `import beaconpark` loads no submodule, and a program that
uses only the parking service never imports numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "eddystone": (
        "BeaconFrame", "SpotId", "TlmFrame", "UidFrame", "UrlFrame", "decode_frame",
        "decode_url", "encode_frame", "encode_url", "spot_id_from_uid",
    ),
    "particle": ("FilterConfig", "ParticleBank"),
    "pathloss": (
        "INDOOR_MODEL", "OUTDOOR_MODEL", "CalibrationDataset", "FitResult", "PathLossModel",
        "estimate_distance", "fit_model", "predict_rssi",
    ),
    "parking": ("ParkingService", "PaymentStub", "Session", "Spot", "SpotState", "UserProfile"),
    "proximity": ("STREAM_DTYPE", "BeaconLayout", "PredictionTally", "raw_baseline"),
    "simulate": (
        "INDOOR_NOISE_SIGMA_DB", "OUTDOOR_NOISE_SIGMA_DB", "ExperimentSpec", "Scenario",
        "generate_stream", "run_distance_experiment", "run_pathloss_experiment",
        "run_proximity_experiment", "three_beacon_layout",
    ),
}
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "seeding")

__all__ = [*_SUBMODULE_OF, *_SUBMODULES]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _SUBMODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_SUBMODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
