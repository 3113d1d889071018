"""BLE-beacon smart parking toolkit.

Eddystone frame codec, calibrated path-loss distance estimation,
particle-filtered proximity identification, a seeded RSSI scenario
simulator, and a parking registration/billing service.
"""

__version__ = "0.1.0"

from .eddystone import (
    BeaconFrame,
    SpotId,
    TlmFrame,
    UidFrame,
    UrlFrame,
    decode_frame,
    decode_url,
    encode_frame,
    encode_url,
    spot_id_from_uid,
)
from .particle import (
    DistanceEstimate,
    DistanceParticleFilter,
    FilterConfig,
    ParticleBank,
)
from .pathloss import (
    INDOOR_MODEL,
    OUTDOOR_MODEL,
    CalibrationDataset,
    FitResult,
    PathLossModel,
    average_rssi,
    estimate_distance,
    fit_model,
    predict_rssi,
)
from .parking import (
    ParkingService,
    PaymentStub,
    Session,
    Spot,
    SpotState,
    UserProfile,
)
from .proximity import (
    STREAM_DTYPE,
    BeaconLayout,
    PredictionTally,
    raw_baseline,
    run_identification,
)
from .simulate import (
    INDOOR_NOISE_SIGMA_DB,
    OUTDOOR_NOISE_SIGMA_DB,
    ExperimentSpec,
    Scenario,
    calibrate_noise_sigma,
    generate_stream,
    run_distance_experiment,
    run_pathloss_experiment,
    run_proximity_experiment,
    three_beacon_layout,
)

__all__ = [name for name in dir() if not name.startswith("_")]
