"""Reference computations the benchmark checks the program's outputs against.

Each one is derived from the model or the documented byte layout and
shares no code with `beaconpark`:

* `p_loudest`: the single-sample raw identification accuracy, i.e. the
  probability that the true beacon's reading is the strongest, from the
  path-loss constants and the shadowing sigma by numerical integration;
* `truth_spot`: the nearest beacon of the three-beacon row, from geometry;
* `parking_cost_cents`: per-minute billing, ceil(rate * ceil(ms / 60000) / 60);
* `uid_frame`, `url_frame`, `tlm_frame`: Eddystone service-data payloads
  packed by hand from the byte layout in `beaconpark/eddystone.py`'s
  module docstring and the Eddystone-URL scheme and expansion codes.
"""

from __future__ import annotations

import math
import struct

import numpy as np

MS_PER_MINUTE = 60_000

# Eddystone-URL scheme prefixes and the body expansion codes the lot uses.
URL_SCHEME_CODES = {"http://www.": 0x00, "https://www.": 0x01, "http://": 0x02, "https://": 0x03}
URL_EXPANSION_CODES = {".com/": 0x00, ".org/": 0x01, ".net/": 0x03}


def mean_rssi_dbm(exponent: float, ref_rssi_dbm: float, distance_m: float) -> float:
    """Log-distance path loss with a 1 m reference distance."""
    return ref_rssi_dbm - 10.0 * exponent * math.log10(distance_m)


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    erf = np.frompyfunc(math.erf, 1, 1)
    return 0.5 * (1.0 + erf(x / math.sqrt(2.0)).astype(float))


def p_loudest(means_dbm, sigma_db: float, index: int, points: int = 40_001) -> float:
    """P(reading `index` is the largest) for independent N(mean_j, sigma) readings.

    Integrates pdf_index(r) * prod_{j != index} Phi((r - mean_j) / sigma)
    over r on a grid of +-12 sigma with the trapezoid rule.
    """
    means = np.asarray(means_dbm, dtype=float)
    if sigma_db <= 0:
        raise ValueError("sigma must be positive")
    r = np.linspace(means[index] - 12 * sigma_db, means[index] + 12 * sigma_db, points)
    integrand = np.exp(-0.5 * ((r - means[index]) / sigma_db) ** 2) / (
        sigma_db * math.sqrt(2 * math.pi)
    )
    for j, mean in enumerate(means):
        if j != index:
            integrand = integrand * _normal_cdf((r - mean) / sigma_db)
    return float(np.trapezoid(integrand, r))


def row_distances(x_m: float, y_m: float) -> list[float]:
    """Distances from a listener Y in front of the middle of beacons at -X, 0, +X."""
    return [math.hypot(pos, y_m) for pos in (-x_m, 0.0, x_m)]


def truth_spot(x_m: float, y_m: float) -> int:
    """Index (0 = A, 1 = B, 2 = C) of the nearest beacon; ties go to the lower index."""
    distances = row_distances(x_m, y_m)
    return min(range(3), key=lambda i: (distances[i], i))


def billable_minutes(elapsed_ms: int) -> int:
    return -(-elapsed_ms // MS_PER_MINUTE)


def parking_cost_cents(rate_cents_per_hour: int, elapsed_ms: int) -> int:
    """ceil(rate * ceil(ms / 60000) / 60) in integer arithmetic."""
    return -(-rate_cents_per_hour * billable_minutes(elapsed_ms) // 60)


def uid_instance(lot: str, number: int) -> bytes:
    """Spot convention: byte 0 the ASCII lot letter, bytes 1-5 the number, big-endian."""
    return bytes([ord(lot)]) + number.to_bytes(5, "big")


def uid_frame(tx_power_dbm: int, namespace: bytes, instance: bytes) -> bytes:
    """UID (18 bytes): 0x00, tx_power:s8, namespace[10], instance[6]."""
    if len(namespace) != 10 or len(instance) != 6:
        raise ValueError("UID needs a 10-byte namespace and a 6-byte instance")
    return bytes([0x00, tx_power_dbm & 0xFF]) + namespace + instance


def url_frame(tx_power_dbm: int, scheme: str, body: bytes) -> bytes:
    """URL (3..20 bytes): 0x10, tx_power:s8, scheme_code, encoded_body[0..17]."""
    if len(body) > 17:
        raise ValueError("URL body is longer than 17 bytes")
    return bytes([0x10, tx_power_dbm & 0xFF, URL_SCHEME_CODES[scheme]]) + body


def tlm_frame(battery_mv: int, temperature_c: float, adv_count: int, uptime_decisec: int) -> bytes:
    """TLM (14 bytes): 0x20, 0x00, battery_mv:u16, temp:s8.8, adv_count:u32, uptime:u32."""
    return struct.pack(
        ">BBHhII", 0x20, 0x00, battery_mv, round(temperature_c * 256), adv_count, uptime_decisec
    )
