"""Per-layer spans for the traced benchmark run, recorded from outside the program.

`install` replaces the public functions of each beaconpark layer (cli,
simulate, proximity, particle, pathloss, seeding, eddystone, parking,
server) by wrappers, in every beaconpark module that holds a reference
to them. A wrapper records one span (name, start, end, parent) per call
in per-thread arrays that stay in memory until `summary` is called when
the program ends. A span's self time is its duration minus its child
spans; counts (samples, rounds, resamples, commands by reply code, ...)
are taken at the same boundaries.

Each wrapper costs about a microsecond, which is of the order of the
cheapest calls it wraps (`estimate_distance`, `derive_seed`); compare a
traced run's times with an untraced run's before reading them as costs.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from array import array

READ_VERBS = ("LIST", "STATUS", "RESOLVE")
WRITE_VERBS = ("REGISTER", "UNREGISTER", "SETTLE")
VERBS = READ_VERBS + WRITE_VERBS + ("TICK",)
COMMAND_CODES = (
    "LIST.OK", "STATUS.OK", "REGISTER.OK", "REGISTER.CARD", "UNREGISTER.OK",
    "UNREGISTER.CHARGE", "UNREGISTER.NOTREG", "RESOLVE.OK", "RESOLVE.UNKNOWN",
    "SETTLE.OK", "TICK.OK",
)
PARTICLE_COUNTS = (200, 1000, 2000)


class _ThreadSpans:
    def __init__(self):
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}


class Recorder:
    """Spans and counts of one process, kept per thread."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadSpans] = []
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self.services: list = []
        self.journals: list[tuple[str, int]] = []

    def _spans(self) -> _ThreadSpans:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = _ThreadSpans()
            with self._lock:
                self._threads.append(spans)
        return spans

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            with self._lock:
                nid = self._ids.setdefault(name, len(self._names))
                if nid == len(self._names):
                    self._names.append(name)
        return nid

    def count(self, key: str, n: int = 1) -> None:
        counts = self._spans().counts
        counts[key] = counts.get(key, 0) + n

    def span(self, fn, name, after=None):
        """Wrap `fn` in a span; `name` is a string or a function of the call's args."""
        fixed = self.name_id(name) if isinstance(name, str) else None
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans = self._spans()
            idx = len(spans.starts)
            spans.names.append(fixed if fixed is not None else self.name_id(name(args)))
            spans.parents.append(spans.stack[-1] if spans.stack else -1)
            spans.ends.append(0.0)
            spans.stack.append(idx)
            spans.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.ends[idx] = perf_counter()
                spans.stack.pop()
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def counted(self, fn, key: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)

        return wrapper

    def spans(self):
        """All spans as numpy arrays (name id, parent index, start, end)."""
        import numpy as np

        names, parents, starts, ends = [], [], [], []
        offset = 0
        for t in self._threads:
            p = np.frombuffer(t.parents, dtype=np.int64).copy() if len(t.parents) else np.zeros(0, np.int64)
            p[p >= 0] += offset
            names.append(np.frombuffer(t.names, dtype=np.int32) if len(t.names) else np.zeros(0, np.int32))
            parents.append(p)
            starts.append(np.frombuffer(t.starts) if len(t.starts) else np.zeros(0))
            ends.append(np.frombuffer(t.ends) if len(t.ends) else np.zeros(0))
            offset += len(t.starts)
        return tuple(np.concatenate(a) if a else np.zeros(0) for a in (names, parents, starts, ends))

    def counts(self) -> dict[str, int]:
        merged: dict[str, int] = {}
        for t in self._threads:
            for key, n in t.counts.items():
                merged[key] = merged.get(key, 0) + n
        return merged


def _replace_everywhere(modules, original, replacement) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(rec: Recorder) -> None:
    import beaconpark
    from beaconpark import (
        cli, eddystone, parking, particle, pathloss, proximity, seeding, server, simulate,
    )

    modules = [beaconpark, cli, eddystone, parking, particle, pathloss, proximity, seeding, server, simulate]

    def wrap_function(module, attr, name, after=None):
        original = getattr(module, attr)
        _replace_everywhere(modules, original, rec.span(original, name, after))

    def wrap_method(cls, attr, name, after=None):
        setattr(cls, attr, rec.span(getattr(cls, attr), name, after))

    for attr in ("cmd_proximity", "cmd_distance", "cmd_serve"):
        wrap_function(cli, attr, f"cli.{attr}")

    wrap_function(
        simulate, "generate_stream", "simulate.generate_stream",
        lambda result, args: rec.count("simulate.samples", len(result)),
    )
    wrap_function(simulate, "run_proximity_experiment", "simulate.run_proximity_experiment")
    wrap_function(simulate, "run_distance_experiment", "simulate.run_distance_experiment")
    wrap_function(simulate, "write_proximity_csv", "simulate.write_csv")
    wrap_function(simulate, "write_distance_csv", "simulate.write_csv")

    wrap_function(
        proximity, "run_identification", "proximity.run_identification",
        lambda tally, args: rec.count("proximity.rounds", tally.total),
    )
    wrap_function(proximity, "raw_baseline", "proximity.raw_baseline")

    def after_update(outcome, args):
        if outcome.resampled:
            rec.count("particle.resamples")
        if outcome.reinitialized:
            rec.count("particle.reinits")

    flt = particle.DistanceParticleFilter
    wrap_method(flt, "__init__", "particle.init")
    wrap_method(
        flt, "update", lambda args: f"particle.update/{args[0].config.particle_count}", after_update
    )
    wrap_method(flt, "estimate", "particle.estimate")

    wrap_function(pathloss, "estimate_distance", "pathloss.estimate_distance")
    wrap_function(pathloss, "average_rssi", "pathloss.average_rssi")
    _replace_everywhere(
        modules, seeding.derive_seed, rec.counted(seeding.derive_seed, "seeding.derive_seed")
    )

    wrap_function(eddystone, "decode_frame", "eddystone.decode_frame")

    service = parking.ParkingService
    for attr in ("register", "unregister", "settle", "list_spots", "resolve_beacon"):
        wrap_method(service, attr, f"parking.{attr}")
    wrap_method(parking.FileJournal, "__call__", "parking.journal_append")
    journal_init = parking.FileJournal.__init__

    def opened(self, path):
        size = os.path.getsize(path) if os.path.exists(path) else 0
        journal_init(self, path)
        rec.journals.append((path, size))

    parking.FileJournal.__init__ = opened
    wrap_function(parking, "read_journal", "parking.read_journal")
    wrap_function(
        parking, "replay_journal", "parking.replay_journal",
        lambda result, args: rec.count("parking.replay_entries", len(args[1])),
    )
    wrap_function(
        parking, "service_from_files", "parking.service_from_files",
        lambda result, args: rec.services.append(result),
    )

    def verb(args):
        parts = args[2].split(None, 1)
        return f"server.handle_command/{parts[0].upper() if parts else ''}"

    def after_command(reply, args):
        parts = args[2].split(None, 1)
        words = reply.split()
        code = words[1] if words[0] == "ERR" and len(words) > 1 else words[0]
        rec.count(f"server.commands.{parts[0].upper() if parts else ''}.{code}")

    wrap_function(server, "handle_command", verb, after_command)


def summary(rec: Recorder) -> dict[str, float]:
    """The per-layer metrics of this process."""
    import numpy as np

    names, parents, starts, ends = rec.spans()
    duration = ends - starts
    child = np.zeros(len(duration))
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], duration[has_parent])
    self_time = duration - child
    counts = rec.counts()

    def mask(*span_names):
        ids = [rec._ids[n] for n in span_names if n in rec._ids]
        return np.isin(names, ids)

    def total(*span_names):
        return float(duration[mask(*span_names)].sum())

    def calls(*span_names):
        return int(mask(*span_names).sum())

    def median_us(*span_names):
        selected = duration[mask(*span_names)]
        return float(np.median(selected)) * 1e6 if len(selected) else 0.0

    updates = [n for n in rec._names if n.startswith("particle.update/")]
    n_updates = calls(*updates)
    appends = calls("parking.journal_append")
    written = sum(os.path.getsize(path) - size for path, size in rec.journals)
    out = {
        "simulate.generate_stream_s": total("simulate.generate_stream"),
        "simulate.samples": counts.get("simulate.samples", 0),
        "simulate.write_csv_s": total("simulate.write_csv"),
        "proximity.identification_self_s": float(
            self_time[mask("proximity.run_identification")].sum()
        ),
        "proximity.raw_baseline_s": total("proximity.raw_baseline"),
        "proximity.rounds": counts.get("proximity.rounds", 0),
        "particle.update_s": total(*updates),
        "particle.updates": n_updates,
        "particle.estimate_s": total("particle.estimate"),
        "particle.estimates": calls("particle.estimate"),
        "particle.estimate_us": median_us("particle.estimate"),
        "particle.filters": calls("particle.init"),
        "particle.init_s": total("particle.init"),
        "particle.resamples": counts.get("particle.resamples", 0),
        "particle.resample_ratio": counts.get("particle.resamples", 0) / n_updates if n_updates else 0.0,
        "particle.reinits": counts.get("particle.reinits", 0),
        "pathloss.estimate_distance_s": total("pathloss.estimate_distance"),
        "pathloss.estimate_distance_calls": calls("pathloss.estimate_distance"),
        "pathloss.average_rssi_s": total("pathloss.average_rssi"),
        "seeding.derive_seed_calls": counts.get("seeding.derive_seed", 0),
        "eddystone.decodes": calls("eddystone.decode_frame"),
        "eddystone.decode_us": median_us("eddystone.decode_frame"),
        "parking.journal_appends": appends,
        "parking.journal_append_us": median_us("parking.journal_append"),
        "parking.journal_bytes_per_write": written / appends if appends else 0.0,
        "parking.read_journal_s": total("parking.read_journal"),
        "parking.replay_s": total("parking.replay_journal"),
        "parking.replay_entries": counts.get("parking.replay_entries", 0),
        "parking.events_held": sum(len(s.events) for s in rec.services),
        "server.handle_command_us.read": median_us(*(f"server.handle_command/{v}" for v in READ_VERBS)),
        "server.handle_command_us.write": median_us(*(f"server.handle_command/{v}" for v in WRITE_VERBS)),
    }
    for n in PARTICLE_COUNTS:
        out[f"particle.update_us.n{n}"] = median_us(f"particle.update/{n}")
    for attr in ("register", "unregister", "settle", "list_spots", "resolve_beacon"):
        out[f"parking.{attr}_us"] = median_us(f"parking.{attr}")
    for v in VERBS:
        out[f"server.handle_command_us.{v}"] = median_us(f"server.handle_command/{v}")
    for code in COMMAND_CODES:
        out[f"server.commands.{code}"] = counts.get(f"server.commands.{code}", 0)
    return out
