"""Parking lot occupancy and billing state machine.

Spots move Available -> Occupied on registration, Occupied -> Available
on a successfully charged sign-out, and Occupied -> Illegal when the
charge fails; Illegal clears back to Available only through an explicit
admin settle. Time never comes from the wall clock: every operation takes
the current timestamp, so billing is reproducible.

Successful state-changing commands are journaled as JSON-ready dicts;
replaying a journal over the same lot configuration reconstructs the
exact service state (the payment stub is deterministic by card token).
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

from .eddystone import (
    BeaconFrame,
    SpotId,
    UidFrame,
    UrlFrame,
    uid_instance_for_spot,
)

MS_PER_MINUTE = 60_000

logger = logging.getLogger(__name__)


class ParkingError(Exception):
    """Base error for registry command failures."""


class UnknownSpotError(ParkingError):
    pass


class SpotTakenError(ParkingError):
    pass


class CardDeclinedError(ParkingError):
    pass


class NotRegisteredError(ParkingError):
    pass


class NotIllegalError(ParkingError):
    pass


class UnknownBeaconError(ParkingError):
    pass


class JournalError(ValueError):
    """A complete journal line is not JSON, or not an entry that replays."""


class SpotState(Enum):
    AVAILABLE = "Available"
    OCCUPIED = "Occupied"
    ILLEGAL = "Illegal"


class PaymentStub:
    """Deterministic stand-in for a card gateway.

    Token "DECLINE" fails validation (registration refused); token
    "CHARGEFAIL" validates but every charge on it fails (exercises the
    illegally-parked path). Any other token validates and charges.
    """

    DECLINE_TOKEN = "DECLINE"
    CHARGE_FAIL_TOKEN = "CHARGEFAIL"

    def validate_card(self, card_token: str) -> bool:
        return card_token != self.DECLINE_TOKEN

    def charge(self, card_token: str, amount_cents: int) -> bool:
        if amount_cents < 0:
            raise ValueError("charge amount cannot be negative")
        return card_token != self.CHARGE_FAIL_TOKEN


@dataclass(frozen=True)
class UserProfile:
    user_id: str
    vehicle_plate: str
    card_token: str


@dataclass
class Session:
    """One timed, billed use of a spot.

    `charged` is None while the session is open; closing it records
    whether the payment went through.
    """

    session_id: str
    user: UserProfile
    vehicle_plate: str
    start_ms: int
    end_ms: int | None = None
    max_minutes: int | None = None
    cost_cents: int | None = None
    charged: bool | None = None


@dataclass
class Spot:
    id: SpotId
    namespace: bytes
    instance: bytes
    url: str
    rate_cents_per_hour: int
    state: SpotState = SpotState.AVAILABLE
    session: Session | None = None

    def __post_init__(self):
        self.namespace = bytes(self.namespace)
        self.instance = bytes(self.instance)
        if self.rate_cents_per_hour < 0:
            raise ValueError("rate cannot be negative")
        if not self.url:
            raise ValueError("spot needs a registration URL")


def billable_minutes(start_ms: int, end_ms: int) -> int:
    """Whole minutes, any started minute counted in full."""
    if end_ms < start_ms:
        raise ValueError("session ends before it starts")
    return -(-(end_ms - start_ms) // MS_PER_MINUTE)


def parking_cost_cents(rate_cents_per_hour: int, minutes: int) -> int:
    """ceil(rate * minutes / 60), i.e. per-minute billing rounded up."""
    if rate_cents_per_hour < 0 or minutes < 0:
        raise ValueError("rate and minutes must be non-negative")
    return -(-rate_cents_per_hour * minutes // 60)


class ParkingService:
    """Serialized command processor over the spot registry.

    All mutating commands run under one lock, so concurrent callers see
    a total order (exactly one of two simultaneous registrations of the
    same spot succeeds).
    """

    def __init__(
        self,
        spots: Iterable[Spot],
        payment: PaymentStub | None = None,
        journal_sink: Callable[[dict], None] | None = None,
    ):
        self._spots: dict[SpotId, Spot] = {}
        for spot in spots:
            if spot.id in self._spots:
                raise ValueError(f"duplicate spot {spot.id}")
            self._spots[spot.id] = spot
        if not self._spots:
            raise ValueError("lot has no spots")
        self.payment = payment or PaymentStub()
        self.events: list[dict] = []
        self._journal_sink = journal_sink
        self._session_seq = 0
        self._lock = threading.Lock()

    # -- queries --

    def list_spots(self) -> list[tuple[SpotId, SpotState, int]]:
        """Registry snapshot in stable spot-id order."""
        return [
            (spot.id, spot.state, spot.rate_cents_per_hour)
            for spot in sorted(self._spots.values(), key=lambda s: s.id)
        ]

    def get_spot(self, spot_id: SpotId) -> Spot:
        try:
            return self._spots[spot_id]
        except KeyError:
            raise UnknownSpotError(f"no such spot: {spot_id}") from None

    def resolve_beacon(self, frame: BeaconFrame) -> tuple[SpotId, str]:
        """Map a decoded advertisement to its spot and registration URL."""
        if isinstance(frame, UidFrame):
            for spot in self._spots.values():
                if spot.namespace == frame.namespace and spot.instance == frame.instance:
                    return spot.id, spot.url
            raise UnknownBeaconError("beacon UID is not registered to this lot")
        if isinstance(frame, UrlFrame):
            url = frame.url()
            for spot in self._spots.values():
                if spot.url == url:
                    return spot.id, spot.url
            raise UnknownBeaconError("beacon URL is not registered to this lot")
        raise UnknownBeaconError("frame type does not identify a spot")

    # -- commands --

    def register(
        self,
        spot_id: SpotId,
        user: UserProfile,
        now_ms: int,
        max_minutes: int | None = None,
    ) -> Session:
        with self._lock:
            spot = self.get_spot(spot_id)
            if spot.state is not SpotState.AVAILABLE:
                raise SpotTakenError(f"spot {spot_id} already in use")
            if not self.payment.validate_card(user.card_token):
                raise CardDeclinedError(f"card validation refused for {user.user_id}")
            self._session_seq += 1
            session = Session(
                session_id=f"S{self._session_seq}",
                user=user,
                vehicle_plate=user.vehicle_plate,
                start_ms=now_ms,
                max_minutes=max_minutes,
            )
            spot.state = SpotState.OCCUPIED
            spot.session = session
            self._journal(
                {
                    "op": "register",
                    "spot": str(spot_id),
                    "user_id": user.user_id,
                    "plate": user.vehicle_plate,
                    "card": user.card_token,
                    "max_minutes": max_minutes,
                    "now_ms": now_ms,
                }
            )
            return session

    def unregister(self, spot_id: SpotId, now_ms: int) -> Session:
        """Close the session and charge it; a failed charge marks the
        spot illegally parked with the frozen cost still owed.

        The returned session's `charged` says which, as decided under the
        lock: the spot's state may change again as soon as it is released.
        """
        with self._lock:
            return self._close_session(spot_id, now_ms, journal_op="unregister")

    def expire_overstays(self, now_ms: int) -> list[SpotId]:
        """Force-close every occupied session past its time limit.

        The session is closed as if unregistered at start + max_minutes,
        and an admin review event is emitted per expired spot.
        """
        with self._lock:
            expired = []
            for spot in sorted(self._spots.values(), key=lambda s: s.id):
                session = spot.session
                if (
                    spot.state is SpotState.OCCUPIED
                    and session is not None
                    and session.max_minutes is not None
                    and now_ms > session.start_ms + session.max_minutes * MS_PER_MINUTE
                ):
                    cutoff = session.start_ms + session.max_minutes * MS_PER_MINUTE
                    self._close_session(spot.id, cutoff, journal_op=None)
                    self._emit("overstay_expired", spot=str(spot.id))
                    expired.append(spot.id)
            if expired:
                self._journal({"op": "expire", "now_ms": now_ms})
            return expired

    def settle(self, spot_id: SpotId) -> None:
        """Admin action clearing an illegally-parked spot."""
        with self._lock:
            spot = self.get_spot(spot_id)
            if spot.state is not SpotState.ILLEGAL:
                raise NotIllegalError(f"spot {spot_id} is not illegally parked")
            spot.state = SpotState.AVAILABLE
            spot.session = None
            self._journal({"op": "settle", "spot": str(spot_id)})
            self._emit("settled", spot=str(spot_id))

    # -- internals --

    def _close_session(self, spot_id: SpotId, now_ms: int, journal_op: str | None) -> Session:
        spot = self.get_spot(spot_id)
        if spot.state is not SpotState.OCCUPIED or spot.session is None:
            raise NotRegisteredError(f"spot {spot_id} is not registered")
        session = spot.session
        session.end_ms = now_ms
        minutes = billable_minutes(session.start_ms, now_ms)
        session.cost_cents = parking_cost_cents(spot.rate_cents_per_hour, minutes)
        session.charged = self.payment.charge(session.user.card_token, session.cost_cents)
        if session.charged:
            spot.state = SpotState.AVAILABLE
            spot.session = None
        else:
            spot.state = SpotState.ILLEGAL
            self._emit(
                "charge_failed",
                spot=str(spot_id),
                user_id=session.user.user_id,
                cost_cents=session.cost_cents,
            )
        if journal_op:
            self._journal({"op": journal_op, "spot": str(spot_id), "now_ms": now_ms})
        return session

    def _emit(self, event_type: str, **data) -> None:
        self.events.append({"type": event_type, **data})

    def _journal(self, entry: dict) -> None:
        if self._journal_sink is not None:
            self._journal_sink(entry)

    # -- construction, journaling, replay --

    @classmethod
    def from_config(cls, config: dict, **kwargs) -> "ParkingService":
        """Build a service from a lot-definition dict (see lot JSON)."""
        spots = []
        for entry in config["spots"]:
            spot_id = SpotId.parse(entry["id"])
            namespace = bytes.fromhex(entry["namespace"])
            if "instance" in entry:
                instance = bytes.fromhex(entry["instance"])
            else:
                instance = uid_instance_for_spot(spot_id)
            spots.append(
                Spot(
                    id=spot_id,
                    namespace=namespace,
                    instance=instance,
                    url=entry["url"],
                    rate_cents_per_hour=int(entry["rate_cents_per_hour"]),
                )
            )
        return cls(spots, **kwargs)

    def apply_journal_entry(self, entry: dict) -> None:
        """Re-execute one journaled command (used during replay)."""
        op = entry["op"]
        if op == "register":
            self.register(
                SpotId.parse(entry["spot"]),
                UserProfile(entry["user_id"], entry["plate"], entry["card"]),
                entry["now_ms"],
                entry.get("max_minutes"),
            )
        elif op == "unregister":
            self.unregister(SpotId.parse(entry["spot"]), entry["now_ms"])
        elif op == "expire":
            self.expire_overstays(entry["now_ms"])
        elif op == "settle":
            self.settle(SpotId.parse(entry["spot"]))
        else:
            raise ValueError(f"unknown journal op: {op}")

    def snapshot(self) -> tuple:
        """Hashable fingerprint of the full registry state."""
        rows = []
        for spot in sorted(self._spots.values(), key=lambda s: s.id):
            session = spot.session
            rows.append(
                (
                    str(spot.id),
                    spot.state.value,
                    None
                    if session is None
                    else (
                        session.session_id,
                        session.user.user_id,
                        session.vehicle_plate,
                        session.start_ms,
                        session.end_ms,
                        session.max_minutes,
                        session.cost_cents,
                    ),
                )
            )
        return tuple(rows)


def load_lot_config(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


class FileJournal:
    """Append-only line-delimited JSON journal sink."""

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "a")

    def __call__(self, entry: dict) -> None:
        self._fh.write(json.dumps(entry, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def _journal_lines(path):
    """(line number, text) of every non-blank line of a journal file."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                yield lineno, line


def read_journal(path) -> list[dict]:
    entries = []
    for lineno, line in _journal_lines(path):
        try:
            entries.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise JournalError(f"{path} line {lineno}: {exc}") from exc
    return entries


def _truncate_torn_tail(path) -> None:
    """Cut the bytes after the journal's last newline, left by a torn write.

    Otherwise the next append would glue onto the fragment and turn it
    into a corrupt line in the middle of the file.
    """
    with open(path, "rb+") as fh:
        data = fh.read()
        keep = data.rfind(b"\n") + 1
        if keep < len(data):
            logger.warning(
                "journal %s: dropping a torn last line of %d bytes", path, len(data) - keep
            )
            fh.truncate(keep)


def replay_journal(service: ParkingService, entries: Iterable[dict], path=None) -> None:
    """Re-run journaled commands against a freshly built service.

    An entry that cannot be applied raises JournalError; with the `path`
    that read_journal read the entries from, the error names its line.
    """
    for index, entry in enumerate(entries):
        try:
            service.apply_journal_entry(entry)
        except (ParkingError, KeyError, TypeError, ValueError) as exc:
            if path is None:
                where = f"journal entry {index + 1}"
            else:
                lineno, _ = next(itertools.islice(_journal_lines(path), index, None))
                where = f"{path} line {lineno}"
            reason = f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)
            raise JournalError(f"{where}: {reason}") from exc


def service_from_files(lot_config_path, journal_path=None) -> ParkingService:
    """Restore a service: build from the lot config, replay the journal,
    then attach the journal file for appending."""
    config = load_lot_config(lot_config_path)
    service = ParkingService.from_config(config)
    if journal_path is not None:
        if os.path.exists(journal_path):
            _truncate_torn_tail(journal_path)
            replay_journal(service, read_journal(journal_path), journal_path)
        service._journal_sink = FileJournal(journal_path)
    return service
