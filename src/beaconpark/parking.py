"""Parking lot occupancy and billing state machine.

Spots move Available -> Occupied on registration, Occupied -> Available
on a successfully charged sign-out, and Occupied -> Illegal when the
charge fails; Illegal clears back to Available only through an explicit
admin settle. Time never comes from the wall clock: every operation takes
the current timestamp, so billing is reproducible.

Every successful state change is journaled as a JSON-ready dict holding
its outcome, not the command that caused it:

* `register`: spot, user id, plate, card token, time limit and start time;
* `unregister`, and one `expire` per force-closed overstay: spot, end
  time, cost and whether the charge went through;
* `settle`: spot;
* `snapshot`: the session counter and every open or owed session, each
  recorded with the `register` fields plus its id, end time and cost.

Replaying a journal over the same lot configuration applies these
outcomes and reconstructs the exact service state without calling the
payment gateway or journaling anything; a snapshot replaces the whole
state, so any prefix of a journal replays to the state it recorded.
Once the entries written since the last snapshot reach the lot's spot
count, the service journals a snapshot, and `FileJournal` replaces the
file by that one line: a journal file never holds more than spots + 1
lines, and a restart replays O(lot size) entries, not the history.
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


# The error a command raises when its spot is not in the state it needs.
_STATE_NEEDED = {
    SpotState.AVAILABLE: (SpotTakenError, "already in use"),
    SpotState.OCCUPIED: (NotRegisteredError, "is not registered"),
    SpotState.ILLEGAL: (NotIllegalError, "is not illegally parked"),
}


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


def _check_max_minutes(max_minutes):
    if max_minutes is not None and (type(max_minutes) is not int or max_minutes < 0):
        raise ValueError(f"max_minutes must be a non-negative integer, got {max_minutes!r}")
    return max_minutes


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
        self._spots: dict[SpotId, Spot] = {}  # in spot-id order, which every listing keeps
        self._by_uid: dict[tuple[bytes, bytes], Spot] = {}
        self._by_url: dict[str, Spot] = {}
        for spot in sorted(spots, key=lambda s: s.id):
            if spot.id in self._spots:
                raise ValueError(f"duplicate spot {spot.id}")
            self._spots[spot.id] = spot
            for index, key, kind in (
                (self._by_uid, (spot.namespace, spot.instance), "UID"),
                (self._by_url, spot.url, "URL"),
            ):
                other = index.setdefault(key, spot)
                if other is not spot:
                    raise ValueError(f"spots {other.id} and {spot.id} share one beacon {kind}")
        if not self._spots:
            raise ValueError("lot has no spots")
        self.payment = payment or PaymentStub()
        self.events: list[dict] = []
        self._journal_sink = journal_sink
        self._session_seq = 0
        self._since_snapshot = 0  # entries journaled since the last snapshot
        self.replayed_entries = 0
        self._lock = threading.Lock()

    # -- queries --

    def list_spots(self) -> list[tuple[SpotId, SpotState, int]]:
        """Registry snapshot in stable spot-id order."""
        return [
            (spot.id, spot.state, spot.rate_cents_per_hour)
            for spot in self._spots.values()
        ]

    def latest_session_ms(self) -> int:
        """The latest start or end time among the sessions on the spots, 0 with none."""
        latest = 0
        for spot in self._spots.values():
            if spot.session is not None:
                latest = max(latest, spot.session.start_ms, spot.session.end_ms or 0)
        return latest

    def get_spot(self, spot_id: SpotId) -> Spot:
        try:
            return self._spots[spot_id]
        except KeyError:
            raise UnknownSpotError(f"no such spot: {spot_id}") from None

    def resolve_beacon(self, frame: BeaconFrame) -> tuple[SpotId, str]:
        """Map a decoded advertisement to its spot and registration URL."""
        if isinstance(frame, UidFrame):
            spot = self._by_uid.get((frame.namespace, frame.instance))
            if spot is None:
                raise UnknownBeaconError("beacon UID is not registered to this lot")
        elif isinstance(frame, UrlFrame):
            spot = self._by_url.get(frame.url())
            if spot is None:
                raise UnknownBeaconError("beacon URL is not registered to this lot")
        else:
            raise UnknownBeaconError("frame type does not identify a spot")
        return spot.id, spot.url

    # -- commands --

    def register(
        self,
        spot_id: SpotId,
        user: UserProfile,
        now_ms: int,
        max_minutes: int | None = None,
    ) -> Session:
        """Open a session; `max_minutes`, if given, is a non-negative int.

        A session that could not be billed at its limit is refused here,
        before it is journaled, with a ValueError naming the value.
        """
        _check_max_minutes(max_minutes)
        with self._lock:
            spot = self._spot_in(spot_id, SpotState.AVAILABLE)
            if not self.payment.validate_card(user.card_token):
                raise CardDeclinedError(f"card validation refused for {user.user_id}")
            session = self._open_session(spot, user, now_ms, max_minutes)
            self._journal({"op": "register", **_session_fields(spot)})
            return session

    def unregister(self, spot_id: SpotId, now_ms: int) -> Session:
        """Close the session and charge it; a failed charge marks the
        spot illegally parked with the frozen cost still owed.

        The returned session's `charged` says which, as decided under the
        lock: the spot's state may change again as soon as it is released.
        """
        with self._lock:
            return self._close_session(spot_id, now_ms, "unregister")

    def expire_overstays(self, now_ms: int) -> list[SpotId]:
        """Force-close every occupied session past its time limit.

        The session is closed as if unregistered at start + max_minutes,
        and an admin review event is emitted per expired spot.
        """
        with self._lock:
            expired = []
            for spot in self._spots.values():
                session = spot.session
                if (
                    spot.state is SpotState.OCCUPIED
                    and session.max_minutes is not None
                    and now_ms > session.start_ms + session.max_minutes * MS_PER_MINUTE
                ):
                    cutoff = session.start_ms + session.max_minutes * MS_PER_MINUTE
                    self._close_session(spot.id, cutoff, "expire")
                    self._emit("overstay_expired", spot=str(spot.id))
                    expired.append(spot.id)
            return expired

    def settle(self, spot_id: SpotId) -> None:
        """Admin action clearing an illegally-parked spot."""
        with self._lock:
            _clear(self._spot_in(spot_id, SpotState.ILLEGAL))
            self._journal({"op": "settle", "spot": str(spot_id)})
            self._emit("settled", spot=str(spot_id))

    # -- internals --

    def _spot_in(self, spot_id: SpotId, state: SpotState) -> Spot:
        spot = self.get_spot(spot_id)
        if spot.state is not state:
            error, reason = _STATE_NEEDED[state]
            raise error(f"spot {spot_id} {reason}")
        return spot

    def _open_session(self, spot: Spot, user: UserProfile, now_ms: int, max_minutes) -> Session:
        self._session_seq += 1
        spot.session = Session(
            session_id=f"S{self._session_seq}",
            user=user,
            start_ms=now_ms,
            max_minutes=max_minutes,
        )
        spot.state = SpotState.OCCUPIED
        return spot.session

    def _close_session(self, spot_id: SpotId, now_ms: int, op: str) -> Session:
        spot = self._spot_in(spot_id, SpotState.OCCUPIED)
        session = spot.session
        cost = parking_cost_cents(
            spot.rate_cents_per_hour, billable_minutes(session.start_ms, now_ms)
        )
        charged = self.payment.charge(session.user.card_token, cost)
        _apply_close(spot, now_ms, cost, charged)
        if not charged:
            self._emit(
                "charge_failed", spot=str(spot_id), user_id=session.user.user_id, cost_cents=cost
            )
        self._journal(
            {
                "op": op, "spot": str(spot_id), "now_ms": now_ms,
                "cost_cents": cost, "charged": charged,
            }
        )
        return session

    def _emit(self, event_type: str, **data) -> None:
        self.events.append({"type": event_type, **data})

    def _journal(self, entry: dict) -> None:
        """Hand `entry` to the sink, then a snapshot once as many entries as
        the lot has spots have been handed over since the last one."""
        if self._journal_sink is None:
            return
        self._journal_sink(entry)
        self._since_snapshot += 1
        if self._since_snapshot >= len(self._spots):
            self._journal_sink(self.snapshot())
            self._since_snapshot = 0

    def snapshot(self) -> dict:
        """The full registry state as a journal `snapshot` entry.

        A spot without a session is Available, one with an open session
        Occupied, one with a closed (unpaid) session Illegal.
        """
        return {
            "op": "snapshot",
            "sessions": self._session_seq,
            "spots": [
                {
                    **_session_fields(spot),
                    "session_id": spot.session.session_id,
                    "end_ms": spot.session.end_ms,
                    "cost_cents": spot.session.cost_cents,
                }
                for spot in self._spots.values()
                if spot.session is not None
            ],
        }

    def _restore(self, entry: dict) -> None:
        """Replace the whole registry state by a snapshot entry's."""
        sessions = _field(entry, "sessions")
        restored: dict[SpotId, Session] = {}
        for record in _field(entry, "spots"):
            spot_id, session = _decode_snapshot_session(record)
            self.get_spot(spot_id)  # refuses a spot the lot does not have
            if spot_id in restored:
                raise ValueError(f"snapshot names spot {spot_id} twice")
            restored[spot_id] = session
        for spot in self._spots.values():
            spot.session = session = restored.get(spot.id)
            if session is None:
                spot.state = SpotState.AVAILABLE
            else:
                spot.state = SpotState.OCCUPIED if session.end_ms is None else SpotState.ILLEGAL
        self._session_seq = sessions

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
        """Apply one journaled outcome (used during replay).

        Replay calls no payment method, emits no event and journals
        nothing. Each field must have its journaled type: a missing field
        raises KeyError, a wrongly typed one TypeError, and an outcome the
        lot cannot take (a close of a spot that is not Occupied, a
        snapshot naming an unknown spot) a ParkingError or ValueError.
        """
        op = entry["op"]
        with self._lock:
            if op == "snapshot":
                self._restore(entry)
            elif op == "register":
                spot_id, user, now_ms, max_minutes = _decode_session_fields(entry)
                self._open_session(
                    self._spot_in(spot_id, SpotState.AVAILABLE), user, now_ms, max_minutes
                )
            elif op in ("unregister", "expire"):
                spot_id = SpotId.parse(_field(entry, "spot"))
                outcome = (
                    _field(entry, "now_ms"), _field(entry, "cost_cents"), _field(entry, "charged")
                )
                _apply_close(self._spot_in(spot_id, SpotState.OCCUPIED), *outcome)
            elif op == "settle":
                _clear(self._spot_in(SpotId.parse(_field(entry, "spot")), SpotState.ILLEGAL))
            else:
                raise ValueError(f"unknown journal op: {op}")
            self._since_snapshot = 0 if op == "snapshot" else self._since_snapshot + 1
            self.replayed_entries += 1


def _clear(spot: Spot) -> None:
    spot.state = SpotState.AVAILABLE
    spot.session = None


def _apply_close(spot: Spot, end_ms: int, cost_cents: int, charged: bool) -> None:
    """Record a close's outcome: a charged spot is free, an unpaid one Illegal."""
    session = spot.session
    session.end_ms, session.cost_cents, session.charged = end_ms, cost_cents, charged
    if charged:
        _clear(spot)
    else:
        spot.state = SpotState.ILLEGAL


# -- the journal codec: one exact type per field name --

_FIELD_TYPES = {
    "spot": str, "user_id": str, "plate": str, "card": str, "now_ms": int, "cost_cents": int,
    "charged": bool, "sessions": int, "spots": list, "session_id": str, "end_ms": int,
}


def _field(entry: dict, name: str, nullable: bool = False):
    """entry[name], which must have the exact type the field is journaled with."""
    value = entry[name]
    kind = _FIELD_TYPES[name]
    if type(value) is not kind and not (nullable and value is None):
        null = " or null" if nullable else ""
        raise TypeError(f"field {name!r} must be {kind.__name__}{null}, got {value!r}")
    return value


def _session_fields(spot: Spot) -> dict:
    """The fields of a `register` entry for the session `spot` holds."""
    session = spot.session
    return {
        "spot": str(spot.id),
        "user_id": session.user.user_id,
        "plate": session.user.vehicle_plate,
        "card": session.user.card_token,
        "max_minutes": session.max_minutes,
        "now_ms": session.start_ms,
    }


def _decode_session_fields(entry: dict) -> tuple[SpotId, UserProfile, int, int | None]:
    spot_id = SpotId.parse(_field(entry, "spot"))
    user = UserProfile(_field(entry, "user_id"), _field(entry, "plate"), _field(entry, "card"))
    max_minutes = _check_max_minutes(entry["max_minutes"])
    return spot_id, user, _field(entry, "now_ms"), max_minutes


def _decode_snapshot_session(record: dict) -> tuple[SpotId, Session]:
    """A snapshot's session: `register` fields plus its id, and for an
    Illegal spot the end time and the cost still owed (both null while open)."""
    spot_id, user, start_ms, max_minutes = _decode_session_fields(record)
    session_id = _field(record, "session_id")
    end_ms = _field(record, "end_ms", nullable=True)
    cost_cents = _field(record, "cost_cents", nullable=True)
    if (end_ms is None) != (cost_cents is None):
        raise ValueError(f"session {session_id} needs end_ms and cost_cents both set or both null")
    charged = None if end_ms is None else False
    session = Session(session_id, user, start_ms, end_ms, max_minutes, cost_cents, charged)
    return spot_id, session


def load_lot_config(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


class FileJournal:
    """Line-delimited JSON journal sink.

    Entries are appended (flushed, not fsynced). A snapshot entry instead
    replaces the whole file atomically: it is written to `<path>.tmp`,
    fsynced and renamed over the journal, and appends go on after it.
    """

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "a")

    def __call__(self, entry: dict) -> None:
        line = json.dumps(entry) + "\n"
        if entry["op"] == "snapshot":
            self._compact(line)
        else:
            self._fh.write(line)
            self._fh.flush()

    def _compact(self, line: str) -> None:
        """Make `line` the whole journal; on an OSError keep the old file.

        The old file stays complete, since every entry the snapshot
        covers was appended to it before the snapshot was taken.
        """
        fh = None
        try:
            fh = open(f"{self.path}.tmp", "w")
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())
            os.replace(f"{self.path}.tmp", self.path)
            # The renamed handle takes the appends; the old one is closed below.
            self._fh, fh = fh, self._fh
            dir_fd = os.open(os.path.dirname(os.path.abspath(self.path)), os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError as exc:
            logger.warning("journal %s: compaction failed, journal kept whole: %s", self.path, exc)
        finally:
            if fh is not None:
                fh.close()

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
    """Apply journaled outcomes to a freshly built service.

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
