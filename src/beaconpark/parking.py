"""Parking lot occupancy and billing state machine.

Spots move Available -> Occupied on registration, Occupied -> Available
on a successfully charged sign-out, and Occupied -> Illegal when the
charge fails; Illegal clears back to Available only through an explicit
admin settle. Time never comes from the wall clock: every operation takes
the current timestamp, so billing is reproducible.

The journal holds one record per spot, `{"spot": "A1", "session": ...}`:
null for no session, else its id, user id, plate, card token, time limit,
start time, and the end time and cost owed (null while it is open). An
entry `{"op": "spot", ...record}` journals a spot's new state after a
register, unregister, overstay expiry or settle. An entry `{"op":
"snapshot", "clock", "sessions", "spots"}` names the clock the times come
from ("system" or "simulated") and holds the session counter and the
record of every spot with a session; it replaces the whole state, so any
prefix of a journal replays to the state it recorded.

Replay, which calls no payment method and journals nothing, applies a
spot entry only as a step the service could take: Available may only open
session `S<counter + 1>`, Occupied may go to null (paid) or to its own
session closed with an end and a cost (unpaid), and Illegal only to null
(settled). A paid close's cost, and whether a close was an unregister or
an expiry, are not journaled: replay never needs them.

Once as many entries as the lot has spots follow the last snapshot, the
service journals one, and `FileJournal` replaces the file by that line: a
journal never holds more than spots + 1 lines, and a restart replays
O(lot size) entries. `service_from_files` starts an empty journal with a
snapshot, and refuses one that does not start with a snapshot or names
another clock, whose times would be read on the wrong clock.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
from collections import deque, namedtuple
from enum import Enum
from typing import Callable, Iterable

from .eddystone import BeaconFrame, SpotId, UidFrame, UrlFrame, uid_instance_for_spot
from .jsonfields import read_object

MS_PER_MINUTE = 60_000
# A service keeps its latest events only, so a long-running server holds a bounded number.
EVENTS_HELD = 1000


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


# Spot.state returns these plain names, which CPython looks up faster than SpotState.X.
_AVAILABLE, _OCCUPIED, _ILLEGAL = SpotState

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


UserProfile = namedtuple("UserProfile", "user_id vehicle_plate card_token")


class _Record:
    """A dataclass's equality and repr, over the subclass's __slots__; unhashable."""

    __slots__ = ()
    __hash__ = None

    def _values(self) -> list:
        return [getattr(self, key) for key in self.__slots__]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{key}={value!r}" for key, value in zip(self.__slots__, self._values()))
        return f"{self.__class__.__qualname__}({fields})"


class Session(_Record):
    """One timed, billed use of a spot.

    `charged` is None while the session is open; closing it records
    whether the payment went through.
    """

    __slots__ = ("session_id", "user", "start_ms", "end_ms", "max_minutes", "cost_cents", "charged")

    def __init__(self, session_id: str, user: UserProfile, start_ms: int, end_ms: int | None = None,
                 max_minutes: int | None = None, cost_cents: int | None = None,
                 charged: bool | None = None):
        self.session_id, self.user, self.start_ms, self.end_ms = session_id, user, start_ms, end_ms
        self.max_minutes, self.cost_cents, self.charged = max_minutes, cost_cents, charged


class Spot(_Record):
    __slots__ = ("id", "namespace", "instance", "url", "rate_cents_per_hour", "session")

    def __init__(self, id: SpotId, namespace: bytes, instance: bytes, url: str,
                 rate_cents_per_hour: int, session: Session | None = None):
        self.id, self.namespace, self.instance = id, bytes(namespace), bytes(instance)
        self.url, self.rate_cents_per_hour, self.session = url, rate_cents_per_hour, session
        for key, size in (("namespace", 10), ("instance", 6)):  # the UidFrame sizes
            length = len(getattr(self, key))
            if length != size:
                raise ValueError(f"spot {self.id}: {key} must be {size} bytes, got {length}")
        if self.rate_cents_per_hour < 0:
            raise ValueError("rate cannot be negative")
        if not self.url:
            raise ValueError("spot needs a registration URL")

    @property
    def state(self) -> SpotState:
        """No session is Available, an open one Occupied, a closed (unpaid) one Illegal."""
        session = self.session
        if session is None:
            return _AVAILABLE
        return _OCCUPIED if session.end_ms is None else _ILLEGAL


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
    same spot succeeds). `clock` names the clock its times come from, as
    its snapshots record it. `events` holds the latest EVENTS_HELD admin
    events (charge failures, overstay expiries and settles), oldest first.
    """

    def __init__(self, spots: Iterable[Spot], payment: PaymentStub | None = None,
                 journal_sink: Callable[[dict], None] | None = None, clock: str = "system"):
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
        self.clock = clock
        self.events: deque[dict] = deque(maxlen=EVENTS_HELD)
        self._journal_sink = journal_sink
        self._session_seq = 0
        self._since_snapshot = 0  # entries journaled since the last snapshot
        self.replayed_entries = 0
        self._lock = threading.Lock()

    # -- queries --

    def list_spots(self) -> list[tuple[SpotId, SpotState, int]]:
        """Registry snapshot in stable spot-id order."""
        return [(spot.id, spot.state, spot.rate_cents_per_hour) for spot in self._spots.values()]

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

    def register(self, spot_id: SpotId, user: UserProfile, now_ms: int,
                 max_minutes: int | None = None) -> Session:
        """Open a session; `max_minutes`, if given, is a non-negative int.

        A session that could not be billed at its limit is refused here,
        before it is journaled, with a ValueError naming the value.
        """
        _check_max_minutes(max_minutes)
        with self._lock:
            spot = self._spot_in(spot_id, SpotState.AVAILABLE)
            if not self.payment.validate_card(user.card_token):
                raise CardDeclinedError(f"card validation refused for {user.user_id}")
            self._session_seq += 1
            spot.session = Session(f"S{self._session_seq}", user, now_ms, max_minutes=max_minutes)
            self._journal(spot)
            return spot.session

    def unregister(self, spot_id: SpotId, now_ms: int) -> Session:
        """Close the session and charge it; a failed charge marks the
        spot illegally parked with the frozen cost still owed.

        The returned session's `charged` says which, as decided under the
        lock: the spot's state may change again as soon as it is released.
        """
        with self._lock:
            return self._close_session(spot_id, now_ms)

    def expire_overstays(self, now_ms: int) -> list[SpotId]:
        """Force-close every occupied session past its time limit.

        The session is closed as if unregistered at start + max_minutes,
        and an admin review event is emitted per expired spot.
        """
        with self._lock:
            expired = []
            for spot in self._spots.values():
                session = spot.session
                if session is None or session.end_ms is not None or session.max_minutes is None:
                    continue  # only an Occupied session with a limit expires
                cutoff = session.start_ms + session.max_minutes * MS_PER_MINUTE
                if now_ms > cutoff:
                    self._close_session(spot.id, cutoff)
                    self._emit("overstay_expired", spot=str(spot.id))
                    expired.append(spot.id)
            return expired

    def settle(self, spot_id: SpotId) -> None:
        """Admin action clearing an illegally-parked spot."""
        with self._lock:
            spot = self._spot_in(spot_id, SpotState.ILLEGAL)
            spot.session = None
            self._journal(spot)
            self._emit("settled", spot=str(spot_id))

    # -- internals --

    def _spot_in(self, spot_id: SpotId, state: SpotState) -> Spot:
        spot = self.get_spot(spot_id)
        if spot.state is not state:
            error, reason = _STATE_NEEDED[state]
            raise error(f"spot {spot_id} {reason}")
        return spot

    def _close_session(self, spot_id: SpotId, now_ms: int) -> Session:
        """Charge the session at `now_ms`: paid frees the spot, unpaid leaves it Illegal."""
        spot = self._spot_in(spot_id, SpotState.OCCUPIED)
        session = spot.session
        cost = parking_cost_cents(spot.rate_cents_per_hour, billable_minutes(session.start_ms, now_ms))
        charged = self.payment.charge(session.user.card_token, cost)
        session.end_ms, session.cost_cents, session.charged = now_ms, cost, charged
        if charged:
            spot.session = None
        else:
            user_id = session.user.user_id
            self._emit("charge_failed", spot=str(spot_id), user_id=user_id, cost_cents=cost)
        self._journal(spot)
        return session

    def _emit(self, event_type: str, **data) -> None:
        self.events.append({"type": event_type, **data})

    def _journal(self, spot: Spot) -> None:
        """Hand the sink `spot`'s new state, then a snapshot once as many
        entries as the lot has spots have been handed over since the last one."""
        if self._journal_sink is None:
            return
        self._journal_sink({"op": "spot", **_spot_record(spot)})
        self._since_snapshot += 1
        if self._since_snapshot >= len(self._spots):
            self._journal_sink(self.snapshot())
            self._since_snapshot = 0

    def snapshot(self) -> dict:
        """The full registry state as a journal `snapshot` entry."""
        return {
            "op": "snapshot",
            "clock": self.clock,
            "sessions": self._session_seq,
            "spots": [_spot_record(spot) for spot in self._spots.values() if spot.session is not None],
        }

    def _step(self, spot: Spot, session: Session | None) -> None:
        """Move `spot` to `session` if the service could have, else raise ValueError."""
        old, opens = spot.session, f"S{self._session_seq + 1}"
        if old is None:  # Available: only the next session may open
            legal = session is not None and session.end_ms is None and session.session_id == opens
        elif session is None:  # paid, or settled
            legal = True
        else:  # Occupied to the same session, closed unpaid
            legal = old.end_ms is None and session.end_ms is not None and (
                session.session_id, session.user, session.start_ms, session.max_minutes
            ) == (old.session_id, old.user, old.start_ms, old.max_minutes)
        if not legal:
            hint = f" (the next session is {opens})" if old is None else ""
            raise ValueError(
                f"spot {spot.id} cannot go from {_describe(old)} to {_describe(session)}{hint}")
        if old is None:
            self._session_seq += 1
        spot.session = session

    # -- construction, journaling, replay --

    @classmethod
    def from_config(cls, config: dict, **kwargs) -> "ParkingService":
        """Build a service from a lot-definition dict (see lot JSON)."""
        spots = []
        for entry in read_object(config, "lot", {"spots": list}, ("spots",))["spots"]:
            fields = read_object(entry, "spot", _SPOT_KINDS, _SPOT_REQUIRED)
            spot_id = fields["id"] = SpotId.parse(fields["id"])
            fields.setdefault("instance", uid_instance_for_spot(spot_id).hex())
            for key in ("namespace", "instance"):
                try:
                    fields[key] = bytes.fromhex(fields[key])
                except ValueError:
                    raise ValueError(f"spot {spot_id}: {key} is not hex: {fields[key]!r}") from None
            spots.append(Spot(**fields))
        return cls(spots, **kwargs)

    def apply_journal_entry(self, entry: dict) -> None:
        """Apply one journal entry (used during replay).

        An entry holds exactly its op's fields, each of its journaled type:
        a missing or unknown field raises ValueError, a wrongly typed one
        TypeError. An illegal step, and a snapshot under another clock or
        naming an unknown spot, one twice or one without a session, raise
        ValueError or ParkingError.
        """
        op = entry.get("op") if type(entry) is dict else None
        if type(op) is str and op not in _ENTRY_KINDS:
            raise ValueError(f"unknown journal op: {op}")
        kinds = _ENTRY_KINDS[op] if type(op) is str else {"op": str}
        entry = read_object(entry, "journal entry", kinds, kinds)
        with self._lock:
            if op == "spot":
                spot_id, session = _decode_spot_record(entry)
                self._step(self.get_spot(spot_id), session)
                self._since_snapshot += 1
            else:  # a snapshot replaces the whole registry state
                if entry["clock"] != self.clock:
                    raise ValueError(f"journal written under the {entry['clock']} clock, "
                                     f"served under the {self.clock} clock")
                restored: dict[SpotId, Session] = {}
                for record in entry["spots"]:
                    record = read_object(record, "snapshot record", _RECORD_KINDS, _RECORD_KINDS)
                    spot_id, session = _decode_spot_record(record)
                    self.get_spot(spot_id)  # refuses a spot the lot does not have
                    if session is None or spot_id in restored:
                        problem = "without a session" if session is None else "twice"
                        raise ValueError(f"snapshot lists spot {spot_id} {problem}")
                    restored[spot_id] = session
                for spot in self._spots.values():
                    spot.session = restored.get(spot.id)
                self._session_seq, self._since_snapshot = entry["sessions"], 0
            self.replayed_entries += 1


# A lot file's spot: the Spot fields, the beacon bytes as hex (`instance` optional).
_SPOT_KINDS = {"id": str, "namespace": str, "instance": str, "url": str, "rate_cents_per_hour": int}
_SPOT_REQUIRED = ("id", "namespace", "url", "rate_cents_per_hour")

# -- the journal codec: one spot record, each field of one exact JSON type --

_INT_OR_NULL = (int, type(None))
_SESSION_KINDS = {"id": str, "user_id": str, "plate": str, "card": str, "max_minutes": _INT_OR_NULL,
                  "start_ms": int, "end_ms": _INT_OR_NULL, "cost_cents": _INT_OR_NULL}
_RECORD_KINDS = {"spot": str, "session": (dict, type(None))}
_ENTRY_KINDS = {"spot": {"op": str, **_RECORD_KINDS},
                "snapshot": {"op": str, "clock": str, "sessions": int, "spots": list}}


def _spot_record(spot: Spot) -> dict:
    """`spot`'s journal record: its id and its session, or null for none."""
    session = spot.session
    return {"spot": str(spot.id), "session": session and {
        "id": session.session_id, "user_id": session.user.user_id,
        "plate": session.user.vehicle_plate, "card": session.user.card_token,
        "max_minutes": session.max_minutes, "start_ms": session.start_ms,
        "end_ms": session.end_ms, "cost_cents": session.cost_cents,
    }}


def _describe(session: Session | None) -> str:
    return "no session" if session is None else (
        f"{'open' if session.end_ms is None else 'closed'} session {session.session_id}")


def _decode_spot_record(record: dict) -> tuple[SpotId, Session | None]:
    """The spot and session of a record whose two fields `read_object` has typed."""
    spot_id, fields = SpotId.parse(record["spot"]), record["session"]
    if fields is None:
        return spot_id, None
    fields = read_object(fields, "session", _SESSION_KINDS, _SESSION_KINDS)
    end_ms, cost_cents = fields["end_ms"], fields["cost_cents"]
    if (end_ms is None) != (cost_cents is None):
        raise ValueError(f"session {fields['id']} needs end_ms and cost_cents both set or both null")
    user = UserProfile(fields["user_id"], fields["plate"], fields["card"])
    max_minutes = _check_max_minutes(fields["max_minutes"])
    charged = None if end_ms is None else False  # a journaled close is an unpaid one
    return spot_id, Session(
        fields["id"], user, fields["start_ms"], end_ms, max_minutes, cost_cents, charged
    )


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
            import logging

            logging.getLogger(__name__).warning(
                "journal %s: compaction failed, journal kept whole: %s", self.path, exc
            )
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
            import logging

            logging.getLogger(__name__).warning(
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
        except (ParkingError, TypeError, ValueError) as exc:
            if path is None:
                where = f"journal entry {index + 1}"
            else:
                lineno, _ = next(itertools.islice(_journal_lines(path), index, None))
                where = f"{path} line {lineno}"
            raise JournalError(f"{where}: {exc}") from exc


def service_from_files(lot_config_path, journal_path=None, clock="system") -> ParkingService:
    """Restore a service: build from the lot config, replay the journal,
    then attach the journal file for appending.

    `clock` names the clock the service's times come from. An empty journal
    gets a snapshot that records it as its first line. A journal that does
    not start with a snapshot, or whose snapshot names another clock,
    raises JournalError.
    """
    with open(lot_config_path) as fh:
        service = ParkingService.from_config(json.load(fh), clock=clock)
    if journal_path is not None:
        entries = []
        if os.path.exists(journal_path):
            _truncate_torn_tail(journal_path)
            entries = read_journal(journal_path)
        if not entries:
            with open(journal_path, "w") as fh:
                fh.write(json.dumps(service.snapshot()) + "\n")
        elif type(entries[0]) is not dict or entries[0].get("op") != "snapshot":
            lineno, _ = next(_journal_lines(journal_path))
            raise JournalError(f"{journal_path} line {lineno}: not a snapshot, so the journal "
                               f"names no clock (served under the {clock} clock)")
        replay_journal(service, entries, journal_path)
        service._journal_sink = FileJournal(journal_path)
    return service
