import json
import math
import os
import random
import threading

import pytest

from beaconpark.eddystone import SpotId, UidFrame, UrlFrame, uid_instance_for_spot
from beaconpark import parking as pk

MIN_MS = 60_000


def make_spot(text, rate=200, url=None):
    spot_id = SpotId.parse(text)
    return pk.Spot(
        id=spot_id,
        namespace=bytes(10),
        instance=uid_instance_for_spot(spot_id),
        url=url or f"https://park.example/{text}",
        rate_cents_per_hour=rate,
    )


def make_service(n=5, rate=200, journal=None):
    spots = [make_spot(f"A{i}", rate=rate) for i in range(1, n + 1)]
    return pk.ParkingService(spots, journal_sink=journal)


USER = pk.UserProfile("u1", "PLATE1", "tok-1")
USER2 = pk.UserProfile("u2", "PLATE2", "tok-2")
BAD_CARD = pk.UserProfile("u3", "PLATE3", pk.PaymentStub.DECLINE_TOKEN)
CHARGE_FAIL = pk.UserProfile("u4", "PLATE4", pk.PaymentStub.CHARGE_FAIL_TOKEN)


class TestBilling:
    def test_ninety_minutes_at_two_dollars_an_hour(self):
        assert pk.parking_cost_cents(200, 90) == 300

    def test_zero_elapsed_costs_nothing(self):
        assert pk.parking_cost_cents(200, 0) == 0
        assert pk.billable_minutes(1000, 1000) == 0

    def test_started_minutes_count_in_full(self):
        assert pk.billable_minutes(0, 1) == 1
        assert pk.billable_minutes(0, 59_999) == 1
        assert pk.billable_minutes(0, 60_000) == 1
        assert pk.billable_minutes(0, 60_001) == 2

    def test_cost_property_over_random_inputs(self):
        rng = random.Random(87)
        for _ in range(10_000):
            rate = rng.randrange(0, 5000)
            minutes = rng.randrange(0, 7 * 24 * 60)
            assert pk.parking_cost_cents(rate, minutes) == math.ceil(rate * minutes / 60)

    def test_cost_monotone_in_duration(self):
        costs = [pk.parking_cost_cents(130, m) for m in range(0, 300)]
        assert all(b >= a for a, b in zip(costs, costs[1:]))


class TestRegistry:
    def test_fresh_lot_lists_all_available(self):
        service = make_service(5)
        rows = service.list_spots()
        assert len(rows) == 5
        assert all(state is pk.SpotState.AVAILABLE for _, state, _ in rows)
        assert [str(s) for s, _, _ in rows] == ["A1", "A2", "A3", "A4", "A5"]

    def test_list_is_idempotent(self):
        service = make_service(3)
        assert service.list_spots() == service.list_spots()

    def test_register_occupies_only_the_target(self):
        service = make_service(5)
        session = service.register(SpotId.parse("A1"), USER, now_ms=1000)
        assert session.start_ms == 1000
        states = dict((str(s), st) for s, st, _ in service.list_spots())
        assert states["A1"] is pk.SpotState.OCCUPIED
        assert all(st is pk.SpotState.AVAILABLE for k, st in states.items() if k != "A1")

    def test_register_taken_spot_fails(self):
        service = make_service(2)
        service.register(SpotId.parse("A1"), USER, now_ms=0)
        with pytest.raises(pk.SpotTakenError):
            service.register(SpotId.parse("A1"), USER2, now_ms=5)

    def test_declined_card_leaves_spot_available(self):
        service = make_service(2)
        with pytest.raises(pk.CardDeclinedError):
            service.register(SpotId.parse("A1"), BAD_CARD, now_ms=0)
        assert service.list_spots()[0][1] is pk.SpotState.AVAILABLE

    def test_unknown_spot(self):
        service = make_service(2)
        with pytest.raises(pk.UnknownSpotError):
            service.register(SpotId.parse("Z9"), USER, now_ms=0)

    @pytest.mark.parametrize("max_minutes", [-5, 1.5, "60", True])
    def test_time_limit_must_be_a_non_negative_int(self, max_minutes):
        journal = []
        service = make_service(2, journal=journal.append)
        with pytest.raises(ValueError, match="max_minutes must be a non-negative integer"):
            service.register(SpotId.parse("A1"), USER, now_ms=0, max_minutes=max_minutes)
        assert service.get_spot(SpotId.parse("A1")).state is pk.SpotState.AVAILABLE
        assert journal == []
        service.register(SpotId.parse("A1"), USER, now_ms=0, max_minutes=0)

    def test_ten_spot_lot_snapshot_shape(self):
        service = make_service(10)
        service.register(SpotId.parse("A2"), USER, now_ms=0)
        service.register(SpotId.parse("A7"), USER2, now_ms=0)
        states = [st for _, st, _ in service.list_spots()]
        assert states.count(pk.SpotState.OCCUPIED) == 2
        assert states.count(pk.SpotState.AVAILABLE) == 8
        occupants = {
            str(spot.id): spot.session.user.user_id
            for spot in (service.get_spot(SpotId.parse("A2")),
                         service.get_spot(SpotId.parse("A7")))
        }
        assert occupants == {"A2": "u1", "A7": "u2"}

    def test_spots_given_out_of_order_are_kept_in_id_order(self):
        given = ["B2", "A10", "A2", "B1", "A1"]
        lot = {
            "spots": [
                {"id": text, "namespace": "aa" * 10,
                 "url": f"https://park.example/{text}", "rate_cents_per_hour": 100}
                for text in given
            ]
        }
        service = pk.ParkingService.from_config(lot)
        in_order = ["A1", "A2", "A10", "B1", "B2"]
        assert [str(s) for s, _, _ in service.list_spots()] == in_order
        for text in given:
            service.register(SpotId.parse(text), USER, now_ms=0, max_minutes=10)
        expired = service.expire_overstays(now_ms=60 * MIN_MS)
        assert [str(s) for s in expired] == in_order
        assert [str(s) for s, _, _ in service.list_spots()] == in_order


class TestUnregister:
    def test_ninety_minute_session_costs_three_dollars(self):
        service = make_service(2, rate=200)
        service.register(SpotId.parse("A1"), USER, now_ms=0)
        session = service.unregister(SpotId.parse("A1"), now_ms=90 * MIN_MS)
        assert session.cost_cents == 300
        assert session.end_ms == 90 * MIN_MS
        assert service.list_spots()[0][1] is pk.SpotState.AVAILABLE

    def test_zero_duration_costs_nothing(self):
        service = make_service(2)
        service.register(SpotId.parse("A1"), USER, now_ms=500)
        session = service.unregister(SpotId.parse("A1"), now_ms=500)
        assert session.cost_cents == 0

    def test_not_registered(self):
        service = make_service(2)
        with pytest.raises(pk.NotRegisteredError):
            service.unregister(SpotId.parse("A1"), now_ms=0)

    def test_charge_failure_marks_illegal_and_alerts(self):
        service = make_service(2)
        service.register(SpotId.parse("A1"), CHARGE_FAIL, now_ms=0)
        session = service.unregister(SpotId.parse("A1"), now_ms=60 * MIN_MS)
        assert service.list_spots()[0][1] is pk.SpotState.ILLEGAL
        assert session.cost_cents == 200
        alerts = [e for e in service.events if e["type"] == "charge_failed"]
        assert alerts and alerts[0]["spot"] == "A1"

    def test_session_records_the_charge_outcome(self):
        service = make_service(2)
        paid = service.register(SpotId.parse("A1"), USER, now_ms=0)
        owed = service.register(SpotId.parse("A2"), CHARGE_FAIL, now_ms=0)
        assert paid.charged is None and owed.charged is None
        assert service.unregister(SpotId.parse("A1"), now_ms=MIN_MS).charged is True
        assert service.unregister(SpotId.parse("A2"), now_ms=MIN_MS).charged is False

    def test_illegal_spot_cannot_be_registered_or_unregistered(self):
        service = make_service(2)
        service.register(SpotId.parse("A1"), CHARGE_FAIL, now_ms=0)
        service.unregister(SpotId.parse("A1"), now_ms=MIN_MS)
        with pytest.raises(pk.SpotTakenError):
            service.register(SpotId.parse("A1"), USER, now_ms=2 * MIN_MS)
        with pytest.raises(pk.NotRegisteredError):
            service.unregister(SpotId.parse("A1"), now_ms=2 * MIN_MS)

    def test_latest_session_time_counts_an_owed_session_end(self):
        service = make_service(3)
        assert service.latest_session_ms() == 0
        service.register(SpotId.parse("A1"), USER, now_ms=10 * MIN_MS)
        service.register(SpotId.parse("A2"), CHARGE_FAIL, now_ms=5 * MIN_MS)
        service.unregister(SpotId.parse("A2"), now_ms=30 * MIN_MS)  # Illegal, end kept
        service.register(SpotId.parse("A3"), USER2, now_ms=20 * MIN_MS)
        service.unregister(SpotId.parse("A3"), now_ms=40 * MIN_MS)  # paid, spot cleared
        assert service.latest_session_ms() == 30 * MIN_MS

    def test_settle_clears_illegal(self):
        service = make_service(2)
        service.register(SpotId.parse("A1"), CHARGE_FAIL, now_ms=0)
        service.unregister(SpotId.parse("A1"), now_ms=MIN_MS)
        service.settle(SpotId.parse("A1"))
        assert service.list_spots()[0][1] is pk.SpotState.AVAILABLE

    def test_settle_requires_illegal_state(self):
        service = make_service(2)
        with pytest.raises(pk.NotIllegalError):
            service.settle(SpotId.parse("A1"))


class TestExpiry:
    def test_expired_at_limit_plus_one_minute(self):
        service = make_service(2, rate=200)
        service.register(SpotId.parse("A1"), USER, now_ms=0, max_minutes=60)
        expired = service.expire_overstays(now_ms=61 * MIN_MS)
        assert expired == [SpotId.parse("A1")]
        assert service.list_spots()[0][1] is pk.SpotState.AVAILABLE
        # billed for exactly the 60-minute limit, not the overstay
        events = [e for e in service.events if e["type"] == "overstay_expired"]
        assert events and events[0]["spot"] == "A1"

    def test_within_limit_not_expired(self):
        service = make_service(2)
        service.register(SpotId.parse("A1"), USER, now_ms=0, max_minutes=60)
        assert service.expire_overstays(now_ms=60 * MIN_MS) == []

    def test_without_limit_never_expired(self):
        service = make_service(2)
        service.register(SpotId.parse("A1"), USER, now_ms=0)
        assert service.expire_overstays(now_ms=10**12) == []

    def test_exactly_the_overstayed_spots_are_returned(self):
        service = make_service(5)
        for i, minutes in [(1, 30), (2, 240), (3, 30), (4, None), (5, 45)]:
            service.register(SpotId.parse(f"A{i}"), USER, now_ms=0, max_minutes=minutes)
        expired = service.expire_overstays(now_ms=60 * MIN_MS)
        assert expired == [SpotId.parse("A1"), SpotId.parse("A3"), SpotId.parse("A5")]

    def test_expired_charge_failure_goes_illegal(self):
        service = make_service(2)
        service.register(SpotId.parse("A1"), CHARGE_FAIL, now_ms=0, max_minutes=10)
        service.expire_overstays(now_ms=60 * MIN_MS)
        assert service.list_spots()[0][1] is pk.SpotState.ILLEGAL


class TestResolveBeacon:
    def test_uid_resolution(self):
        service = make_service(3)
        frame = UidFrame(bytes(10), uid_instance_for_spot(SpotId.parse("A2")), -65)
        spot, url = service.resolve_beacon(frame)
        assert str(spot) == "A2"
        assert url == "https://park.example/A2"

    def test_url_resolution(self):
        spots = [make_spot("B3", url="https://park.example/B3")]
        service = pk.ParkingService(spots)
        frame = UrlFrame.from_url("https://park.example/B3", -18)
        spot, _ = service.resolve_beacon(frame)
        assert str(spot) == "B3"

    def test_unknown_namespace_rejected(self):
        service = make_service(2)
        frame = UidFrame(b"\xff" * 10, uid_instance_for_spot(SpotId.parse("A1")), -65)
        with pytest.raises(pk.UnknownBeaconError):
            service.resolve_beacon(frame)

    def test_lot_with_a_shared_url_is_refused(self):
        url = "https://park.example/X"
        spots = [make_spot("B1", url=url), make_spot("A1", url=url)]
        with pytest.raises(ValueError, match="spots A1 and B1 share one beacon URL"):
            pk.ParkingService(spots)

    def test_lot_with_a_shared_uid_is_refused(self):
        a2 = make_spot("A2")
        a2.instance = uid_instance_for_spot(SpotId.parse("A7"))
        with pytest.raises(ValueError, match="spots A2 and A7 share one beacon UID"):
            pk.ParkingService([make_spot("A1"), a2, make_spot("A7")])


COMMANDS = []


def _cmd(name):
    def mark(fn):
        COMMANDS.append((name, fn))
        return fn

    return mark


@_cmd("reg_ok_A1")
def _(s, now):
    s.register(SpotId.parse("A1"), USER, now, max_minutes=60)


@_cmd("reg_fail_A1")
def _(s, now):
    s.register(SpotId.parse("A1"), CHARGE_FAIL, now)


@_cmd("unreg_A1")
def _(s, now):
    s.unregister(SpotId.parse("A1"), now)


@_cmd("settle_A1")
def _(s, now):
    s.settle(SpotId.parse("A1"))


@_cmd("reg_ok_A2")
def _(s, now):
    s.register(SpotId.parse("A2"), USER2, now, max_minutes=30)


@_cmd("unreg_A2")
def _(s, now):
    s.unregister(SpotId.parse("A2"), now)


@_cmd("expire")
def _(s, now):
    s.expire_overstays(now)


class TestStateMachineFuzz:
    def test_conservation_and_replay_over_random_sequences(self):
        rng = random.Random(19)
        for _ in range(200):
            journal = []
            service = pk.ParkingService(
                [make_spot("A1"), make_spot("A2", rate=90)], journal_sink=journal.append
            )
            now = 0
            for _ in range(20):
                now += rng.randrange(0, 90) * MIN_MS
                _, fn = rng.choice(COMMANDS)
                try:
                    fn(service, now)
                except pk.ParkingError:
                    pass
                states = [st for _, st, _ in service.list_spots()]
                assert len(states) == 2  # conservation: every spot in one state
            replayed = pk.ParkingService([make_spot("A1"), make_spot("A2", rate=90)])
            pk.replay_journal(replayed, journal)
            assert replayed.snapshot() == service.snapshot()

    def test_journal_is_json_serializable(self):
        journal = []
        service = pk.ParkingService([make_spot("A1")], journal_sink=journal.append)
        service.register(SpotId.parse("A1"), USER, now_ms=0, max_minutes=5)
        service.expire_overstays(now_ms=10 * MIN_MS)
        for entry in journal:
            json.loads(json.dumps(entry))


SNAPSHOT_SESSION = {"spot": "A1", "user_id": "u", "plate": "P", "card": "tok", "max_minutes": None,
                    "now_ms": 0, "session_id": "S1", "end_ms": None, "cost_cents": None}


class TestFileJournal:
    def test_round_trip_through_files(self, tmp_path):
        lot = {
            "spots": [
                {"id": "A1", "namespace": "00" * 10,
                 "url": "https://park.example/A1", "rate_cents_per_hour": 200},
                {"id": "A2", "namespace": "00" * 10,
                 "url": "https://park.example/A2", "rate_cents_per_hour": 90},
            ]
        }
        lot_path = tmp_path / "lot.json"
        lot_path.write_text(json.dumps(lot))
        journal_path = tmp_path / "lot.journal"

        service = pk.service_from_files(lot_path, journal_path)
        service.register(SpotId.parse("A1"), USER, now_ms=0)
        service.register(SpotId.parse("A2"), CHARGE_FAIL, now_ms=0)
        service.unregister(SpotId.parse("A2"), now_ms=30 * MIN_MS)
        before = service.snapshot()
        service._journal_sink.close()

        restored = pk.service_from_files(lot_path, journal_path)
        assert restored.snapshot() == before
        restored._journal_sink.close()

    def write_lot(self, tmp_path):
        lot = {
            "spots": [
                {"id": "A1", "namespace": "00" * 10,
                 "url": "https://park.example/A1", "rate_cents_per_hour": 200},
            ]
        }
        lot_path = tmp_path / "lot.json"
        lot_path.write_text(json.dumps(lot))
        return lot_path

    def test_torn_last_line_is_truncated_with_a_warning(self, tmp_path, caplog):
        lot_path = self.write_lot(tmp_path)
        journal_path = tmp_path / "lot.journal"
        service = pk.service_from_files(lot_path, journal_path)
        service.register(SpotId.parse("A1"), USER, now_ms=0)
        service._journal_sink.close()
        whole = journal_path.read_bytes()
        journal_path.write_bytes(whole + b'{"op": "regis')

        with caplog.at_level("WARNING", logger="beaconpark.parking"):
            restored = pk.service_from_files(lot_path, journal_path)
        assert any("torn" in rec.message for rec in caplog.records)
        assert journal_path.read_bytes() == whole
        assert restored.get_spot(SpotId.parse("A1")).state is pk.SpotState.OCCUPIED
        # the next append starts a line of its own, so a second restart reads it
        restored.unregister(SpotId.parse("A1"), now_ms=MIN_MS)
        restored._journal_sink.close()
        again = pk.service_from_files(lot_path, journal_path)
        assert again.get_spot(SpotId.parse("A1")).state is pk.SpotState.AVAILABLE
        again._journal_sink.close()

    def test_corrupt_complete_line_names_path_and_line(self, tmp_path):
        lot_path = self.write_lot(tmp_path)
        journal_path = tmp_path / "lot.journal"
        journal_path.write_text('{"op": "settle", "spot": "A1"}\n\n{"op": \n')
        with pytest.raises(pk.JournalError, match=r"lot\.journal line 3"):
            pk.service_from_files(lot_path, journal_path)

    def test_unreplayable_entry_names_path_and_line(self, tmp_path):
        lot_path = self.write_lot(tmp_path)
        journal_path = tmp_path / "lot.journal"
        entries = [
            {"op": "register", "spot": "A1", "user_id": "u", "plate": "P",
             "card": "tok", "max_minutes": None, "now_ms": 0},
            {"op": "unregister", "spot": "A1", "now_ms": 1, "cost_cents": 4, "charged": True},
            {"op": "settle", "spot": "A1"},  # A1 was charged, so it is not illegal
        ]
        lines = [json.dumps(entries[0]), "", *map(json.dumps, entries[1:])]
        journal_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(pk.JournalError, match=r"lot\.journal line 4: spot A1 is not illegally"):
            pk.service_from_files(lot_path, journal_path)
        with pytest.raises(pk.JournalError, match=r"^journal entry 3: spot A1"):
            pk.replay_journal(pk.ParkingService([make_spot("A1")]), entries)

    @pytest.mark.parametrize(
        "entry, reason",
        [
            ({"op": "expire", "spot": "A1", "now_ms": "soon", "cost_cents": 0, "charged": True},
             "field 'now_ms' must be int, got 'soon'"),
            ({"op": "unregister", "spot": "A1", "now_ms": 1.5, "cost_cents": 0, "charged": True},
             "field 'now_ms' must be int"),
            ({"op": "settle", "spot": 1}, "field 'spot' must be str, got 1"),
            ({"op": "register", "spot": "A1", "user_id": "u", "plate": ["P"], "card": "tok",
              "max_minutes": None, "now_ms": 0}, "field 'plate' must be str"),
            ({"op": "register", "spot": "A1", "user_id": "u", "plate": "P", "card": "tok",
              "max_minutes": -5, "now_ms": 0}, "max_minutes must be a non-negative integer"),
            ({"op": "register", "spot": "A1", "user_id": "u", "plate": "P", "card": "tok",
              "max_minutes": "60", "now_ms": 0}, "max_minutes must be a non-negative integer"),
            ({"op": "snapshot", "sessions": 1, "spots": [{**SNAPSHOT_SESSION, "spot": "Z9"}]},
             "no such spot: Z9"),
            ({"op": "snapshot", "sessions": "1", "spots": [SNAPSHOT_SESSION]},
             "field 'sessions' must be int, got '1'"),
            ({"op": "unregister", "spot": "A1", "now_ms": 1, "cost_cents": 0, "charged": 1},
             "field 'charged' must be bool, got 1"),
            ({"op": "unregister", "spot": "A1", "now_ms": 1}, "missing field 'cost_cents'"),
        ],
    )
    def test_wrongly_typed_entry_names_path_and_line(self, tmp_path, entry, reason):
        lot_path = self.write_lot(tmp_path)
        journal_path = tmp_path / "lot.journal"
        journal_path.write_text("\n" + json.dumps(entry) + "\n")
        with pytest.raises(pk.JournalError) as info:
            pk.service_from_files(lot_path, journal_path)
        assert str(info.value).startswith(f"{journal_path} line 2: {reason}")

    def test_instance_defaults_to_spot_convention(self, tmp_path):
        lot = {
            "spots": [
                {"id": "B7", "namespace": "aa" * 10,
                 "url": "https://park.example/B7", "rate_cents_per_hour": 100}
            ]
        }
        path = tmp_path / "lot.json"
        path.write_text(json.dumps(lot))
        service = pk.service_from_files(path)
        spot = service.get_spot(SpotId.parse("B7"))
        assert spot.instance == uid_instance_for_spot(SpotId.parse("B7"))


class CountingPayment(pk.PaymentStub):
    def __init__(self):
        self.calls = {"validate_card": 0, "charge": 0}

    def validate_card(self, card_token):
        self.calls["validate_card"] += 1
        return super().validate_card(card_token)

    def charge(self, card_token, amount_cents):
        self.calls["charge"] += 1
        return super().charge(card_token, amount_cents)


def write_lot_of(tmp_path, n):
    lot = {
        "spots": [
            {"id": f"A{i}", "namespace": "00" * 10,
             "url": f"https://park.example/A{i}", "rate_cents_per_hour": 60 * i}
            for i in range(1, n + 1)
        ]
    }
    lot_path = tmp_path / "lot.json"
    lot_path.write_text(json.dumps(lot))
    return lot_path, lot


def restart(lot, journal_path, payment=None):
    """What service_from_files restores from `journal_path`, with no sink attached."""
    service = pk.ParkingService.from_config(lot, payment=payment)
    pk.replay_journal(service, pk.read_journal(journal_path), journal_path)
    return service


class TestRestart:
    def test_restart_makes_no_payment_calls(self, tmp_path):
        _, lot = write_lot_of(tmp_path, 6)
        journal_path = tmp_path / "lot.journal"
        sink = pk.FileJournal(journal_path)
        service = pk.ParkingService.from_config(lot, payment=CountingPayment(), journal_sink=sink)
        a = [SpotId.parse(f"A{i}") for i in range(1, 7)]
        service.register(a[0], USER, now_ms=0)
        service.unregister(a[0], now_ms=90 * MIN_MS)
        service.register(a[1], CHARGE_FAIL, now_ms=0)
        service.unregister(a[1], now_ms=10 * MIN_MS)
        service.register(a[2], USER2, now_ms=0, max_minutes=30)
        assert service.expire_overstays(now_ms=45 * MIN_MS) == [a[2]]
        service.register(a[3], USER, now_ms=MIN_MS)
        service.register(a[4], USER2, now_ms=2 * MIN_MS)
        service.unregister(a[4], now_ms=3 * MIN_MS)
        sink.close()
        assert service.payment.calls == {"validate_card": 5, "charge": 4}

        payment = CountingPayment()
        restored = restart(lot, journal_path, payment)
        assert payment.calls == {"validate_card": 0, "charge": 0}
        assert restored.snapshot() == service.snapshot()
        assert restored.get_spot(a[1]).state is pk.SpotState.ILLEGAL

    def test_journal_stays_within_spots_plus_one_lines(self, tmp_path):
        lot_path, _ = write_lot_of(tmp_path, 3)
        journal_path = tmp_path / "lot.journal"
        service = pk.service_from_files(lot_path, journal_path)
        spots = [SpotId.parse(f"A{i}") for i in range(1, 4)]
        rng = random.Random(8)
        now, opened, lines, compactions = 0, 0, [], 0
        for step in range(3000):
            now += rng.randrange(0, 50) * MIN_MS
            spot = rng.choice(spots)
            verb = rng.choice(("register", "register", "unregister", "settle", "expire"))
            try:
                if verb == "register":
                    user = rng.choice((USER, USER2, CHARGE_FAIL, BAD_CARD))
                    session = service.register(spot, user, now, rng.choice((None, 20, 40)))
                    opened += 1
                    assert session.session_id == f"S{opened}"
                elif verb == "unregister":
                    service.unregister(spot, now)
                elif verb == "settle":
                    service.settle(spot)
                else:
                    service.expire_overstays(now)
            except pk.ParkingError:
                pass
            before, lines = lines, journal_path.read_text().splitlines()
            assert len(lines) <= 4, (step, lines)
            compactions += len(lines) < len(before)
            if step % 97 == 0:  # restart, and go on with the restored service
                service._journal_sink.close()
                restored = pk.service_from_files(lot_path, journal_path)
                assert restored.snapshot() == service.snapshot()
                service = restored
        service._journal_sink.close()
        assert compactions > 300

    def test_snapshot_replaces_the_replayed_state(self):
        service = make_service(2)
        pk.replay_journal(service, [
            {"op": "register", "spot": "A1", "user_id": "u", "plate": "P", "card": "tok",
             "max_minutes": None, "now_ms": 0},
            {"op": "snapshot", "sessions": 7, "spots": [{**SNAPSHOT_SESSION, "spot": "A2"}]},
        ])
        assert [st.value for _, st, _ in service.list_spots()] == ["Available", "Occupied"]
        assert service.register(SpotId.parse("A1"), USER, now_ms=0).session_id == "S8"

    def test_failed_compaction_keeps_the_whole_journal(self, tmp_path, monkeypatch, caplog):
        lot_path, lot = write_lot_of(tmp_path, 3)
        journal_path = tmp_path / "lot.journal"
        service = pk.service_from_files(lot_path, journal_path)
        a1, a2 = SpotId.parse("A1"), SpotId.parse("A2")
        service.register(a1, USER, now_ms=0)
        service.register(a2, CHARGE_FAIL, now_ms=0)
        real_replace = os.replace
        failures = []

        def replace_once(src, dst):
            if not failures:
                failures.append(dst)
                raise OSError(28, "No space left on device")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_once)
        with caplog.at_level("WARNING", logger="beaconpark.parking"):
            assert service.unregister(a2, now_ms=30 * MIN_MS).charged is False
        assert failures
        assert any(str(journal_path) in rec.getMessage() for rec in caplog.records)
        assert len(journal_path.read_text().splitlines()) == 3
        assert restart(lot, journal_path).snapshot() == service.snapshot()

        # the next try comes once as many entries as the lot has spots follow
        service.settle(a2)
        service.unregister(a1, now_ms=40 * MIN_MS)
        assert len(journal_path.read_text().splitlines()) == 5
        service.register(a2, USER2, now_ms=40 * MIN_MS)
        assert len(journal_path.read_text().splitlines()) == 1
        service._journal_sink.close()
        assert restart(lot, journal_path).snapshot() == service.snapshot()

    def test_stale_temp_file_does_not_change_the_restart(self, tmp_path):
        lot_path, lot = write_lot_of(tmp_path, 3)
        journal_path = tmp_path / "lot.journal"
        service = pk.service_from_files(lot_path, journal_path)
        for i in (1, 2, 3):
            service.register(SpotId.parse(f"A{i}"), USER, now_ms=i * MIN_MS)
        service.unregister(SpotId.parse("A2"), now_ms=9 * MIN_MS)
        service._journal_sink.close()
        tmp = tmp_path / "lot.journal.tmp"
        tmp.write_text('{"op": "snapshot", "sessions": 0, "spots": []}\n{"op": "regis')

        restored = pk.service_from_files(lot_path, journal_path)
        assert restored.snapshot() == service.snapshot()
        for _ in range(2):  # compacts over the stale file
            restored.register(SpotId.parse("A2"), USER2, now_ms=10 * MIN_MS)
            restored.unregister(SpotId.parse("A2"), now_ms=20 * MIN_MS)
        restored._journal_sink.close()
        assert not tmp.exists()
        assert restart(lot, journal_path).snapshot() == restored.snapshot()


class TestLinearizability:
    def test_exactly_one_concurrent_registration_wins(self):
        for trial in range(20):
            service = make_service(1)
            barrier = threading.Barrier(4)
            outcomes = []
            lock = threading.Lock()

            def attempt(user):
                barrier.wait()
                try:
                    service.register(SpotId.parse("A1"), user, now_ms=0)
                    result = "ok"
                except pk.SpotTakenError:
                    result = "taken"
                with lock:
                    outcomes.append(result)

            threads = [
                threading.Thread(target=attempt, args=(pk.UserProfile(f"u{i}", "P", "t"),))
                for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert sorted(outcomes) == ["ok", "taken", "taken", "taken"]
