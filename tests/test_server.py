import json
import socket
import threading

import pytest

from beaconpark.eddystone import SpotId, UidFrame, encode_frame, uid_instance_for_spot
from beaconpark import parking as pk
from beaconpark.server import (
    MAX_LINE_BYTES,
    ParkingTCPServer,
    SimulatedClock,
    SystemClock,
    handle_command,
    parse_bind_address,
)


def make_service(n=2, journal=None, cls=pk.ParkingService):
    spots = [
        pk.Spot(
            id=SpotId.parse(f"A{i}"),
            namespace=bytes(10),
            instance=uid_instance_for_spot(SpotId.parse(f"A{i}")),
            url=f"https://park.example/A{i}",
            rate_cents_per_hour=200,
        )
        for i in range(1, n + 1)
    ]
    return cls(spots, journal_sink=journal)


class TestHandleCommand:
    def setup_method(self):
        self.service = make_service()
        self.clock = SimulatedClock()

    def run(self, line):
        return handle_command(self.service, self.clock, line)

    def test_list_fresh_lot(self):
        assert self.run("LIST") == "OK A1:Available:200;A2:Available:200"

    def test_status(self):
        assert self.run("STATUS A1") == "OK Available 200"
        self.run("REGISTER A1 u1 PLATE tok")
        assert self.run("STATUS A1") == "OK Occupied 200"

    def test_register_and_unregister_with_billing(self):
        assert self.run("REGISTER A1 u1 PLATE tok") == "OK S1"
        self.run("TICK 5400")  # 90 minutes
        assert self.run("UNREGISTER A1") == "OK 300"
        assert self.run("STATUS A1") == "OK Available 200"

    def test_unregister_reply_is_the_charge_outcome(self):
        class SettledAtOnce(pk.ParkingService):
            """Another connection's SETTLE lands before the UNREGISTER reply is built."""

            def unregister(self, spot_id, now_ms):
                session = super().unregister(spot_id, now_ms)
                self.settle(spot_id)
                return session

        self.service = make_service(cls=SettledAtOnce)
        self.run("REGISTER A1 u1 PLATE CHARGEFAIL")
        assert self.run("UNREGISTER A1") == "ERR CHARGE"
        assert self.run("STATUS A1") == "OK Available 200"

    def test_register_errors(self):
        self.run("REGISTER A1 u1 PLATE tok")
        assert self.run("REGISTER A1 u2 PLATE2 tok2") == "ERR TAKEN"
        assert self.run("REGISTER A2 u2 PLATE2 DECLINE") == "ERR CARD"
        assert self.run("REGISTER 9Z u1 PLATE tok") == "ERR BADCMD malformed arguments"
        assert self.run("REGISTER A9 u1 PLATE tok") == "ERR NOSPOT"

    def test_unregister_errors(self):
        assert self.run("UNREGISTER A1") == "ERR NOTREG"
        self.run("REGISTER A1 u1 PLATE CHARGEFAIL")
        self.run("TICK 60")
        assert self.run("UNREGISTER A1") == "ERR CHARGE"
        assert self.run("STATUS A1") == "OK Illegal 200"
        assert self.run("SETTLE A1") == "OK"
        assert self.run("STATUS A1") == "OK Available 200"

    def test_settle_requires_illegal(self):
        assert self.run("SETTLE A1") == "ERR STATE"

    def test_resolve(self):
        frame = UidFrame(bytes(10), uid_instance_for_spot(SpotId.parse("A2")), -65)
        hex_text = encode_frame(frame).hex()
        assert self.run(f"RESOLVE {hex_text}") == "OK A2 https://park.example/A2"
        assert self.run("RESOLVE 30ff") == "ERR UNKNOWN"
        unknown = UidFrame(b"\x01" * 10, uid_instance_for_spot(SpotId.parse("A2")), -65)
        assert self.run(f"RESOLVE {encode_frame(unknown).hex()}") == "ERR UNKNOWN"

    def test_register_with_max_minutes(self):
        assert self.run("REGISTER A1 u1 PLATE tok 60") == "OK S1"
        self.run("TICK 3660")  # 61 minutes
        assert self.run("STATUS A1") == "OK Available 200"
        assert self.run("UNREGISTER A1") == "ERR NOTREG"

    def test_negative_time_limit_is_refused(self):
        assert self.run("REGISTER A1 u1 PLATE tok -5").startswith("ERR BADCMD")
        assert self.run("STATUS A1") == "OK Available 200"
        assert self.run("TICK 60") == "OK"
        assert self.run("REGISTER A1 u1 PLATE tok 0") == "OK S1"

    @pytest.mark.parametrize("seconds", ["inf", "-inf", "nan"])
    def test_tick_must_be_finite(self, seconds):
        assert self.run(f"TICK {seconds}").startswith("ERR BADCMD")
        assert self.clock.now_ms() == 0
        assert self.run("TICK 1") == "OK"
        assert self.clock.now_ms() == 1000

    def test_tick_overflowing_to_infinite_ms_is_refused(self):
        # 1e306 s is finite, but 1e309 ms is not
        self.run("TICK 5")
        assert self.run("TICK 1e306") == "ERR BADCMD malformed arguments"
        assert self.clock.now_ms() == 5000

    def test_tick_needs_simulated_clock(self):
        service = make_service()
        assert handle_command(service, SystemClock(), "TICK 5").startswith("ERR CLOCK")

    def test_bad_commands(self):
        assert self.run("").startswith("ERR BADCMD")
        assert self.run("FLY A1").startswith("ERR BADCMD")
        assert self.run("STATUS").startswith("ERR BADCMD")
        assert self.run("TICK abc").startswith("ERR BADCMD")

    def test_session_ids_increment(self):
        assert self.run("REGISTER A1 u1 P tok") == "OK S1"
        assert self.run("REGISTER A2 u2 P tok") == "OK S2"


class StubClock:
    def __init__(self, now_ms=0):
        self.now = now_ms

    def now_ms(self) -> int:
        return self.now


def test_service_actions_expire_overstays():
    service = make_service()
    clock = StubClock()
    server = ParkingTCPServer(("127.0.0.1", 0), service, clock)
    try:
        a1 = SpotId.parse("A1")
        session = service.register(a1, pk.UserProfile("u1", "P", "tok"), clock.now_ms(), 60)
        clock.now = 60 * 60_000
        server.service_actions()
        assert service.get_spot(a1).state is pk.SpotState.OCCUPIED
        clock.now = 90 * 60_000
        server.service_actions()
        assert service.get_spot(a1).state is pk.SpotState.AVAILABLE
        assert session.end_ms == 60 * 60_000
        assert session.cost_cents == 200
    finally:
        server.server_close()


class LineClient:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=5)
        self.file = self.sock.makefile("rw", encoding="utf-8", newline="\n")

    def send(self, line: str) -> str:
        self.file.write(line + "\n")
        self.file.flush()
        return self.file.readline().rstrip("\n")

    def close(self):
        self.file.close()
        self.sock.close()


@pytest.fixture
def running_server():
    servers = []

    def start(service, clock=None):
        server = ParkingTCPServer(("127.0.0.1", 0), service, clock or SimulatedClock())
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append(server)
        return server.server_address[1]

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


class TestTCPServer:
    def test_full_session_over_a_socket(self, running_server):
        port = running_server(make_service())
        client = LineClient(port)
        assert client.send("LIST") == "OK A1:Available:200;A2:Available:200"
        assert client.send("REGISTER A1 u1 PLATE tok") == "OK S1"
        assert client.send("TICK 5400") == "OK"
        assert client.send("UNREGISTER A1") == "OK 300"
        client.close()

    def test_overflowing_tick_leaves_the_connection_serving(self, running_server):
        port = running_server(make_service())
        client = LineClient(port)
        assert client.send("TICK 1e306") == "ERR BADCMD malformed arguments"
        assert client.send("LIST") == "OK A1:Available:200;A2:Available:200"
        client.close()

    def test_concurrent_duplicate_registration(self, running_server):
        for _ in range(5):
            port = running_server(make_service())
            barrier = threading.Barrier(2)
            results = []
            lock = threading.Lock()

            def race(user):
                client = LineClient(port)
                barrier.wait()
                response = client.send(f"REGISTER A1 {user} P tok")
                with lock:
                    results.append(response)
                client.close()

            threads = [threading.Thread(target=race, args=(f"u{i}",)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert sorted(r.split()[0] for r in results) == ["ERR", "OK"]

    def test_restart_restores_state_from_journal(self, tmp_path, running_server):
        lot = {
            "spots": [
                {"id": "A1", "namespace": "00" * 10,
                 "url": "https://park.example/A1", "rate_cents_per_hour": 200},
                {"id": "A2", "namespace": "00" * 10,
                 "url": "https://park.example/A2", "rate_cents_per_hour": 200},
            ]
        }
        lot_path = tmp_path / "lot.json"
        lot_path.write_text(json.dumps(lot))
        journal_path = tmp_path / "parking.journal"

        service = pk.service_from_files(lot_path, journal_path)
        port = running_server(service)
        client = LineClient(port)
        assert client.send("REGISTER A2 u9 PLATE tok") == "OK S1"
        client.close()
        service._journal_sink.close()

        restored = pk.service_from_files(lot_path, journal_path)
        port2 = running_server(restored)
        client = LineClient(port2)
        assert client.send("LIST") == "OK A1:Available:200;A2:Occupied:200"
        client.close()
        restored._journal_sink.close()

    def test_non_utf8_line_gets_error_response(self, running_server):
        port = running_server(make_service())
        sock = socket.create_connection(("127.0.0.1", port), timeout=5)
        sock.sendall(b"\xff\xfe\n")
        response = sock.makefile("r", encoding="utf-8").readline()
        assert response.startswith("ERR BADCMD")
        sock.close()

    def test_overlong_line_is_refused_and_closes_the_connection(self, running_server):
        port = running_server(make_service())
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.sendall(b"STATUS " + b"A" * (64 * 1024) + b"\n")
            reader = sock.makefile("rb")
            assert reader.readline() == b"ERR BADCMD line too long\n"
            assert reader.read() == b""  # EOF: the server closed the connection
            reader.close()
        client = LineClient(port)
        assert client.send("STATUS A1") == "OK Available 200"
        client.close()

    def test_line_of_the_longest_allowed_length_is_served(self, running_server):
        port = running_server(make_service())
        client = LineClient(port)
        line = "STATUS A1 " + "x" * (MAX_LINE_BYTES - len("STATUS A1 ") - 1)
        assert client.send(line) == "ERR BADCMD malformed arguments"
        assert client.send("STATUS A1") == "OK Available 200"
        client.close()


class TestBindAddress:
    def test_host_and_port(self):
        assert parse_bind_address("0.0.0.0:7810") == ("0.0.0.0", 7810)

    def test_default_host(self):
        assert parse_bind_address(":9000") == ("127.0.0.1", 9000)

    def test_missing_port_rejected(self):
        with pytest.raises(ValueError):
            parse_bind_address("localhost")

    @pytest.mark.parametrize(
        "text", ["h:65536", "h:-1", "h:abc", "h:", "h: 80", "h:+80", "h:8_0", "h:٣"]
    )
    def test_port_outside_0_to_65535_is_refused_naming_the_text(self, text):
        with pytest.raises(ValueError) as refused:
            parse_bind_address(text)
        assert str(refused.value) == f"bind port must be an integer in 0-65535, got {text!r}"
        assert parse_bind_address("h:65535") == ("h", 65535)
