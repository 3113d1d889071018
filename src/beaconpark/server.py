"""TCP line protocol in front of the parking service.

One command per line; every response line starts with `OK` or
`ERR <code>`:

    LIST                                          -> OK A1:Available:200;A2:Occupied:200
    STATUS <spot>                                 -> OK <state> <rate>
    REGISTER <spot> <user> <plate> <card> [max]   -> OK <session_id> | ERR TAKEN | ERR CARD
    UNREGISTER <spot>                             -> OK <cost_cents> | ERR NOTREG | ERR CHARGE
    RESOLVE <hex-frame>                           -> OK <spot> <url> | ERR UNKNOWN
    SETTLE <spot>                                 -> OK | ERR STATE
    TICK <seconds>                                -> OK (simulated clock only)

Sessions past the time limit that REGISTER took are closed as they
expire: after every TICK, and on every poll of the serve loop.

Handlers may be concurrent; the service serializes the actual commands,
so the registry observes one total command order.
"""

from __future__ import annotations

import socketserver
import time

from .eddystone import FrameDecodeError, SpotIdError, SpotId, decode_frame
from .parking import (
    CardDeclinedError,
    NotIllegalError,
    NotRegisteredError,
    ParkingService,
    SpotTakenError,
    UnknownBeaconError,
    UnknownSpotError,
    UserProfile,
)


class SystemClock:
    def now_ms(self) -> int:
        return int(time.time() * 1000)


class SimulatedClock:
    """Starts at zero and only moves when told to (TICK command)."""

    def __init__(self, start_ms: int = 0):
        self._now_ms = start_ms

    def now_ms(self) -> int:
        return self._now_ms

    def advance_seconds(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("clock cannot run backwards")
        self._now_ms += int(seconds * 1000)


def handle_command(service: ParkingService, clock, line: str) -> str:
    """Execute one protocol line and build the response line."""
    parts = line.strip().split()
    if not parts:
        return "ERR BADCMD empty command"
    cmd = parts[0].upper()
    args = parts[1:]
    try:
        if cmd == "LIST":
            entries = ";".join(
                f"{spot_id}:{state.value}:{rate}"
                for spot_id, state, rate in service.list_spots()
            )
            return f"OK {entries}"
        if cmd == "STATUS":
            (spot_text,) = args
            spot = service.get_spot(SpotId.parse(spot_text))
            return f"OK {spot.state.value} {spot.rate_cents_per_hour}"
        if cmd == "REGISTER":
            if len(args) not in (4, 5):
                return "ERR BADCMD REGISTER <spot> <user_id> <plate> <card> [max_minutes]"
            spot_id = SpotId.parse(args[0])
            user = UserProfile(user_id=args[1], vehicle_plate=args[2], card_token=args[3])
            max_minutes = int(args[4]) if len(args) == 5 else None
            session = service.register(spot_id, user, clock.now_ms(), max_minutes)
            return f"OK {session.session_id}"
        if cmd == "UNREGISTER":
            (spot_text,) = args
            session = service.unregister(SpotId.parse(spot_text), clock.now_ms())
            if not session.charged:
                return "ERR CHARGE"
            return f"OK {session.cost_cents}"
        if cmd == "RESOLVE":
            (hex_text,) = args
            frame = decode_frame(bytes.fromhex(hex_text))
            spot_id, url = service.resolve_beacon(frame)
            return f"OK {spot_id} {url}"
        if cmd == "SETTLE":
            (spot_text,) = args
            service.settle(SpotId.parse(spot_text))
            return "OK"
        if cmd == "TICK":
            if not isinstance(clock, SimulatedClock):
                return "ERR CLOCK TICK needs --clock simulated"
            (seconds_text,) = args
            clock.advance_seconds(float(seconds_text))
            service.expire_overstays(clock.now_ms())
            return "OK"
        return f"ERR BADCMD unknown command {cmd}"
    except SpotTakenError:
        return "ERR TAKEN"
    except CardDeclinedError:
        return "ERR CARD"
    except NotRegisteredError:
        return "ERR NOTREG"
    except NotIllegalError:
        return "ERR STATE"
    except UnknownSpotError:
        return "ERR NOSPOT"
    except (UnknownBeaconError, FrameDecodeError):
        return "ERR UNKNOWN"
    except (SpotIdError, ValueError):
        return "ERR BADCMD malformed arguments"


class _LineHandler(socketserver.StreamRequestHandler):
    def handle(self):
        for raw in self.rfile:
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError:
                self._reply("ERR BADCMD not utf-8")
                continue
            self._reply(handle_command(self.server.service, self.server.clock, line))

    def _reply(self, response: str) -> None:
        self.wfile.write((response + "\n").encode("utf-8"))
        self.wfile.flush()


class ParkingTCPServer(socketserver.ThreadingTCPServer):
    """Threaded line-protocol server bound to one parking service."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: ParkingService, clock=None):
        super().__init__(address, _LineHandler)
        self.service = service
        self.clock = clock or SystemClock()

    def service_actions(self) -> None:
        """Called by serve_forever on every poll: close overstayed sessions."""
        self.service.expire_overstays(self.clock.now_ms())


def parse_bind_address(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep:
        raise ValueError(f"bind address must be host:port, got {text!r}")
    return host or "127.0.0.1", int(port)
