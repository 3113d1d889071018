"""The parking service as a benchmark workload (parking_lot).

`beaconpark serve --clock simulated` runs on a lot of 320 spots written
from the seed: two lots of 160, a rate per spot, UID instances derived
from the spot id (one spot in ten has an explicit random instance), and
registration URLs that use the Eddystone-URL expansion codes.

Load: one client (this process), closed loop over two connections, one
request in flight on each. Each connection works its own half of the
spots, so every reply but the session ids and the other half's states in
LIST is determined; a model of the lot predicts each reply. A round is:

* phase A, both connections at once: REGISTER of the connection's own
  overstay spot with a time limit, then a shuffled, fixed mix of STATUS,
  RESOLVE (UID, URL, unknown UID and TLM frames), LIST and write slots.
  A write slot picks one of the connection's spots and does what its
  state allows: REGISTER (3% DECLINE cards, 3% CHARGEFAIL cards),
  UNREGISTER, or SETTLE for a spot left Illegal by a failed charge;
* TICK past the overstay limit, sent while nothing else is in flight;
* phase B: STATUS and UNREGISTER of each overstay spot. The expected
  replies are what `ParkingService.expire_overstays` leaves (Available,
  then ERR NOTREG); `serve` never calls it, so these four replies differ
  and count as failed operations, four in every round.

Set-up is timed from spawning serve on an empty journal to its first
correct reply. After the first HISTORY_ROUNDS rounds the journal is
copied; from then on each slot plays SLICE_S of rounds, then takes one
set-up sample (a spare server on an empty journal) and one restart
sample (serve on a fresh copy of that journal, timed to a LIST equal to
the model at that point). The restart journal has a fixed length, so the
restart time does not depend on how fast the run was. At the end serve
is restarted once on the whole journal: LIST must equal the model and
the next session id must continue the numbering.
"""

from __future__ import annotations

import copy
import json
import os
import random
import re
import select
import shutil
import signal
import socket
import subprocess
import time
from dataclasses import dataclass

import common
import oracles

LOTS = ("A", "B")
SPOTS_PER_LOT = 160
RATES = (100, 120, 150, 200, 240, 300, 400)
TX_POWER_DBM = -20
URL_SCHEMES = ("https://", "http://www.")
URL_EXPANSIONS = (".com/", ".org/", ".net/")

# Phase A of one round, per connection, after the overstay REGISTER.
MIX = {"status": 640, "uid": 240, "url": 160, "unknown": 16, "list": 4, "write": 540}
DECLINE_SHARE = 0.03
CHARGEFAIL_SHARE = 0.03
OVERSTAY_FAILURES_PER_ROUND = 4
HISTORY_ROUNDS = 24
SLICE_S = 2.0
REPLY_TIMEOUT_S = 30.0

READ, WRITE, TICK = 0, 1, 2
SID, LIST, OVERSTAY = "sid", "list", "overstay"


@dataclass
class Spot:
    lot: str
    number: int
    rate: int
    scheme: str
    url: str
    body: bytes  # the URL frame's encoded body
    instance: bytes
    explicit_instance: bool
    owner: int = 0  # the connection that works this spot

    @property
    def name(self) -> str:
        return f"{self.lot}{self.number}"


class Lot:
    """The generated lot: its config file, frames and which connection owns each spot."""

    def __init__(self, seed: int):
        rng = random.Random(f"parking-lot-{seed}")
        self.namespaces = {lot: rng.randbytes(10) for lot in LOTS}
        spots = []
        for lot in LOTS:
            for number in range(1, SPOTS_PER_LOT + 1):
                scheme = rng.choice(URL_SCHEMES)
                expansion = rng.choice(URL_EXPANSIONS)
                path = f"{lot}{number}"
                url = f"{scheme}park{expansion}{path}"
                body = b"park" + bytes([oracles.URL_EXPANSION_CODES[expansion]]) + path.encode()
                explicit = rng.random() < 0.1
                instance = (
                    bytes([0x80 | rng.randrange(128)]) + rng.randbytes(5)
                    if explicit
                    else oracles.uid_instance(lot, number)
                )
                spots.append(
                    Spot(lot, number, rng.choice(RATES), scheme, url, body, instance, explicit)
                )
        rng.shuffle(spots)  # config order is the order resolve_beacon scans
        for i, spot in enumerate(spots):
            spot.owner = i % 2
        self.spots = spots
        self.by_name = {s.name: s for s in spots}
        self.sorted_names = [s.name for s in sorted(spots, key=lambda s: (s.lot, s.number))]
        self.overstay = [next(s for s in spots if s.owner == c) for c in (0, 1)]
        self.regular = [
            [s for s in spots if s.owner == c and s is not self.overstay[c]] for c in (0, 1)
        ]
        self.owned = [[s for s in spots if s.owner == c] for c in (0, 1)]
        self.unknown_frames = [
            oracles.uid_frame(TX_POWER_DBM, rng.randbytes(10), rng.randbytes(6)) for _ in range(8)
        ] + [oracles.tlm_frame(2900 + i, 21.5, 1000 * i, 36000 + i) for i in range(8)]

    def config(self) -> dict:
        entries = []
        for s in self.spots:
            entry = {
                "id": s.name,
                "namespace": self.namespaces[s.lot].hex(),
                "url": s.url,
                "rate_cents_per_hour": s.rate,
            }
            if s.explicit_instance:
                entry["instance"] = s.instance.hex()
            entries.append(entry)
        return {"spots": entries}

    def uid_hex(self, spot: Spot) -> str:
        return oracles.uid_frame(TX_POWER_DBM, self.namespaces[spot.lot], spot.instance).hex()

    def url_hex(self, spot: Spot) -> str:
        return oracles.url_frame(TX_POWER_DBM, spot.scheme, spot.body).hex()


class Model:
    """What the lot should look like: spot states, open sessions and the clock."""

    def __init__(self, lot: Lot):
        self.lot = lot
        self.state = {s.name: "Available" for s in lot.spots}
        self.start_ms: dict[str, int] = {}
        self.card: dict[str, str] = {}
        self.clock_ms = 0
        self.sessions = 0
        self.users = 0

    def list_reply(self) -> bytes:
        entries = ";".join(
            f"{n}:{self.state[n]}:{self.lot.by_name[n].rate}" for n in self.lot.sorted_names
        )
        return f"OK {entries}".encode()

    def cost(self, name: str) -> int:
        return oracles.parking_cost_cents(
            self.lot.by_name[name].rate, self.clock_ms - self.start_ms[name]
        )

    def register(self, spot: Spot, card: str, max_minutes: int | None = None):
        self.users += 1
        line = f"REGISTER {spot.name} u{self.users} P{self.users:05d} {card}"
        if max_minutes is not None:
            line += f" {max_minutes}"
        if card == "DECLINE":
            return line, WRITE, b"ERR CARD"
        self.state[spot.name] = "Occupied"
        self.start_ms[spot.name] = self.clock_ms
        self.card[spot.name] = card
        return line, WRITE, (SID,)

    def unregister(self, spot: Spot):
        cost = self.cost(spot.name)
        if self.card[spot.name] == "CHARGEFAIL":
            self.state[spot.name] = "Illegal"
            return f"UNREGISTER {spot.name}", WRITE, b"ERR CHARGE"
        self.state[spot.name] = "Available"
        return f"UNREGISTER {spot.name}", WRITE, f"OK {cost}".encode()


def plan_phase_a(model: Model, conn: int, rng: random.Random, overstay_minutes: int):
    """Requests of one connection in phase A, each with its expected reply."""
    lot = model.lot
    ops = [model.register(lot.overstay[conn], f"card{conn}", overstay_minutes)]
    kinds = [kind for kind, n in MIX.items() for _ in range(n)]
    rng.shuffle(kinds)
    for kind in kinds:
        if kind == "status":
            spot = rng.choice(lot.owned[conn])
            ops.append(
                (f"STATUS {spot.name}", READ, f"OK {model.state[spot.name]} {spot.rate}".encode())
            )
        elif kind in ("uid", "url"):
            spot = rng.choice(lot.spots)
            frame = lot.uid_hex(spot) if kind == "uid" else lot.url_hex(spot)
            ops.append((f"RESOLVE {frame}", READ, f"OK {spot.name} {spot.url}".encode()))
        elif kind == "unknown":
            ops.append((f"RESOLVE {rng.choice(lot.unknown_frames).hex()}", READ, b"ERR UNKNOWN"))
        elif kind == "list":
            own = {s.name: model.state[s.name] for s in lot.owned[conn]}
            ops.append(("LIST", READ, (LIST, own)))
        else:
            spot = rng.choice(lot.regular[conn])
            state = model.state[spot.name]
            if state == "Available":
                r = rng.random()
                card = (
                    "DECLINE"
                    if r < DECLINE_SHARE
                    else "CHARGEFAIL"
                    if r < DECLINE_SHARE + CHARGEFAIL_SHARE
                    else f"card{model.users % 97}"
                )
                ops.append(model.register(spot, card))
            elif state == "Occupied":
                ops.append(model.unregister(spot))
            else:
                model.state[spot.name] = "Available"
                ops.append((f"SETTLE {spot.name}", WRITE, b"OK"))
    return ops


def plan_phase_b(model: Model, conn: int):
    """Overstay checks after the TICK: expected (limit enforced) and today's reply."""
    spot = model.lot.overstay[conn]
    faulty_cost = model.cost(spot.name)
    model.state[spot.name] = "Available"
    return [
        (
            f"STATUS {spot.name}",
            READ,
            (OVERSTAY, f"OK Available {spot.rate}".encode(), f"OK Occupied {spot.rate}".encode()),
        ),
        (f"UNREGISTER {spot.name}", WRITE, (OVERSTAY, b"ERR NOTREG", f"OK {faulty_cost}".encode())),
    ]


def run_phase(socks, plans):
    """Send each connection's requests one at a time; returns (replies, latencies in ns)."""
    lines = [[(op[0] + "\n").encode() for op in plan] for plan in plans]
    replies = [[b""] * len(p) for p in plans]
    lat_ns = [[0] * len(p) for p in plans]
    poller = select.poll()
    conn_of = {}
    next_op = [0] * len(plans)
    sent_at = [0] * len(plans)
    bufs = [b""] * len(plans)
    for c, sock in enumerate(socks):
        if lines[c]:
            conn_of[sock.fileno()] = c
            poller.register(sock, select.POLLIN)
            sent_at[c] = time.perf_counter_ns()
            sock.sendall(lines[c][0])
    pending = len(conn_of)
    while pending:
        events = poller.poll(REPLY_TIMEOUT_S * 1000)
        if not events:
            raise common.BenchError("the server stopped answering")
        for fd, _ in events:
            c = conn_of[fd]
            data = socks[c].recv(1 << 16)
            if not data:
                raise common.BenchError("the server closed a connection")
            buf = bufs[c] + data
            if buf[-1:] != b"\n":
                bufs[c] = buf
                continue
            now = time.perf_counter_ns()
            bufs[c] = b""
            i = next_op[c]
            replies[c][i] = buf[:-1]
            lat_ns[c][i] = now - sent_at[c]
            i += 1
            next_op[c] = i
            if i < len(lines[c]):
                sent_at[c] = time.perf_counter_ns()
                socks[c].sendall(lines[c][i])
            else:
                poller.unregister(fd)
                pending -= 1
    return replies, lat_ns


_SID_RE = re.compile(rb"OK S(\d+)")


def check_list(reply: bytes, lot: Lot, own: dict) -> str | None:
    """LIST must name every spot in id order with its rate; `own` states must match."""
    if not reply.startswith(b"OK "):
        return f"LIST failed: {reply[:80]!r}"
    entries = reply[3:].decode().split(";")
    if len(entries) != len(lot.sorted_names):
        return f"LIST has {len(entries)} spots, expected {len(lot.sorted_names)}"
    for entry, name in zip(entries, lot.sorted_names):
        spot_name, state, rate = (entry.split(":") + ["", ""])[:3]
        if spot_name != name or rate != str(lot.by_name[name].rate):
            return f"LIST entry {entry!r}, expected {name} at {lot.by_name[name].rate}"
        expected = own.get(name)
        if expected is not None and state != expected:
            return f"LIST says {name} is {state}, expected {expected}"
        if state not in ("Available", "Occupied", "Illegal"):
            return f"LIST gives {name} the state {state!r}"
    return None


def verify(plans, replies, model: Model, problems: list) -> int:
    """Compare replies with the plan; returns the number of failed overstay checks.

    The session ids handed out in a phase must be exactly the next ones."""
    failed = 0
    sids = []
    for plan, got in zip(plans, replies):
        for (line, _, expected), reply in zip(plan, got):
            error = None
            if isinstance(expected, bytes):
                if reply != expected:
                    error = f"got {reply[:80]!r}, expected {expected!r}"
            elif expected[0] == SID:
                m = _SID_RE.fullmatch(reply)
                if m is None:
                    error = f"got {reply[:80]!r}, expected a session id"
                else:
                    sids.append(int(m.group(1)))
            elif expected[0] == LIST:
                error = check_list(reply, model.lot, expected[1])
            elif reply == expected[2]:
                failed += 1
            elif reply != expected[1]:
                error = f"got {reply[:80]!r}, expected {expected[1]!r} or {expected[2]!r}"
            if error and len(problems) < 20:
                problems.append(f"{line[:40]}: {error}")
    if sorted(sids) != list(range(model.sessions + 1, model.sessions + len(sids) + 1)):
        problems.append(f"session ids {sorted(sids)[:5]}... do not continue from S{model.sessions}")
    model.sessions += len(sids)
    return failed


def play_round(socks, model: Model, rng: random.Random, problems: list) -> dict:
    minutes = rng.randint(1, 30)
    tick_s = rng.randint(60 * minutes + 1, 60 * minutes + 3600)
    phase_a = [plan_phase_a(model, c, rng, minutes) for c in (0, 1)]
    t0 = time.perf_counter_ns()
    replies_a, lat_a = run_phase(socks, phase_a)
    failed = verify(phase_a, replies_a, model, problems)
    tick = [(f"TICK {tick_s}", TICK, b"OK")]
    replies_t, _ = run_phase(socks, [tick, []])
    model.clock_ms += tick_s * 1000
    failed += verify([tick], replies_t[:1], model, problems)
    phase_b = [plan_phase_b(model, c) for c in (0, 1)]
    replies_b, lat_b = run_phase(socks, phase_b)
    elapsed_ns = time.perf_counter_ns() - t0
    failed += verify(phase_b, replies_b, model, problems)
    reads, writes = [], []
    for plans, lats in ((phase_a, lat_a), (phase_b, lat_b)):
        for plan, lat in zip(plans, lats):
            for op, ns in zip(plan, lat):
                (reads if op[1] == READ else writes).append(ns)
    requests = sum(len(p) for p in phase_a + phase_b) + 1
    reads.sort()
    writes.sort()
    return {
        "requests": requests,
        "failed": failed,
        "req_per_s": requests / (elapsed_ns / 1e9),
        "read_p50_ms": common.percentile(reads, 50) / 1e6,
        "read_p99_ms": common.percentile(reads, 99) / 1e6,
        "write_p50_ms": common.percentile(writes, 50) / 1e6,
        "write_p99_ms": common.percentile(writes, 99) / 1e6,
    }


class Server:
    """One `serve` process on 127.0.0.1 with an OS-chosen port."""

    def __init__(self, out: str, lot_path: str, journal: str, summary: str | None):
        self.summary = summary
        argv = common.program(summary) + [
            "--out-dir", out, "serve", "--lot", lot_path, "--bind", "127.0.0.1:0",
            "--clock", "simulated", "--journal", journal,
        ]
        self.log = open(os.path.join(out, "stderr.log"), "ab")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=common.ROOT, env=common.child_env(), stdout=subprocess.PIPE, stderr=self.log
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], common.CHILD_TIMEOUT_S)
        line = self.proc.stdout.readline().decode() if ready else ""
        self.listening_s = time.perf_counter() - self.t0
        m = re.search(r"serving on ([\d.]+):(\d+)", line)
        if m is None:
            self.proc.kill()
            common.reap(self.proc)
            raise common.BenchError(f"serve did not start (printed {line!r}); see {out}")
        self.address = (m.group(1), int(m.group(2)))

    def connect(self) -> socket.socket:
        sock = socket.create_connection(self.address, timeout=REPLY_TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def first_reply(self, line: str, expected: bytes) -> float:
        """Seconds from spawn to a reply equal to `expected` on a new connection."""
        with self.connect() as sock:
            replies, _ = run_phase([sock], [[(line, READ, expected)]])
        if replies[0][0] != expected:
            raise common.BenchError(f"{line!r} got {replies[0][0][:80]!r} after start")
        return time.perf_counter() - self.t0

    def stop(self) -> float:
        """SIGINT (serve's clean shutdown); returns the peak RSS in MB."""
        os.kill(self.proc.pid, signal.SIGINT)  # the child is not reaped yet, so its pid is ours
        code, rss_mb = common.reap(self.proc)
        self.proc.stdout.close()
        self.log.close()
        if code != 0:
            raise common.BenchError(f"serve exited with {code}")
        return rss_mb

    def trace(self) -> dict:
        with open(self.summary) as fh:
            return json.load(fh)


def _restart(out, lot_path, lot, journal, model, summary, check_numbering, problems):
    """Start serve on `journal`; returns (spawn-to-correct-LIST seconds, trace summary)."""
    server = Server(out, lot_path, journal, summary)
    try:
        seconds = server.first_reply("LIST", model.list_reply())
        if check_numbering:
            spot = next(n for n in lot.sorted_names if model.state[n] == "Available")
            with server.connect() as sock:
                replies, _ = run_phase([sock], [[(f"REGISTER {spot} ux PX cardx", WRITE, b"")]])
            if replies[0][0] != f"OK S{model.sessions + 1}".encode():
                problems.append(
                    f"after restart REGISTER got {replies[0][0]!r}, expected S{model.sessions + 1}"
                )
    finally:
        server.stop()
    return seconds, (server.trace() if summary else None)


def run(seed: int, seconds: float, trace: bool) -> dict:
    out = common.run_dir("parking_lot")
    log = os.path.join(out, "stderr.log")
    lot = Lot(seed)
    lot_path = os.path.join(out, "lot.json")
    with open(lot_path, "w") as fh:
        json.dump(lot.config(), fh, indent=1)
    summary = (lambda name: os.path.join(out, f"trace-{name}.json")) if trace else (lambda _: None)
    probe = lot.spots[0]
    probe_line, probe_reply = f"STATUS {probe.name}", f"OK Available {probe.rate}".encode()

    common.fresh_import_s(log)  # untimed: file cache and bytecode caches
    main_journal = os.path.join(out, "main.journal")
    server = Server(out, lot_path, main_journal, summary("main"))
    try:
        setup, listening, imports = [server.first_reply(probe_line, probe_reply)], [server.listening_s], []
    except common.BenchError:
        server.stop()
        raise

    model = Model(lot)
    rng = random.Random(f"parking-load-{seed}")
    problems: list[str] = []
    rounds, restarts, restart_traces = [], [], []
    history = os.path.join(out, "history.journal")
    socks = [server.connect() for _ in range(2)]
    try:
        play_round(socks, model, rng, problems)  # warm-up, not counted
        t_start = time.perf_counter()
        while len(rounds) < HISTORY_ROUNDS:
            rounds.append(play_round(socks, model, rng, problems))
        shutil.copyfile(main_journal, history)
        history_model = copy.deepcopy(model)
        # Each slot plays rounds for SLICE_S, then takes one set-up and one
        # restart sample, so that every median spans the whole run.
        for k in common.slots(seconds - (time.perf_counter() - t_start)):
            t_slice = time.perf_counter() + SLICE_S
            rounds.append(play_round(socks, model, rng, problems))
            while time.perf_counter() < t_slice:
                rounds.append(play_round(socks, model, rng, problems))
            if trace:
                imports.append(common.import_profile())
            spare = Server(out, lot_path, os.path.join(out, f"setup{k}.journal"), summary("setup"))
            try:
                setup.append(spare.first_reply(probe_line, probe_reply))
                listening.append(spare.listening_s)
            finally:
                spare.stop()
            journal = os.path.join(out, f"restart{k}.journal")
            shutil.copyfile(history, journal)
            took, tr = _restart(
                out, lot_path, lot, journal, history_model, summary(f"restart{k}"), k == 1, problems
            )
            restarts.append(took)
            restart_traces.append(tr)
    finally:
        for sock in socks:
            sock.close()
        peak_rss_mb = server.stop()
    main_trace = server.trace() if trace else None
    final = os.path.join(out, "final.journal")
    shutil.copyfile(main_journal, final)
    _restart(out, lot_path, lot, final, model, None, True, problems)
    with open(history) as fh:
        history_entries = sum(1 for _ in fh)

    attempted = sum(r["requests"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    client = {k: common.median(r[k] for r in rounds) for k in rounds[0] if k not in ("requests", "failed")}
    result = {"attempted": attempted, "failed": failed, "problems": problems, "out": out}
    if trace:
        layers = dict(main_trace)
        for key in ("parking.read_journal_s", "parking.replay_s", "parking.replay_entries"):
            layers[key] = common.median(t[key] for t in restart_traces)
        layers["server.startup_s"] = common.median(listening)
        layers["server.transport_us.read"] = (
            client["read_p50_ms"] * 1000 - main_trace["server.handle_command_us.read"]
        )
        layers["server.transport_us.write"] = (
            client["write_p50_ms"] * 1000 - main_trace["server.handle_command_us.write"]
        )
        for key, value in client.items():
            layers[f"client.{key}"] = value
        layers["trace.wall_s"] = common.median(restarts)
        layers["cli.import_s"] = common.median(t for t, _ in imports)
        layers["cli.import_scipy_s"] = common.median(s for _, s in imports)
        result["metrics"] = layers
    else:
        result["metrics"] = {
            "setup_s": common.median(setup),
            "wall_s": common.median(restarts),
            "throughput_per_s": client["req_per_s"],
            "peak_rss_mb": peak_rss_mb,
        }
    result["notes"] = [
        f"{k} {v:.6g} {'1/s' if k == 'req_per_s' else 'ms'} (median over rounds)"
        for k, v in client.items()
    ] + [
        f"restart_s {common.median(restarts):.6g} s (journal of {history_entries} entries)",
        f"{len(rounds)} rounds of {rounds[0]['requests']} requests, "
        f"{OVERSTAY_FAILURES_PER_ROUND} overstay checks failing per round",
    ]
    return result
