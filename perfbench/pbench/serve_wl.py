"""``serve``: an open loop of seeded Poisson arrivals against a daemon.

The daemon is ``python -m repro.service serve`` in its own process with
default settings and a fresh artifact store that set-up fills with the
21 suite modules. One generator process (this one) sends requests on at
most ``nproc`` connections (two at most) under a few tenant names. The
mix is about 70% detect of an unchanged suite module (store and parse
cache), 20% detect of a freshly edited module (one function re-solved
and written to the store) and 10% ``plan`` requests built from the
dominant programs' recorded sites and events (placement compute).

A run holds the light rate for its measuring time, then the heavy rate
for a fixed number of requests; their p50 and p95, timed from each
request's due time, are per-layer figures. Last, the connections send
back to back (closed loop): the completed requests per second are the
service's saturation throughput, the highest rate it sustains on those
connections, and the p50 and p95 of that phase's request latencies are
the end-to-end latencies. Under the open loop the daemon idles between
requests, and its latency then swings with the host's scheduling of idle
CPUs (by about 20% between runs, even with the CPUs kept awake), which
no calibration follows; with the daemon busy, latency follows the machine's
speed, which calibration removes. Times and rates are calibrated to a
nominal machine speed (see :mod:`.speed`).

Oracles (checked after timing): every detect report's
``report_wire_fingerprint`` equals that of a local detection of the same
text, and every plan response assigns every call site of its request.
Warmth invariants: each edited module re-solves exactly one function,
and every run starts from the same freshly filled store.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import random
import re
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from . import metrics
from .common import WORK, Outcome, peak_rss_mb, program_env, timed_setups
from .speed import NOMINAL_S, probe
from .stats import due_latencies, median, min_samples, percentile
from .trace import Tracer, span_sum_check

TENANTS = ("tenant-a", "tenant-b", "tenant-c")
#: Request mix: (kind, share).
MIX = (("hit", 0.70), ("edit", 0.20), ("plan", 0.10))
#: Constant planted in the dead instruction of an edit template; each
#: edited request replaces it with a number unique within the run.
SENTINEL = 7654321
#: How often the generator's main thread probes the machine's speed
#: while requests are in flight.
PROBE_INTERVAL_S = 0.1
#: Requests per calibration window (the fewest that support p95).
WINDOW = min_samples(metrics.LATENCY_PERCENTILE)
#: Windows the light phase holds at least.
LIGHT_WINDOWS = 3
#: Set-ups timed per run (setup_s is their median). Most of a set-up
#: runs in child processes (the import and the daemon), which the
#: benchmark's probes calibrate less closely than work of its own, so it
#: takes more set-ups than the other workloads for a steady median.
SETUP_REPEATS = 7
#: Idle time between phases, so one phase's queue never leaks into the
#: next.
PHASE_GAP_S = 0.25


def connections() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def light_requests(seconds: float) -> int:
    """Requests at the light rate: ``seconds`` of them, and at least
    :data:`LIGHT_WINDOWS` windows."""
    return max(LIGHT_WINDOWS * WINDOW,
               math.ceil(seconds * metrics.LIGHT_RATE))


def phase_latencies(records, probes) -> list[float]:
    """Calibrated latencies of a phase, each window of
    :data:`WINDOW` requests at its own speed factor, so the calibration
    follows the machine's drift through the phase."""
    return [x for i in range(0, len(records), WINDOW)
            for x in latencies(records[i:i + WINDOW], probes)]


# -- inputs -------------------------------------------------------------------

@dataclass
class Inputs:
    texts: list          # suite module IR texts
    templates: list      # [(module index, function name, template text)]
    plans: list          # [(encoded PlacementRequest, call-site ids)]


def _template(text: str, function_name: str) -> str:
    from repro.ir.instructions import BinaryOperator
    from repro.ir.parser import parse_module
    from repro.ir.printer import print_module
    from repro.ir.values import const_int

    module = parse_module(text)
    function = module.functions[function_name]
    dead = BinaryOperator("add", const_int(0), const_int(SENTINEL))
    dead.name = function.unique_name("edit")
    function.blocks[0].insert(0, dead)
    out = print_module(module)
    if out.count(str(SENTINEL)) != 1:
        raise RuntimeError(f"edit sentinel not unique in {function_name}")
    return out


def prepare_inputs() -> Inputs:
    from repro.backends.api import ApiRuntime
    from repro.experiments.harness import LAZY_BENCHMARKS
    from repro.frontend import compile_c
    from repro.idioms import IdiomDetector
    from repro.ir.printer import print_module
    from repro.passes import optimize
    from repro.platform.placement import PlacementRequest
    from repro.runtime.jit import JitVirtualMachine
    from repro.runtime.profile import CodeCache
    from repro.service.wire import encode_plan_request
    from repro.transform.replace import Transformer
    from repro.workloads import all_workloads

    from .oracle import bind

    detector = IdiomDetector().warmup()
    texts, templates, plans = [], [], []
    for workload in all_workloads():
        module = optimize(compile_c(workload.source, workload.name))
        text = print_module(module)
        index = len(texts)
        texts.append(text)
        for function in module.functions.values():
            if not function.is_declaration():
                templates.append((index, function.name,
                                  _template(text, function.name)))
        if not workload.dominant:
            continue
        runtime = ApiRuntime()
        Transformer(module, runtime).apply(
            list(detector.detect(module).matches))
        engine = JitVirtualMachine(module, api_runtime=runtime,
                                   code_cache=CodeCache())
        args, _ = bind(module, workload.entry,
                       workload.make_inputs(metrics.SCALE))
        engine.call(workload.entry, args)
        request = PlacementRequest(
            runtime.all_sites(), list(runtime.events),
            scale=workload.paper_scale,
            greedy_lazy=workload.name in LAZY_BENCHMARKS,
            label=workload.name)
        plans.append((encode_plan_request(request),
                      sorted(str(s.call_id) for s in request.call_sites())))
    return Inputs(texts, templates, plans)


# -- the daemon ---------------------------------------------------------------

class Daemon:
    """A daemon process with its own fresh store directory."""

    def __init__(self, tag: str):
        base = WORK / "serve"
        base.mkdir(parents=True, exist_ok=True)
        self.store = base / f"store-{os.getpid()}-{tag}"
        shutil.rmtree(self.store, ignore_errors=True)
        self.log = open(base / f"daemon-{os.getpid()}-{tag}.log", "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve",
             "--host", "127.0.0.1", "--port", "0",
             "--cache-dir", str(self.store)],
            env=program_env(), stdout=subprocess.PIPE, stderr=self.log,
            text=True)
        watchdog = threading.Timer(60.0, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        found = re.search(r" on ([\d.]+):(\d+) ", line)
        if not found:
            self.close()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.ready_s = time.perf_counter() - t0
        self.host, self.port = found.group(1), int(found.group(2))
        self.fill_s = 0.0
        self.fill_responses: list = []

    def client(self):
        from repro.service.daemon import ServiceClient

        return ServiceClient(self.host, self.port, timeout=60.0,
                             max_retries=0, reconnect=False)

    def close(self) -> None:
        """Shut the daemon down and wait for it; kill it if it does not
        go within ten seconds."""
        if self.proc.poll() is None:
            try:
                with self.client() as client:
                    client.shutdown()
                self.proc.wait(timeout=10)
            except Exception:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        shutil.rmtree(self.store, ignore_errors=True)


def _setup(clock, inputs: Inputs, tags):
    daemon = Daemon(next(tags))
    clock.lap()
    try:
        with daemon.client() as client:
            for text in inputs.texts:
                t0 = time.perf_counter()
                daemon.fill_responses.append(
                    client.detect(text, tenant="fill"))
                daemon.fill_s += time.perf_counter() - t0
                clock.lap()
        stats = _stats(daemon)
    except BaseException:
        daemon.close()
        raise
    return daemon, {"daemon_ready.s": daemon.ready_s,
                    "store_fill.s": daemon.fill_s,
                    "warmup.s": stats["warmup_s"]}


def _stats(daemon: Daemon) -> dict:
    with daemon.client() as client:
        return client.stats()


# -- the generator ------------------------------------------------------------

#: A process that keeps one CPU busy at the lowest priority.
_SPIN = ("import os\n"
         "try:\n"
         "    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
         "except (AttributeError, OSError):\n"
         "    os.nice(19)\n"
         "while True:\n"
         "    pass\n")


@contextlib.contextmanager
def cpus_awake():
    """Keep every CPU out of its idle state while open-loop requests are
    in flight, with one lowest-priority spinning process per CPU, which
    any runnable thread of the daemon or the generator preempts at once.

    At the light rate the daemon idles between requests, and on a
    virtual machine waking an idle CPU costs the host's scheduling
    latency. On a shared host that cost doubled the light-rate p50 from
    one run to the next, swamping the daemon's own latency; latency
    benchmarks keep CPUs out of deep idle states for the same reason."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    spinners = [subprocess.Popen([sys.executable, "-c", _SPIN])
                for _ in range(cpus)]
    try:
        yield
    finally:
        for spinner in spinners:
            spinner.kill()
        for spinner in spinners:
            spinner.wait()


@dataclass
class Request:
    due: float          # offset from the phase start, seconds
    kind: str           # hit | edit | plan
    key: object         # module index | (module index, function) | plan
    payload: object     # IR text | encoded plan request
    tenant: str


@dataclass
class Record:
    request: Request
    due: float          # absolute times (perf_counter seconds)
    sent: float
    done: float
    ok: bool
    response: object    # wire response dict, or the error text


def _send(client, request: Request):
    if request.kind == "plan":
        return client.request({"op": "plan", "request": request.payload,
                               "tenant": request.tenant})
    return client.detect(request.payload, tenant=request.tenant)


def speed_factor(records: list[Record], probes: list[tuple]) -> float:
    """How much slower than nominal the machine ran while ``records``
    were in flight: the median probe taken in their time span (see
    :mod:`.speed`)."""
    lo, hi = min(r.due for r in records), max(r.done for r in records)
    inside = [p for t, p in probes if lo <= t <= hi] or \
        [p for _, p in probes]
    return median(inside) / NOMINAL_S


def latencies(records: list[Record], probes: list[tuple]) -> list[float]:
    """Calibrated seconds from due time to answer; infinite for a failed
    request."""
    factor = speed_factor(records, probes)
    return [x / factor for x in due_latencies([r.due for r in records],
                                              [r.done for r in records],
                                              [r.ok for r in records])]


def _cycle(rng: random.Random, population):
    """Endless seeded permutations of ``population``."""
    while True:
        order = list(population)
        rng.shuffle(order)
        yield from order


def schedule(rng: random.Random, rate: float, n: int, inputs: Inputs,
             counter) -> list[Request]:
    """``n`` requests with Poisson arrivals at ``rate``. The mix holds
    the :data:`MIX` shares exactly and cycles through modules and plan
    requests in seeded order, so every phase asks for the same work and
    the seed moves only its order and timing. ``counter`` yields the
    unique numbers planted in edits."""
    counts = {kind: round(share * n) for kind, share in MIX}
    counts["hit"] += n - sum(counts.values())
    kinds = [kind for kind, count in counts.items() for _ in range(count)]
    rng.shuffle(kinds)
    modules = {kind: _cycle(rng, range(len(inputs.texts)))
               for kind in ("hit", "edit")}
    plans = _cycle(rng, range(len(inputs.plans)))
    requests, t = [], 0.0
    for kind in kinds:
        t += rng.expovariate(rate)
        tenant = rng.choice(TENANTS)
        if kind == "hit":
            index = next(modules[kind])
            requests.append(Request(t, kind, index, inputs.texts[index],
                                    tenant))
        elif kind == "edit":
            index = next(modules[kind])
            _, fname, template = rng.choice(
                [e for e in inputs.templates if e[0] == index])
            text = template.replace(str(SENTINEL), str(next(counter)))
            requests.append(Request(t, kind, (index, fname), text, tenant))
        else:
            index = next(plans)
            requests.append(Request(t, kind, index,
                                    inputs.plans[index][0], tenant))
    return requests


def drive(daemon: Daemon, requests: list[Request],
          tracer: Tracer | None = None, tag: str = "",
          closed: bool = False) -> tuple[list[Record], list[tuple]]:
    """Send ``requests`` on :func:`connections` connections. Open loop:
    each connection takes the next request, waits for its due time and
    sends it; a request whose connection is busy waits, late. Closed
    loop (``closed``): each connection sends its next request as soon as
    the previous one is answered, and due time is send time. With a
    tracer, every other request records its spans as it completes: the
    request from due time to answer, with the generator's queueing (due
    while its connection was busy), its sleep until due time and the
    client call inside.

    Returns the records and ``(time, probe seconds)`` samples the main
    thread took every :data:`PROBE_INTERVAL_S` while the connections
    ran."""
    records: list = [None] * len(requests)
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05

    def connection():
        with daemon.client() as client:
            while True:
                with lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(requests):
                    return
                picked = time.perf_counter()
                request = requests[i]
                due = picked if closed else start + request.due
                spans = []
                if picked > due:
                    spans.append(("generator.queue", due, picked))
                elif due > picked:
                    s0 = time.perf_counter()
                    time.sleep(due - picked)
                    spans.append(("generator.sleep", s0,
                                  time.perf_counter()))
                sent = time.perf_counter()
                try:
                    response, ok = _send(client, request), True
                except Exception as exc:  # a failed request is a result
                    response, ok = f"{type(exc).__name__}: {exc}", False
                returned = time.perf_counter()
                done = time.perf_counter()
                records[i] = Record(request, due, sent, done, ok, response)
                if tracer is not None and i % 2 == 0:
                    spans.append(("client." + request.kind, sent, returned))
                    _record_spans(tracer, lock, f"{tag}/{i}/{request.kind}",
                                  due, done, spans)

    threads = [threading.Thread(target=connection)
               for _ in range(connections())]
    for thread in threads:
        thread.start()
    probes = []
    while any(thread.is_alive() for thread in threads):
        probes.append((time.perf_counter(), probe()))
        time.sleep(PROBE_INTERVAL_S)
    for thread in threads:
        thread.join()
    return records, probes


def _record_spans(tracer, lock, op, due, done, spans) -> None:
    with lock:
        root = tracer.add("request", int(due * 1e9), int(done * 1e9),
                          op=op)
        for name, t0, t1 in spans:
            tracer.add(name, int(t0 * 1e9), int(t1 * 1e9), parent=root,
                       op=op)


# -- verification -------------------------------------------------------------

class Verifier:
    """Local detection of the same texts, independent of the daemon."""

    def __init__(self):
        from repro.idioms import IdiomDetector

        self.detector = IdiomDetector().warmup()
        self._local: dict = {}

    def local_fingerprint(self, key, text: str) -> str:
        """Fingerprint of a local detection of ``text``. Edits of one
        (module, function) differ only in the value of a dead constant
        that no match binds, so the first edit's detection stands for
        the later ones."""
        from repro.ir.parser import parse_module
        from repro.service.wire import report_wire_fingerprint

        if key not in self._local:
            report = self.detector.detect(parse_module(text))
            self._local[key] = report_wire_fingerprint(report)
        return self._local[key]

    def check(self, records: list[Record], inputs: Inputs,
              out: Outcome) -> None:
        from repro.ir.parser import parse_module
        from repro.service.wire import decode_report, \
            report_wire_fingerprint

        decoded: dict = {}
        for record in records:
            request = record.request
            if not record.ok:
                out.fail(f"{request.kind} request failed: "
                         f"{record.response}")
                continue
            if request.kind == "plan":
                assigned = sorted(record.response["plan"]["assignment"])
                if assigned != inputs.plans[request.key][1]:
                    out.fail(f"plan {request.key}: assigns {assigned}")
                continue
            payload = record.response["report"]
            cache_key = (request.payload, repr(payload))
            got = decoded.get(cache_key)
            if got is None:
                got = report_wire_fingerprint(
                    decode_report(payload, parse_module(request.payload)))
                decoded[cache_key] = got
            if got != self.local_fingerprint(request.key, request.payload):
                out.fail(f"{request.kind} {request.key}: report differs "
                         f"from local detection")


# -- the run ------------------------------------------------------------------

def _delta(after: dict, before: dict, *path) -> float:
    a, b = after, before
    for key in path:
        a, b = a.get(key, {}), b.get(key, {})
    return (a or 0) - (b or 0)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def run(seconds: float, seed: int, traced: bool) -> Outcome:
    out = Outcome()
    t0 = time.perf_counter()
    inputs = prepare_inputs()
    out.notes.append(f"inputs prepared in {time.perf_counter() - t0:.2f}s: "
                     f"{len(inputs.texts)} modules, "
                     f"{len(inputs.templates)} edit templates, "
                     f"{len(inputs.plans)} plan requests")
    tags = iter(range(100))
    daemon, setup_s, parts = timed_setups(
        lambda clock: _setup(clock, inputs, tags), SETUP_REPEATS)
    rng = random.Random(seed)
    tracer = Tracer()
    counter = iter(range(1_000_000, 10_000_000))
    all_records = []
    # The generator keeps every response for verification; its cyclic
    # collector would pause the connection threads (a benchmark
    # artefact, not the daemon's latency), so it is off while requests
    # are in flight. The daemon process keeps its own collector.
    gc.freeze()
    gc.disable()
    try:
        before_all = _stats(daemon)
        phase = {}
        for name, rate, n in (
                ("light", metrics.LIGHT_RATE, light_requests(seconds)),
                ("heavy", metrics.HEAVY_RATE, metrics.HEAVY_REQUESTS),
                ("saturation", None, metrics.SATURATION_REQUESTS)):
            requests = schedule(rng, rate or 1.0, n, inputs, counter)
            before = _stats(daemon)
            # In the closed loop the daemon never idles, and spinners
            # would only take turns on its CPU with the probes.
            with cpus_awake() if rate else contextlib.nullcontext():
                records, probes = drive(daemon, requests,
                                        tracer if traced else None, name,
                                        closed=rate is None)
            after = _stats(daemon)
            all_records.extend(records)
            phase[name] = (records, probes, before, after)
            time.sleep(PHASE_GAP_S)
        after_all = _stats(daemon)
    finally:
        gc.enable()
        daemon.close()
    for name in ("light", "heavy"):
        records, probes, _, _ = phase[name]
        lat = phase_latencies(records, probes)
        p50, p95 = median(lat), percentile(lat, metrics.LATENCY_PERCENTILE)
        out.notes.append(
            f"{name} {getattr(metrics, name.upper() + '_RATE')} req/s "
            f"x{len(records)} (speed factor "
            f"{speed_factor(records, probes):.2f}): p50 {p50 * 1e3:.2f}ms "
            f"p95 {p95 * 1e3:.2f}ms")
        out.per_layer[f"{name}.p50_s"] = p50
        out.per_layer[f"{name}.p95_s"] = p95
    records, probes, _, _ = phase["saturation"]
    sustained = len(records) / (max(r.done for r in records) -
                                min(r.sent for r in records))
    factor = speed_factor(records, probes)
    sat = phase_latencies(records, probes)
    out.notes.append(f"saturation: {sustained:.1f} req/s on "
                     f"{connections()} connections (speed factor "
                     f"{factor:.2f}): p50 {median(sat) * 1e3:.2f}ms p95 "
                     f"{percentile(sat, metrics.LATENCY_PERCENTILE) * 1e3:.2f}"
                     f"ms")
    out.attempted = len(all_records)
    fill = [Record(Request(0.0, "hit", i, text, "fill"), 0, 0, 0, True,
                   response)
            for i, (text, response) in enumerate(zip(
                inputs.texts, daemon.fill_responses))]
    Verifier().check(all_records + fill, inputs, out)
    edits = sum(1 for r in all_records if r.request.kind == "edit" and r.ok)
    solved = _delta(after_all, before_all, "solved_functions")
    if edits and solved != edits:
        out.fail(f"{edits} edited modules re-solved {solved} functions "
                 f"(expected exactly one each)")
    for key in ("sheds", "errors", "expired"):
        if _delta(after_all, before_all, key):
            out.fail(f"daemon counted {key}: "
                     f"{_delta(after_all, before_all, key)}")
    records, probes, before, after = phase["light"]
    lat = phase_latencies(records, probes)
    out.end_to_end = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(children=True),
        "ops_per_s": sustained * factor,
        "p50_s": median(sat),
        "p95_s": percentile(sat, metrics.LATENCY_PERCENTILE),
    }
    out.per_layer.update(parts)
    if not traced:
        return out

    out.tracer = tracer
    out.span_check = span_sum_check(tracer.spans, tol_abs_ns=200_000,
                                    tol_rel=0.02)
    by_kind = {kind: [r for r in records if r.ok and r.request.kind == kind]
               for kind, _ in MIX}
    ok = [r for r in records if r.ok]
    batches = _delta(after, before, "batches")
    parse_hits = _delta(after, before, "parse_cache", "hits")
    parse_all = parse_hits + _delta(after, before, "parse_cache", "misses")
    hits = _delta(after, before, "store", "hits")
    lookups = hits + _delta(after, before, "store", "misses")
    out.per_layer.update({
        "place.server_s": _mean(r.response["latency_s"]
                                for r in by_kind["plan"]),
        "place.batches": _delta(after, before, "plan_batches"),
        "store.hits": hits,
        "store.misses": _delta(after, before, "store", "misses"),
        "store.writes": _delta(after, before, "store", "writes"),
        "store.hit_ratio": hits / lookups if lookups else 0.0,
        "service.rtt_s.hit": _mean(r.done - r.sent for r in by_kind["hit"]),
        "service.rtt_s.edit": _mean(r.done - r.sent
                                    for r in by_kind["edit"]),
        "service.rtt_s.plan": _mean(r.done - r.sent
                                    for r in by_kind["plan"]),
        "service.server_s.hit": _mean(r.response["latency_s"]
                                      for r in by_kind["hit"]),
        "service.server_s.edit": _mean(r.response["latency_s"]
                                       for r in by_kind["edit"]),
        "service.wire_s": _mean(r.done - r.sent - r.response["latency_s"]
                                for r in ok),
        "service.batches": batches,
        "service.batch_size": (_delta(after, before, "requests") / batches
                               if batches else 0.0),
        "service.parse_hit_ratio": parse_hits / parse_all if parse_all
        else 0.0,
        "service.solved_per_edit": solved / edits if edits else 0.0,
        "service.sheds": _delta(after_all, before_all, "sheds"),
        "service.errors": _delta(after_all, before_all, "errors"),
        "generator.late_s": percentile([r.sent - r.due for r in records],
                                       metrics.LATENCY_PERCENTILE),
        # Spans are recorded for every other request, so the two halves
        # of the fixed-rate phase give the tracing overhead.
        "trace.overhead": median(lat[0::2]) / median(lat[1::2]) - 1.0,
        "trace.max_gap_s": out.span_check["max_gap_ns"] / 1e9,
    })
    return out
