"""``serve_remote``: a ``repro serve --listen`` daemon driven over the
framed socket transport by one load generator (this process), a closed
loop over 2 connections."""

from __future__ import annotations

import json
import signal
import sys
import threading
import time
from collections import defaultdict

import harness
import inputs
import spans

SETUP_SAMPLES = 3
CONNECTIONS = 2
REQUEST_CLIPS = 8
#: the hot set: 8 fixed requests of 8 clips, re-sent all run long
HOT_GROUPS = 8
#: requests per connection per round, alternating hot and fresh
ROUND_REQUESTS = 64
#: 8 rounds x 2 connections x 64 = 1,024 requests at the least
MIN_ROUNDS = 8
#: served scores must match the in-process reference this closely
TOLERANCE = 1e-9
#: the daemon's coalescing window: with the default 2 ms, whether the
#: two connections' requests meet in one batch follows the host's CPU
#: steal (mean batch 12.2-14.6 clips over four runs, clips per CPU
#: second 961-1148); with 10 ms nearly every pair meets (15.9-16.0
#: clips, 975-1045)
DELAY_MS = 10


def _daemon(rd, chip, seed, tag, trace_out=None, run_id=""):
    """Start the daemon; returns (child, port, CPU seconds it used up to
    its ``listening on`` line)."""
    for attempt in range(3):
        port = harness.free_port()
        args = ["serve", str(chip), "--listen", "127.0.0.1", "--port",
                str(port), "--seed", str(seed), "--quiet",
                "--delay-ms", str(DELAY_MS)]
        argv = (harness.repro_argv(*args) if trace_out is None
                else harness.launch_argv(trace_out, run_id, *args))
        child = rd.spawn(argv, f"{tag}-{attempt}.log")
        try:
            _, setup_cpu, _ = child.wait_line("listening on", 120)
        except harness.BenchError:
            child.stop()
            if "Address already in use" in child.tail(20):
                continue  # the port was taken after we picked it
            raise
        return child, port, setup_cpu
    raise harness.BenchError("no free port for the daemon")


class LoadGenerator:
    """Closed-loop client: ``CONNECTIONS`` threads share one pooled
    ``DetectionClient``; each sends its next request when the previous
    one returned."""

    def __init__(self, port: int, daemon_pid: int, seed: int, hot: list,
                 fresh) -> None:
        from repro.engine import EventBus
        from repro.serve.transport import ClientConfig, DetectionClient

        self.hot = [hot[g * REQUEST_CLIPS:(g + 1) * REQUEST_CLIPS]
                    for g in range(HOT_GROUPS)]
        self.fresh = fresh
        self.bus = EventBus()
        self._retries = defaultdict(int)
        self.bus.subscribe(self._on_retry, kinds=["transport_retry"])
        self.client = DetectionClient(
            ClientConfig(host="127.0.0.1", port=port, seed=seed),
            bus=self.bus)
        #: per request: (kind, hot group or None, clips, latency s,
        #: scores or None, retried)
        self.records: list[tuple] = []
        self.hot_scores: dict[int, object] = {}
        self.daemon_pid = daemon_pid
        self.wall = 0.0
        #: CPU seconds the load threads spent inside ``submit`` (codec,
        #: socket calls, retries)
        self.client_cpu = 0.0
        #: clips served per daemon CPU-second, one entry per round
        self.round_rates: list[float] = []
        #: daemon plus client CPU seconds per request, one entry per round
        self.round_request_cpu: list[float] = []
        self.rounds = 0
        self._lock = threading.Lock()

    def _on_retry(self, event) -> None:
        self._retries[threading.get_ident()] += 1

    @property
    def retries(self) -> int:
        return sum(self._retries.values())

    def _send(self, group, clips, timed: bool) -> None:
        from repro.serve.transport import TransportError

        me = threading.get_ident()
        before = self._retries[me]
        cpu = time.thread_time()
        started = time.perf_counter()
        try:
            scores = self.client.submit(clips).scores
        except TransportError as exc:
            scores = None
            print(f"request failed: {type(exc).__name__}: {exc}")
        latency = time.perf_counter() - started
        cpu = time.thread_time() - cpu
        retried = self._retries[me] != before
        with self._lock:
            self.client_cpu += cpu
            if group is not None and group not in self.hot_scores \
                    and scores is not None:
                self.hot_scores[group] = scores
            if timed:
                self.records.append(("hot" if group is not None else
                                     "fresh", group, clips, latency,
                                     scores, retried))

    def _round(self, plans, timed: bool) -> float:
        """Run one plan per connection concurrently; returns wall s."""
        barrier = threading.Barrier(len(plans) + 1)
        errors = []

        def worker(plan):
            try:
                barrier.wait()
                for group, clips in plan:
                    self._send(group, clips, timed)
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(plan,))
                   for plan in plans]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return time.perf_counter() - started

    def _plan(self, conn: int, n: int) -> list:
        fresh = self.fresh.take(n // 2 * REQUEST_CLIPS)
        plan = []
        for i in range(n):
            if i % 2 == 0:
                group = (i // 2 + conn * HOT_GROUPS // CONNECTIONS) \
                    % HOT_GROUPS
                plan.append((group, self.hot[group]))
            else:
                k = i // 2 * REQUEST_CLIPS
                plan.append((None, fresh[k:k + REQUEST_CLIPS]))
        return plan

    def warm_up(self) -> None:
        """Every hot group once plus fresh requests, on both
        connections, before any timing."""
        self._round([self._plan(c, HOT_GROUPS) for c in range(CONNECTIONS)],
                    timed=False)

    def run(self, seconds: float) -> None:
        while harness.keep_going(self.rounds, self.wall, seconds,
                                 MIN_ROUNDS):
            plans = [self._plan(c, ROUND_REQUESTS)
                     for c in range(CONNECTIONS)]
            cpu = harness.process_cpu(self.daemon_pid)
            client = self.client_cpu
            self.wall += self._round(plans, timed=True)
            cpu = harness.process_cpu(self.daemon_pid) - cpu
            client = self.client_cpu - client
            self.round_rates.append(
                CONNECTIONS * ROUND_REQUESTS * REQUEST_CLIPS / cpu)
            self.round_request_cpu.append(
                (cpu + client) / (CONNECTIONS * ROUND_REQUESTS))
            self.rounds += 1

    def close(self) -> dict:
        stats = self.client.stats()
        self.client.close()
        return stats


def _reference(layout, seed):
    """Scores from the same seeded ``bootstrap_server`` recipe, computed
    here clip by clip (``FeatureExtractor.encode``, the classifier, the
    temperature) without the daemon's data plane."""
    import numpy as np

    from repro.features.pipeline import FeatureExtractor
    from repro.serve.bootstrap import bootstrap_server

    booted = bootstrap_server(layout, seed=seed)
    booted.server.close()
    fx = FeatureExtractor(grid=96)

    def score(clips):
        tensors = np.stack([fx.encode(clip) for clip in clips])
        logits = booted.classifier.predict_logits(tensors)
        return booted.temperature.transform(logits)[:, 1]

    return score


def _check(checks, gen, score) -> tuple[int, int]:
    import numpy as np

    attempted = len(gen.records)
    failed = 0
    sent, served = [], []
    for kind, group, clips, _, scores, retried in gen.records:
        if scores is None or retried:
            failed += 1
            continue
        checks.require(len(scores) == len(clips),
                       f"{len(scores)} scores for {len(clips)} clips")
        if group is not None:
            checks.require(
                np.array_equal(scores, gen.hot_scores[group]),
                f"hot group {group} scored differently when re-sent")
        else:
            sent.extend(clips)
            served.append(scores)
    for group, scores in gen.hot_scores.items():
        sent.extend(gen.hot[group])
        served.append(scores)
    reference = score(sent)
    worst = float(np.max(np.abs(np.concatenate(served) - reference)))
    checks.require(worst <= TOLERANCE,
                   f"served scores off the reference by {worst:.3g}")
    return attempted, failed


def _pass(rd, chip, layout, seed, seconds, hot, fresh, tag,
          trace_out=None, run_id=""):
    daemon, port, setup = _daemon(rd, chip, seed, tag, trace_out, run_id)
    try:
        gen = LoadGenerator(port, daemon.proc.pid, seed, hot, fresh)
        gen.warm_up()
        gen.run(seconds)
        stats = gen.close()
    finally:
        code = daemon.stop(60)
    if code != 0:
        raise harness.BenchError(f"daemon exited {code}: {daemon.tail()}")
    return gen, stats, setup, daemon.maxrss_mb


def run(seed: int, seconds: float, trace: bool, rd: harness.RunDir):
    from repro.data.synth import DUV_RULES
    from repro.layout.clip import extract_clip_grid
    from repro.layout.glp import load_layout

    chip = inputs.duv_chip(50_000 + seed, inputs.SERVE_TILES,
                           f"serve-chip-{seed}", rd.sub("chip.glp"))
    layout = load_layout(str(chip))
    # the hot set: 64 non-empty clips past the daemon's training slice
    clips = extract_clip_grid(layout, DUV_RULES.clip_size,
                              DUV_RULES.core_margin, drop_empty=False)
    hot = [clip for clip in clips[48:] if clip.rects][:HOT_GROUPS
                                                     * REQUEST_CLIPS]
    fresh = inputs.FreshClips(layout, seed, exclude=clips)
    checks = harness.Checks()

    setups = []
    if not trace:
        for i in range(SETUP_SAMPLES - 1):
            probe, _, setup = _daemon(rd, chip, seed, f"probe{i}")
            setups.append(setup)
            # the daemon prints its listening line before it installs
            # its SIGTERM handler, so a SIGTERM this early may end it
            # by the signal instead of a drain
            if probe.stop(60) not in (0, -signal.SIGTERM):
                raise harness.BenchError(f"probe daemon: {probe.tail()}")
    steal = harness.host_steal()
    gen, stats, setup, rss = _pass(rd, chip, layout, seed, seconds, hot,
                                   fresh, "daemon")
    share = harness.steal_share(steal)
    score = _reference(layout, seed)
    attempted, failed = _check(checks, gen, score)
    latencies = [r[3] for r in gen.records if r[4] is not None]
    n_clips = sum(len(r[2]) for r in gen.records if r[4] is not None)
    clips_per_cpu_s = harness.median(gen.round_rates)
    p50 = harness.median(latencies)
    p99 = harness.tail_percentile(latencies, 99)
    cache = stats["server"]["cache_tenants"].get("v1", {})
    print(f"serve_remote: {len(gen.records)} requests in {gen.rounds} "
          f"rounds, cache {cache.get('hits')} hits / "
          f"{cache.get('misses')} misses, mean batch "
          f"{stats['server']['mean_batch_clips']:.1f} clips, "
          f"{gen.retries} retries; wall clock: {n_clips / gen.wall:.1f} "
          f"clips/s, request p50 {p50 * 1e3:.2f} ms,"
          f" p99 {'n/a' if p99 is None else f'{p99 * 1e3:.2f} ms'} over "
          f"{len(latencies)} samples; host steal {share:.1%}")
    if not trace:
        setups.append(setup)
        metrics = {
            "setup_s": harness.metric(harness.median(setups), "s"),
            "clips_per_cpu_s": harness.metric(clips_per_cpu_s,
                                              "clips/cpu_s"),
            "op_cpu_ms": harness.metric(
                harness.median(gen.round_request_cpu) * 1e3, "ms"),
            "peak_rss_mb": harness.metric(rss, "MB"),
        }
        return checks.ok, attempted, failed, metrics

    trace_out = harness.TRACE_DIR / f"serve_remote-seed{seed}-daemon.json"
    tracer = spans.Tracer(f"serve_remote-{seed}")
    spans.install_codec(tracer)
    t_gen, t_stats, _, _ = _pass(rd, chip, layout, seed, seconds, hot,
                                 fresh, "traced", trace_out,
                                 f"serve_remote-{seed}")
    t_attempted, t_failed = _check(checks, t_gen, score)
    client_out = harness.TRACE_DIR / f"serve_remote-seed{seed}-client.json"
    client = tracer.write(client_out)
    daemon = json.loads(trace_out.read_text())["otherData"]
    summary = spans.merge(daemon, client)
    t_cache = t_stats["server"]["cache_tenants"].get("v1", {})
    summary["counters"]["dataplane.cache_hits"] = t_cache.get("hits", 0)
    summary["counters"]["dataplane.cache_lookups"] = (
        t_cache.get("hits", 0) + t_cache.get("misses", 0))
    counters = summary["counters"]
    n_requests = max(counters.get("transport.request_bytes_n", 0), 1)
    extra = {
        "serve.submit_ms": daemon["medians_s"].get("serve.submit", 0) * 1e3,
        "serve.batches": t_stats["server"]["batches"],
        "serve.mean_batch_clips": t_stats["server"]["mean_batch_clips"],
        "transport.codec_ms":
            summary["self_s"].get("transport.codec", 0) / n_requests * 1e3,
        "transport.request_bytes":
            counters.get("transport.request_bytes", 0) / n_requests,
        "transport.response_bytes":
            counters.get("transport.response_bytes", 0)
            / max(counters.get("transport.response_bytes_n", 0), 1),
        "transport.retries": gen.retries + t_gen.retries,
        "clips_per_s": n_clips / gen.wall,
        "request_p50_ms": p50 * 1e3,
        "request_p99_ms": 0.0 if p99 is None else p99 * 1e3,
    }
    print(f"traces written to {trace_out} and {client_out}",
          file=sys.stderr)
    return (checks.ok, attempted + t_attempted, failed + t_failed,
            spans.layer_metrics(summary, clips_per_cpu_s,
                                harness.median(t_gen.round_rates), extra))
