"""``scan_chip``: streaming full-chip scan plus incremental re-scans."""

from __future__ import annotations

import json
import sys

import harness
import inputs
import spans

SETUP_SAMPLES = 3


def _worker(rd: harness.RunDir, tag: str, args: list[str],
            trace_out=None, run_id: str = "") -> harness.Child:
    argv = [sys.executable, str(harness.BENCH_DIR / "scan_worker.py"), *args]
    if trace_out is not None:
        argv += ["--trace-out", str(trace_out), "--run-id", run_id]
    return rd.spawn(argv, f"{tag}.log")


def _pass(rd, seed, seconds, chip, edits_path, tag, trace_out=None,
          run_id=""):
    """One worker: (setup seconds, result dict, peak RSS MB)."""
    result_path = rd.sub(f"{tag}-result.json")
    child = _worker(rd, tag, [
        "--layout", str(chip), "--state", str(rd.sub(f"{tag}-state")),
        "--edits", str(edits_path), "--seconds", str(seconds),
        "--seed", str(seed), "--model-out", str(rd.sub("model.npz")),
        "--result", str(result_path),
    ], trace_out, run_id)
    _, setup_cpu, _ = child.wait_line("ready", 300)
    code = child.wait(seconds * 4 + 300)
    if code != 0:
        raise harness.BenchError(f"scan worker exited {code}: {child.tail()}")
    result = json.loads(result_path.read_text())
    return setup_cpu, result, child.maxrss_mb


def _setup_probe(rd, seed, chip, edits_path, i) -> float:
    child = _worker(rd, f"probe{i}", [
        "--layout", str(chip), "--state", str(rd.sub("probe-state")),
        "--edits", str(edits_path), "--seconds", "0", "--seed", str(seed),
        "--model-out", str(rd.sub("probe.npz")),
        "--result", str(rd.sub("probe.json")), "--setup-only",
    ])
    _, setup_cpu, _ = child.wait_line("ready", 300)
    if child.wait(120) != 0:
        raise harness.BenchError(f"setup probe failed: {child.tail()}")
    return setup_cpu


def _reference_scores(rd, seed, layout) -> dict[int, float]:
    """Eager, clip by clip: extract_clip_grid -> FeatureExtractor.encode
    -> the saved classifier and temperature."""
    import numpy as np

    from repro.calibration.temperature import scaled_softmax
    from repro.data.synth import DUV_RULES
    from repro.features.pipeline import FeatureExtractor
    from repro.layout.clip import extract_clip_grid
    from repro.model.classifier import HotspotClassifier

    fx = FeatureExtractor(grid=96)
    classifier = HotspotClassifier(input_shape=fx.tensor_shape, arch="mlp",
                                   epochs=6, seed=seed)
    temperature = classifier.load(rd.sub("model.npz"))
    clips = [
        clip for clip in extract_clip_grid(
            layout, DUV_RULES.clip_size, DUV_RULES.core_margin,
            drop_empty=False)
        if clip.rects
    ]
    tensors = np.stack([fx.encode(clip) for clip in clips])
    probs = scaled_softmax(classifier.predict_logits(tensors),
                           1.0 if temperature is None else temperature)
    return {clip.index: float(p) for clip, p in zip(clips, probs[:, 1])}


def _check(checks, layout, edits, result, reference) -> tuple[int, int]:
    """Output checks; returns (attempted, failed) operations."""
    attempted = failed = 0
    first = result["rounds"][0]["full"]
    for n, rnd in enumerate(result["rounds"]):
        ops = [rnd["full"], *rnd["rescans"]]
        attempted += len(ops)
        failed += sum(1 for op in ops if not op["ok"])
        for op in ops:
            if not op["ok"]:
                print(f"failed scan: {op['error']}")
        full = rnd["full"]
        if full["ok"] and first["ok"]:
            checks.require(full["hotspots"] == first["hotspots"],
                           f"round {n}: full scan differs from round 0")
        previous = full
        for e, (rect, op) in enumerate(zip(edits, rnd["rescans"])):
            if not (op["ok"] and previous["ok"]):
                previous = op
                continue
            touched = inputs.touched_tiles(layout, rect)
            checks.require(
                set(op["rescored_keys"]) == touched,
                f"round {n} edit {e}: re-scored tiles "
                f"{op['rescored_keys']} != touched {sorted(touched)}")

            def untouched(hotspots):
                return [h for h in hotspots
                        if inputs.window_tile(layout, h[0]) not in touched]

            checks.require(
                untouched(op["hotspots"]) == untouched(previous["hotspots"]),
                f"round {n} edit {e}: verdicts changed on untouched tiles")
            previous = op

    if first["ok"]:
        scores = {int(k): v for k, v in first["scores"].items()}
        checks.require(set(scores) == set(reference),
                       "full scan and eager reference cover different clips")
        common = set(scores) & set(reference)
        worst = max((abs(scores[i] - reference[i]) for i in common),
                    default=0.0)
        checks.require(worst <= 1e-9,
                       f"scan scores off the eager reference by {worst:.3g}")
        flagged = sorted(i for i in common if reference[i] >= 0.5)
        checks.require([h[0] for h in first["hotspots"]] == flagged,
                       "scan verdicts differ from the eager reference")
    return attempted, failed


def _metrics(result, clock: str) -> tuple[float, float]:
    """(full-scan clips per second, median re-scan ms), on the wall
    clock (``"seconds"``) or in CPU time (``"cpu"``)."""
    fulls = [r["full"] for r in result["rounds"] if r["full"]["ok"]]
    rescans = [op for r in result["rounds"] for op in r["rescans"]
               if op["ok"]]
    if not fulls or not rescans:
        raise harness.BenchError("no scan succeeded")
    clips_per_s = (sum(f["n_clips"] for f in fulls)
                   / sum(f[clock] for f in fulls))
    return clips_per_s, harness.median(op[clock] for op in rescans) * 1e3


def run(seed: int, seconds: float, trace: bool, rd: harness.RunDir):
    from repro.layout.glp import load_layout

    chip = inputs.duv_chip(seed, inputs.SCAN_TILES, f"scan-chip-{seed}",
                           rd.sub("chip.glp"), blocks=inputs.SCAN_BLOCKS)
    layout = load_layout(str(chip))
    edits = inputs.scan_edits(seed, layout)
    edits_path = rd.sub("edits.json")
    edits_path.write_text(json.dumps(edits))
    checks = harness.Checks()

    if not trace:
        setups = [_setup_probe(rd, seed, chip, edits_path, i)
                  for i in range(SETUP_SAMPLES - 1)]
    steal = harness.host_steal()
    setup, result, rss = _pass(rd, seed, seconds, chip, edits_path, "scan")
    share = harness.steal_share(steal)
    reference = _reference_scores(rd, seed, layout)
    attempted, failed = _check(checks, layout, edits, result, reference)
    clips_per_cpu_s, rescan_cpu_ms = _metrics(result, "cpu")
    clips_per_s, rescan_ms = _metrics(result, "seconds")
    n_rescans = sum(len(r["rescans"]) for r in result["rounds"])
    print(f"scan_chip: {len(result['rounds'])} full scans of "
          f"{result['rounds'][0]['full'].get('n_clips')} clips, "
          f"{n_rescans} re-scans, {checks.passed} checks passed; wall "
          f"clock: {clips_per_s:.1f} clips/s, re-scan p50 "
          f"{rescan_ms:.1f} ms; host steal {share:.1%}")

    if not trace:
        setups.append(setup)
        metrics = {
            "setup_s": harness.metric(harness.median(setups), "s"),
            "clips_per_cpu_s": harness.metric(clips_per_cpu_s,
                                              "clips/cpu_s"),
            "op_cpu_ms": harness.metric(rescan_cpu_ms, "ms"),
            "peak_rss_mb": harness.metric(rss, "MB"),
        }
        return checks.ok, attempted, failed, metrics

    trace_out = harness.TRACE_DIR / f"scan_chip-seed{seed}.json"
    _, traced, _ = _pass(rd, seed, seconds, chip, edits_path, "traced",
                         trace_out, f"scan_chip-{seed}")
    t_attempted, t_failed = _check(checks, layout, edits, traced, reference)
    traced_cps, _ = _metrics(traced, "cpu")
    summary = spans.merge(json.loads(trace_out.read_text())["otherData"])
    scans = [op for r in traced["rounds"]
             for op in (r["full"], *r["rescans"]) if op["ok"]]
    summary["counters"]["stream.tiles_scored"] = sum(
        op["rescored_tiles"] for op in scans)
    summary["counters"]["stream.tiles_replayed"] = sum(
        op["replayed_tiles"] for op in scans)
    print(f"trace written to {trace_out}", file=sys.stderr)
    return (checks.ok, attempted + t_attempted, failed + t_failed,
            spans.layer_metrics(summary, clips_per_cpu_s, traced_cps,
                                {"clips_per_s": clips_per_s,
                                 "rescan_p50_ms": rescan_ms}))

