"""Program process of the ``scan_chip`` workload.

Set-up: load the chip, litho-label a seeded 48-clip slice, train the
classifier and fit its temperature, then print ``ready``.  Measured
part: whole rounds of one full streaming scan
(``repro.dataplane.stream.scan_layout``, 2 shards, persistent scan
state) followed by the given localized edits, each re-scanned
incrementally against the same state.  Every scan is timed on its own;
results go to a JSON file for the parent to check.  Each scan records
its wall time and the CPU time of this process (all threads).

    python perfbench/scan_worker.py --layout chip.glp --state DIR \
        --edits edits.json --seconds 20 --seed 0 --model-out m.npz \
        --result result.json [--setup-only] [--trace-out T --run-id ID]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import harness

TRAIN_CLIPS = 48


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--layout", required=True)
    parser.add_argument("--state", required=True)
    parser.add_argument("--edits", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--model-out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--run-id", default="scan")
    args = parser.parse_args()

    tracer = None
    if args.trace_out:
        import spans

        tracer = spans.Tracer(args.run_id)
        spans.install(tracer)

    import numpy as np

    from repro.calibration.temperature import TemperatureScaler
    from repro.data.synth import DUV_RULES
    from repro.dataplane import BatchFeatureExtractor, DataPlaneConfig
    from repro.dataplane.stream import (
        StreamConfig,
        TileVerdictStore,
        scan_layout,
    )
    from repro.engine import EventBus
    from repro.features.pipeline import FeatureExtractor
    from repro.layout import Layout, Rect
    from repro.layout.clip import extract_clip
    from repro.layout.glp import load_layout
    from repro.layout.tiles import TileGrid
    from repro.litho.labeler import LithoLabeler
    from repro.litho.simulator import LithoSimulator
    from repro.model.classifier import HotspotClassifier

    clip_size, margin = DUV_RULES.clip_size, DUV_RULES.core_margin
    layout = load_layout(args.layout)
    grid = TileGrid.for_layout(layout, clip_size, margin, tile_clips=8)

    # training slice: the first 48 non-empty windows of a seeded order
    rng = np.random.default_rng(40_000 + args.seed)
    train = []
    for index in rng.permutation(grid.n_windows):
        row, col = divmod(int(index), grid.n_cols)
        clip = extract_clip(layout, grid.window(row, col), margin)
        if clip.rects:
            train.append(clip)
            if len(train) == TRAIN_CLIPS:
                break
    labeler = LithoLabeler(LithoSimulator.for_tech(layout.tech_nm, grid=96))
    labels = np.asarray(labeler.label_batch(train), dtype=np.int64)
    plane = BatchFeatureExtractor(
        FeatureExtractor(grid=96), config=DataPlaneConfig(chunk_size=64)
    )
    tensors = plane.encode_batch(train)
    classifier = HotspotClassifier(
        input_shape=plane.extractor.tensor_shape, arch="mlp", epochs=6,
        seed=args.seed,
    )
    classifier.fit_scaler(tensors)
    classifier.fit(tensors, labels)
    temperature = TemperatureScaler()
    try:
        temperature.fit(classifier.predict_logits(tensors), labels)
    except (ValueError, FloatingPointError):
        temperature.temperature_ = 1.0
    print(f"ready: trained on {len(train)} clips, litho "
          f"{labeler.query_count}, {int(labels.sum())} hotspots", flush=True)
    if args.setup_only:
        return 0
    classifier.save(args.model_out, temperature=temperature.temperature_)

    edits = [Rect(*rect) for rect in json.loads(Path(args.edits).read_text())]
    bus = EventBus()
    rescored_tiles: list[str] = []
    bus.subscribe(
        lambda event: None if event.payload["replayed"]
        else rescored_tiles.append(event.payload["tile"]),
        kinds=["tile_scanned"],
    )

    def scan(chip, state_dir: Path) -> dict:
        rescored_tiles.clear()
        started = time.perf_counter()
        cpu_started = time.process_time()
        try:
            report = scan_layout(
                chip, clip_size, margin,
                classifier=classifier, temperature=temperature,
                extractor=FeatureExtractor(grid=96),
                dataplane=DataPlaneConfig(chunk_size=64),
                stream=StreamConfig(tile_clips=8, shards=2,
                                    state_dir=str(state_dir)),
                bus=bus,
            )
        except Exception as exc:  # noqa: BLE001 - a failed operation
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}",
                    "seconds": time.perf_counter() - started}
        seconds = time.perf_counter() - started
        return {
            "ok": True,
            "seconds": seconds,
            "cpu": time.process_time() - cpu_started,
            "n_clips": report.n_clips,
            "rescored_clips": report.rescored_clips,
            "rescored_tiles": report.rescored_tiles,
            "replayed_tiles": report.replayed_tiles,
            "rescored_keys": sorted(rescored_tiles),
            "hotspots": [[h["index"], h["score"]] for h in report.hotspots],
        }

    rounds = []
    started = time.perf_counter()
    while harness.keep_going(len(rounds), time.perf_counter() - started,
                             args.seconds):
        state = Path(args.state) / f"round{len(rounds)}"
        full = scan(layout, state)
        if not rounds and full["ok"]:
            # every clip's score, read back from the verdict store (the
            # report lists flagged clips only); not part of any timing
            store = TileVerdictStore(state / "tiles")
            scores = {}
            for key in store.keys():
                entry = store.load(key)
                for index, score in zip(entry["indices"], entry["scores"]):
                    scores[int(index)] = score
            full["scores"] = scores
        rescans = []
        chip = layout
        for rect in edits:
            chip = Layout(list(chip.rects) + [rect], die=layout.die,
                          tech_nm=layout.tech_nm, name=layout.name)
            rescans.append(scan(chip, state))
        rounds.append({"full": full, "rescans": rescans})

    tmp = Path(args.result + ".tmp")
    tmp.write_text(json.dumps({
        "rounds": rounds,
        "train_litho": labeler.query_count,
    }))
    os.replace(tmp, args.result)
    if tracer is not None:
        tracer.write(Path(args.trace_out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
