"""Seeded inputs of the workloads.  Each function is a pure function of
its seed; the program only ever sees the files and clips made here."""

from __future__ import annotations

from pathlib import Path

import numpy as np

#: 24 x 24 pattern tiles of the 7 nm rules: 576 clips
AL_TILES = 24
#: hotspot share of ICCAD16-3 (1100 of 5016 clips)
AL_HOTSPOT_SHARE = 0.22
#: 52 x 52 pattern tiles of the 28 nm rules: 2,704 windows
SCAN_TILES = 52
#: the scan chip is 4 x 4 blocks of 13 x 13 tiles, each block generated
#: with its own seed: one generated chip's shape count follows the few
#: patterns its Zipf draw puts on most tiles and spread 0.13 (IQR /
#: median) over 20 seeds, which a scan's cost follows; 16 blocks halve it
SCAN_BLOCKS = 4
#: the daemon's chip (bootstrap training + hot set)
SERVE_TILES = 24
#: clip windows per tile edge of the streaming scan
TILE_CLIPS = 8
#: edits per scan round, each in its own tile
SCAN_EDITS = 10


def al_chip(seed: int, path: Path) -> Path:
    from repro.data.synth import EUV_RULES, generate_layout
    from repro.layout import save_layout

    layout = generate_layout(
        EUV_RULES, tiles_x=AL_TILES, tiles_y=AL_TILES,
        stress_probability=0.3, seed=10_000 + seed,
        name=f"al-chip-{seed}", target_ratio=AL_HOTSPOT_SHARE,
    )
    save_layout(layout, str(path))
    return path


def duv_chip(seed: int, tiles: int, name: str, path: Path,
             blocks: int = 1) -> Path:
    """A 28 nm chip of ``tiles`` x ``tiles`` pattern tiles, made of
    ``blocks`` x ``blocks`` square blocks generated with seeds of their
    own and placed side by side on the tile lattice."""
    from repro.data.synth import DUV_RULES, generate_layout
    from repro.layout import Layout, Rect, save_layout

    if tiles % blocks:
        raise ValueError(f"{tiles} tiles do not split into {blocks} blocks")
    step = tiles // blocks
    core = DUV_RULES.clip_size - 2 * DUV_RULES.core_margin
    rects = []
    for b in range(blocks * blocks):
        block = generate_layout(
            DUV_RULES, tiles_x=step, tiles_y=step, stress_probability=0.4,
            seed=seed * blocks * blocks + b, name=name,
        )
        dx, dy = (b % blocks) * step * core, (b // blocks) * step * core
        rects.extend(rect.shifted(dx, dy) for rect in block.rects)
    side = 2 * DUV_RULES.core_margin + tiles * core
    layout = Layout(rects, die=Rect(0, 0, side, side),
                    tech_nm=DUV_RULES.tech_nm, name=name)
    save_layout(layout, str(path))
    return path


def _lattice(layout) -> tuple[int, int, int, int, int]:
    """The 28 nm window lattice of ``layout``: (clip, margin, step,
    rows, columns), worked out from the design rules alone."""
    from repro.data.synth import DUV_RULES

    clip, margin = DUV_RULES.clip_size, DUV_RULES.core_margin
    step = clip - 2 * margin
    die = layout.die
    n_rows = (die.y1 - die.y0 - clip) // step + 1
    n_cols = (die.x1 - die.x0 - clip) // step + 1
    return clip, margin, step, n_rows, n_cols


def scan_edits(seed: int, layout, n_edits: int = SCAN_EDITS) -> list[list[int]]:
    """``n_edits`` rects ``[x0, y0, x1, y1]``: 80 nm squares in the core
    of a random window, each in its own tile.  All but the last two sit
    away from tile borders, so every window they overlap is in one tile
    (each re-scan re-scores one tile); the last two straddle a corner
    where four tiles meet."""
    _, margin, step, n_rows, n_cols = _lattice(layout)
    die = layout.die
    rng = np.random.default_rng(20_000 + seed)
    tiles_used: set[tuple[int, int]] = set()
    edits = []
    while len(edits) < n_edits:
        corner = len(edits) >= n_edits - 2
        if corner:
            # the core corner of the window just before a tile corner:
            # the square overlaps windows of four tiles
            ty = int(rng.integers(1, n_rows // TILE_CLIPS))
            tx = int(rng.integers(1, n_cols // TILE_CLIPS))
            row, col = ty * TILE_CLIPS - 1, tx * TILE_CLIPS - 1
            dx = dy = step - 40
        else:
            row = int(rng.integers(0, n_rows))
            col = int(rng.integers(0, n_cols))
            if not (0 < row % TILE_CLIPS < TILE_CLIPS - 1
                    and 0 < col % TILE_CLIPS < TILE_CLIPS - 1
                    and row < n_rows - 1 and col < n_cols - 1):
                continue
            dx, dy = 10 * int(rng.integers(2, 40)), 10 * int(rng.integers(2, 40))
        tile = (row // TILE_CLIPS, col // TILE_CLIPS)
        if tile in tiles_used:
            continue
        tiles_used.add(tile)
        x0 = die.x0 + col * step + margin + dx
        y0 = die.y0 + row * step + margin + dy
        edits.append([x0, y0, x0 + 80, y0 + 80])
    return edits


def touched_tiles(layout, rect) -> set[str]:
    """Keys of the scan tiles holding a window that overlaps ``rect``,
    worked out from the window lattice alone."""
    clip, _, step, n_rows, n_cols = _lattice(layout)
    die = layout.die
    x0, y0, x1, y1 = rect
    keys = set()
    for row in range(n_rows):
        wy = die.y0 + row * step
        if not (wy < y1 and y0 < wy + clip):
            continue
        for col in range(n_cols):
            wx = die.x0 + col * step
            if wx < x1 and x0 < wx + clip:
                keys.add(f"{col // TILE_CLIPS:04d}_{row // TILE_CLIPS:04d}")
    return keys


def window_tile(layout, index: int) -> str:
    """Tile key of the window with chip-global index ``index``."""
    n_cols = _lattice(layout)[4]
    row, col = divmod(index, n_cols)
    return f"{col // TILE_CLIPS:04d}_{row // TILE_CLIPS:04d}"


class FreshClips:
    """28 nm clips at seeded random window positions, none repeated:
    each has geometry no earlier clip of the run had (content key)."""

    def __init__(self, layout, seed: int, exclude=()) -> None:
        from repro.data.synth import DUV_RULES

        self.layout = layout
        self.clip = DUV_RULES.clip_size
        self.margin = DUV_RULES.core_margin
        self.rng = np.random.default_rng(30_000 + seed)
        self.seen = {clip.content_key() for clip in exclude}

    def take(self, n: int) -> list:
        from repro.layout import Rect
        from repro.layout.clip import extract_clip

        die = self.layout.die
        out = []
        while len(out) < n:
            x = int(self.rng.integers(die.x0, die.x1 - self.clip))
            y = int(self.rng.integers(die.y0, die.y1 - self.clip))
            clip = extract_clip(
                self.layout, Rect(x, y, x + self.clip, y + self.clip),
                self.margin,
            )
            key = clip.content_key()
            if clip.rects and key not in self.seen:
                self.seen.add(key)
                out.append(clip)
        return out
