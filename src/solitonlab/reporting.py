"""Run manifests, canonical config hashing and native SVG summary plots.

Manifests are written when a run starts (status "running") and rewritten on
completion, so an interrupted run leaves a truthful record. The config hash
is taken over the canonical JSON form (sorted keys, fixed separators), so
key order in the input file never changes the hash. Plots are emitted as
hand-rolled SVG line charts; no plotting library is involved.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(_jsonable(config)).encode()).hexdigest()


def _jsonable(obj):
    """Recursively convert to strict-JSON-safe types (inf/nan become None)."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n")


def write_csv(path: str | Path, header, rows) -> None:
    """A header line, then one line of ``%.17g`` numbers (they read back
    bit for bit) per row; every line ends in LF."""
    lines = [",".join(header)] + [",".join("%.17g" % x for x in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


@dataclass
class RunManifest:
    """Inventory of one CLI invocation: config echo + hash, outputs, flags."""

    config: dict
    tool_version: str
    status: str = "running"
    outputs: list[str] = field(default_factory=list)
    flags: dict = field(default_factory=dict)
    created_utc: str = ""
    finished_utc: str | None = None

    def __post_init__(self):
        if not self.created_utc:
            self.created_utc = datetime.now(timezone.utc).isoformat()

    @property
    def hash(self) -> str:
        return config_hash(self.config)

    def add_output(self, path: str | Path) -> None:
        self.outputs.append(str(path))

    def write(self, path: str | Path) -> None:
        write_json(
            path,
            {
                "config_hash": self.hash,
                "tool_version": self.tool_version,
                "status": self.status,
                "created_utc": self.created_utc,
                "finished_utc": self.finished_utc,
                "config": self.config,
                "outputs": sorted(self.outputs),
                "flags": self.flags,
            },
        )

    def finalize(self, path: str | Path, status: str, **flags) -> None:
        self.status = status
        self.flags.update(flags)
        self.finished_utc = datetime.now(timezone.utc).isoformat()
        self.write(path)


# --- native SVG line charts ---------------------------------------------------

_COLORS = ("#1f6fb2", "#c44e52", "#55a868", "#8172b2", "#937860")
_W, _H = 720, 460
_ML, _MR, _MT, _MB = 78, 24, 42, 58


def _ticks(lo: float, hi: float, log: bool) -> list[float]:
    if log:
        lo_e, hi_e = math.floor(math.log10(lo)), math.ceil(math.log10(hi))
        vals = [10.0**e for e in range(lo_e, hi_e + 1)]
        return [v for v in vals if lo / 1.001 <= v <= hi * 1.001] or [lo, hi]
    if hi == lo:
        return [lo]
    step = 10.0 ** math.floor(math.log10((hi - lo) / 4.0))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if (hi - lo) / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + step * 1e-9:
        out.append(v)
        v += step
    return out or [lo, hi]


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:.4g}"


def svg_line_plot(
    path: str | Path,
    series: list[tuple[np.ndarray, np.ndarray, str]],
    title: str,
    xlabel: str,
    ylabel: str,
    logx: bool = False,
    logy: bool = False,
) -> None:
    """Write a minimal self-contained SVG line chart (one polyline per series)."""
    xs_all = np.concatenate([np.asarray(s[0], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    keep = np.isfinite(xs_all) & np.isfinite(ys_all)
    if logx:
        keep &= xs_all > 0
    if logy:
        keep &= ys_all > 0
    if not keep.any():
        raise ValueError("nothing plottable")
    x_lo, x_hi = float(xs_all[keep].min()), float(xs_all[keep].max())
    y_lo, y_hi = float(ys_all[keep].min()), float(ys_all[keep].max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + (abs(y_lo) or 1.0) * 1e-3

    def tx(x):
        a, b = (math.log10(x_lo), math.log10(x_hi)) if logx else (x_lo, x_hi)
        v = math.log10(x) if logx else x
        return _ML + (v - a) / (b - a) * (_W - _ML - _MR)

    def ty(y):
        a, b = (math.log10(y_lo), math.log10(y_hi)) if logy else (y_lo, y_hi)
        v = math.log10(y) if logy else y
        return _H - _MB - (v - a) / (b - a) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="Helvetica,Arial,sans-serif">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W/2:.0f}" y="24" text-anchor="middle" font-size="15">{title}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W-_ML-_MR}" height="{_H-_MT-_MB}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
    ]
    for xv in _ticks(x_lo, x_hi, logx):
        px = tx(xv)
        parts.append(
            f'<line x1="{px:.1f}" y1="{_H-_MB}" x2="{px:.1f}" y2="{_H-_MB+5}" stroke="#444"/>'
            f'<text x="{px:.1f}" y="{_H-_MB+20}" text-anchor="middle" font-size="11">{_fmt(xv)}</text>'
        )
    for yv in _ticks(y_lo, y_hi, logy):
        py = ty(yv)
        parts.append(
            f'<line x1="{_ML-5}" y1="{py:.1f}" x2="{_ML}" y2="{py:.1f}" stroke="#444"/>'
            f'<text x="{_ML-8}" y="{py+4:.1f}" text-anchor="end" font-size="11">{_fmt(yv)}</text>'
        )
    parts.append(
        f'<text x="{(_ML+_W-_MR)/2:.0f}" y="{_H-14}" text-anchor="middle" font-size="13">{xlabel}</text>'
    )
    parts.append(
        f'<text x="20" y="{(_MT+_H-_MB)/2:.0f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 20 {(_MT+_H-_MB)/2:.0f})">{ylabel}</text>'
    )
    for i, (xs, ys, label) in enumerate(series):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        ok = np.isfinite(xs) & np.isfinite(ys)
        if logx:
            ok &= xs > 0
        if logy:
            ok &= ys > 0
        pts = " ".join(f"{tx(x):.2f},{ty(y):.2f}" for x, y in zip(xs[ok], ys[ok]))
        color = _COLORS[i % len(_COLORS)]
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
        parts.append(
            f'<text x="{_W-_MR-6}" y="{_MT+16+14*i}" text-anchor="end" font-size="12" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
