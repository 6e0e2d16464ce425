"""Deterministic serialization: CSV tables, JSON reports, SVG plots.

Identical inputs must produce byte-identical outputs, so every format
here is pinned: floats print with 17 significant digits, rationals as
"p/q", JSON with sorted keys and two-space indent, CSV with a header row
and no locale formatting.  The manifest holds no clock reading, so
reruns compare byte for byte, manifest included.
"""

from __future__ import annotations

import json
import os
from collections.abc import Sequence
from fractions import Fraction
from math import gcd

from . import __version__


def frac_str(value: Fraction) -> str:
    """Exact "p/q" form, denominator always written."""
    return f"{value.numerator}/{value.denominator}"


def float17(value: float) -> str:
    """17 significant digits, enough to round-trip a double."""
    return f"{value:.17g}"


def json_text(obj: object) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def csv_text(columns: Sequence[str], rows: Sequence[Sequence[object]],
             preamble: Sequence[str] = ()) -> str:
    """Plain CSV with an optional '#' comment preamble."""
    lines = [f"# {line}" for line in preamble]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(str(cell) for cell in row))
    return "\n".join(lines) + "\n"


def profile_csv(profile: LanguageProfile) -> str:
    rows = [(r.n, r.count, float17(r.entropy), r.omega,
             frac_str(r.omega_over_n)) for r in profile.rows]
    return csv_text(("n", "c_n", "h_n", "omega_n", "omega_over_n"), rows)


def fstat_csv(report: FStatReport) -> str:
    preamble = (f"l={report.l}", f"x={report.x_label}", f"y={report.y_label}",
                f"tail_min={frac_str(report.tail_min)}")
    rows = [(n, frac_str(f)) for n, f in report.values]
    return csv_text(("n", "F_n"), rows, preamble)


def density_json(report: DensityReport) -> dict:
    return {
        "horizon": report.horizon,
        "n0": report.n0,
        "lower_est": frac_str(report.lower_est),
        "upper_est": frac_str(report.upper_est),
        "banach_profile": [[w, frac_str(d)] for w, d in report.banach_profile],
        "prefix_final": frac_str(Fraction(report.prefix_counts[-1],
                                          report.horizon)),
    }


def density_prefix_csv(report: DensityReport) -> str:
    # each row is frac_str(Fraction(count, n)), reduced by one gcd
    # without building the Fraction
    rows = []
    for n, count in enumerate(report.prefix_counts, 1):
        g = gcd(count, n)
        rows.append((n, f"{count // g}/{n // g}"))
    return csv_text(("n", "prefix_density"), rows)


def density_banach_csv(report: DensityReport) -> str:
    rows = [(w, frac_str(d)) for w, d in report.banach_profile]
    return csv_text(("W", "banach_density"), rows)


def build_manifest(parameters: dict, spec_digests: dict) -> dict:
    """Run manifest: the tool version, the resolved parameters and the
    spec digests, and nothing else, so it is deterministic."""
    return {
        "tool": {"name": "spacelab", "version": __version__},
        "parameters": parameters,
        "spec_digests": spec_digests,
    }


def write_text(path: str, text: str) -> None:
    """Atomic write: temp file in the same directory, then rename."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = path + ".tmp"
    fh = open(tmp, "w", encoding="ascii", newline="\n")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)  # ours once opened, so no NAME.tmp is left
        raise


_PALETTE = ("#1f6feb", "#d1242f", "#1a7f37", "#8250df", "#9a6700")


def _coord(value: float) -> str:
    return f"{value:.2f}"


def svg_line_plot(series: Sequence[tuple], title: str,
                  x_label: str, y_label: str) -> str:
    """Minimal deterministic line plot.

    Parameters
    ----------
    series : sequence of (label, xs, ys)
        One polyline per entry; coordinates are plotted with fixed
        2-decimal precision on a 640x400 canvas.
    """
    width, height = 640.0, 400.0
    ml, mr, mt, mb = 60.0, 20.0, 40.0, 50.0
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        raise ValueError("nothing to plot")
    x_min, x_max = min(xs_all), max(xs_all)
    y_min, y_max = min(ys_all), max(ys_all)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0

    def px(x: float) -> float:
        return ml + (x - x_min) / (x_max - x_min) * (width - ml - mr)

    def py(y: float) -> float:
        return height - mb - (y - y_min) / (y_max - y_min) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
        f'<line x1="{_coord(ml)}" y1="{_coord(height - mb)}" '
        f'x2="{_coord(width - mr)}" y2="{_coord(height - mb)}" stroke="black"/>',
        f'<line x1="{_coord(ml)}" y1="{_coord(mt)}" '
        f'x2="{_coord(ml)}" y2="{_coord(height - mb)}" stroke="black"/>',
        f'<text x="{width / 2:.0f}" y="{height - 12:.0f}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">{x_label}</text>',
        f'<text x="16" y="{height / 2:.0f}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" '
        f'transform="rotate(-90 16 {height / 2:.0f})">{y_label}</text>',
        f'<text x="{_coord(ml)}" y="{_coord(height - mb + 16)}" '
        f'font-family="monospace" font-size="10">{x_min:.6g}</text>',
        f'<text x="{_coord(width - mr)}" y="{_coord(height - mb + 16)}" '
        f'text-anchor="end" font-family="monospace" font-size="10">{x_max:.6g}</text>',
        f'<text x="{_coord(ml - 4)}" y="{_coord(height - mb)}" text-anchor="end" '
        f'font-family="monospace" font-size="10">{y_min:.6g}</text>',
        f'<text x="{_coord(ml - 4)}" y="{_coord(mt + 4)}" text-anchor="end" '
        f'font-family="monospace" font-size="10">{y_max:.6g}</text>',
    ]
    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(f"{_coord(px(x))},{_coord(py(y))}"
                          for x, y in zip(xs, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{points}"/>')
        parts.append(f'<text x="{_coord(width - mr - 4)}" '
                     f'y="{_coord(mt + 14 + 14 * idx)}" text-anchor="end" '
                     f'font-family="monospace" font-size="11" '
                     f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
