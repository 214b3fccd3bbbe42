"""Deterministic standalone SVG figures: probability histograms and
dendrograms. No plotting library is used so that byte-identical reruns
are guaranteed."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ._io import write_artifact
from .clustering import Dendrogram
from .errors import RenderError

__all__ = ["render_histogram", "render_dendrogram"]

_FONT = "font-family=\"Helvetica, Arial, sans-serif\""


def _svg_header(width: int, height: int) -> list[str]:
    return [
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?>",
        f"<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width}\" "
        f"height=\"{height}\" viewBox=\"0 0 {width} {height}\">",
        f"<rect width=\"{width}\" height=\"{height}\" fill=\"white\"/>",
    ]


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".") if v != int(v) else str(int(v))


def render_histogram(
    probabilities: np.ndarray,
    bins: int,
    path: str | Path,
    title: str = "Risk probabilities",
) -> None:
    """Write a bar histogram of probabilities over [0, 1] as SVG.

    Bin counts always sum to the number of input values; the last bin is
    closed at 1.0.
    """
    values = np.asarray(probabilities, np.float64)
    if values.size == 0:
        raise RenderError("cannot draw a histogram of an empty vector")
    if bins < 1:
        raise RenderError("bins must be at least 1")
    if values.min() < 0.0 or values.max() > 1.0:
        raise RenderError("probabilities must lie in [0, 1]")
    counts, edges = np.histogram(values, bins=bins, range=(0.0, 1.0))

    width, height = 640, 420
    left, right, top, bottom = 70, 20, 50, 60
    plot_w = width - left - right
    plot_h = height - top - bottom
    ymax = max(int(counts.max()), 1)

    out = _svg_header(width, height)
    out.append(
        f"<text x=\"{width // 2}\" y=\"28\" text-anchor=\"middle\" "
        f"font-size=\"16\" {_FONT}>{_esc(title)}</text>"
    )
    # y axis with ~5 ticks
    n_ticks = min(5, ymax)
    for k in range(n_ticks + 1):
        val = round(ymax * k / n_ticks)
        y = top + plot_h - plot_h * val / ymax
        out.append(
            f"<line x1=\"{left - 5}\" y1=\"{y:.1f}\" x2=\"{left}\" "
            f"y2=\"{y:.1f}\" stroke=\"black\"/>"
        )
        out.append(
            f"<text x=\"{left - 9}\" y=\"{y + 4:.1f}\" text-anchor=\"end\" "
            f"font-size=\"11\" {_FONT}>{val}</text>"
        )
    # x axis ticks at multiples of 0.2
    for k in range(6):
        frac = k / 5
        x = left + plot_w * frac
        out.append(
            f"<line x1=\"{x:.1f}\" y1=\"{top + plot_h}\" x2=\"{x:.1f}\" "
            f"y2=\"{top + plot_h + 5}\" stroke=\"black\"/>"
        )
        out.append(
            f"<text x=\"{x:.1f}\" y=\"{top + plot_h + 20}\" "
            f"text-anchor=\"middle\" font-size=\"11\" {_FONT}>{_fmt(frac)}</text>"
        )
    out.append(
        f"<text x=\"{left + plot_w / 2:.1f}\" y=\"{height - 12}\" "
        f"text-anchor=\"middle\" font-size=\"13\" {_FONT}>probability</text>"
    )
    out.append(
        f"<text x=\"18\" y=\"{top + plot_h / 2:.1f}\" text-anchor=\"middle\" "
        f"font-size=\"13\" {_FONT} transform=\"rotate(-90 18 "
        f"{top + plot_h / 2:.1f})\">count</text>"
    )
    # bars
    for k, c in enumerate(counts):
        if c == 0:
            continue
        x0 = left + plot_w * edges[k]
        x1 = left + plot_w * edges[k + 1]
        h = plot_h * c / ymax
        out.append(
            f"<rect class=\"bar\" x=\"{x0:.2f}\" y=\"{top + plot_h - h:.2f}\" "
            f"width=\"{x1 - x0:.2f}\" height=\"{h:.2f}\" fill=\"#4878a8\" "
            f"stroke=\"white\" stroke-width=\"0.5\"><title>{c}</title></rect>"
        )
    out.append(
        f"<line x1=\"{left}\" y1=\"{top + plot_h}\" x2=\"{left + plot_w}\" "
        f"y2=\"{top + plot_h}\" stroke=\"black\"/>"
    )
    out.append(
        f"<line x1=\"{left}\" y1=\"{top}\" x2=\"{left}\" "
        f"y2=\"{top + plot_h}\" stroke=\"black\"/>"
    )
    out.append("</svg>")
    with write_artifact(path) as fh:
        fh.writelines(f"{line}\n" for line in out)


def render_dendrogram(
    dg: Dendrogram,
    path: str | Path,
    title: str = "Predictor clustering",
) -> None:
    """Write a leaf-labeled dendrogram as SVG.

    Merge heights run up the vertical axis and the agglomerative
    coefficient is printed beneath the tree.
    """
    p = dg.p
    leaf_order = _leaf_order(dg)

    label_space = 14 + 7 * max(len(lbl) for lbl in dg.labels)
    width = max(420, 60 + 24 * p + 20)
    height = 360 + label_space
    left, right, top = 60, 20, 50
    plot_w = width - left - right
    plot_h = 300
    hmax = float(dg.heights[-1]) if dg.heights[-1] > 0 else 1.0

    xs = {
        leaf: left + plot_w * (k + 0.5) / p for k, leaf in enumerate(leaf_order)
    }
    ys = {leaf: top + plot_h for leaf in range(p)}

    out = _svg_header(width, height)
    out.append(
        f"<text x=\"{width // 2}\" y=\"28\" text-anchor=\"middle\" "
        f"font-size=\"16\" {_FONT}>{_esc(title)}</text>"
    )
    # height axis
    for k in range(6):
        frac = k / 5
        y = top + plot_h - plot_h * frac
        out.append(
            f"<line x1=\"{left - 5}\" y1=\"{y:.1f}\" x2=\"{left}\" "
            f"y2=\"{y:.1f}\" stroke=\"black\"/>"
        )
        out.append(
            f"<text x=\"{left - 9}\" y=\"{y + 4:.1f}\" text-anchor=\"end\" "
            f"font-size=\"11\" {_FONT}>{hmax * frac:.2f}</text>"
        )
    out.append(
        f"<line x1=\"{left}\" y1=\"{top}\" x2=\"{left}\" "
        f"y2=\"{top + plot_h}\" stroke=\"black\"/>"
    )
    out.append(
        f"<text x=\"16\" y=\"{top + plot_h / 2:.1f}\" text-anchor=\"middle\" "
        f"font-size=\"13\" {_FONT} transform=\"rotate(-90 16 "
        f"{top + plot_h / 2:.1f})\">height</text>"
    )

    for step, (a, b) in enumerate(dg.merges):
        a, b = int(a), int(b)
        hy = top + plot_h - plot_h * float(dg.heights[step]) / hmax
        xa, xb = xs[a], xs[b]
        out.append(
            f"<path d=\"M {xa:.2f} {ys[a]:.2f} V {hy:.2f} H {xb:.2f} "
            f"V {ys[b]:.2f}\" fill=\"none\" stroke=\"#333333\" "
            f"stroke-width=\"1.2\"/>"
        )
        node = p + step
        xs[node] = (xa + xb) / 2
        ys[node] = hy

    for leaf in range(p):
        x = xs[leaf]
        y = top + plot_h + 12
        out.append(
            f"<text class=\"leaf\" x=\"{x:.2f}\" y=\"{y}\" font-size=\"11\" "
            f"{_FONT} text-anchor=\"end\" transform=\"rotate(-60 {x:.2f} "
            f"{y})\">{_esc(dg.labels[leaf])}</text>"
        )

    out.append(
        f"<text x=\"{left}\" y=\"{height - 10}\" font-size=\"13\" {_FONT}>"
        f"Agglomerative coefficient: "
        f"{dg.agglomerative_coefficient:.2f}</text>"
    )
    out.append("</svg>")
    with write_artifact(path) as fh:
        fh.writelines(f"{line}\n" for line in out)


def _leaf_order(dg: Dendrogram) -> list[int]:
    """Left-to-right leaf ordering from a depth-first walk of the merges."""
    children = {
        dg.p + k: (int(a), int(b)) for k, (a, b) in enumerate(dg.merges)
    }
    order: list[int] = []
    stack = [dg.p + len(dg.merges) - 1]
    while stack:
        node = stack.pop()
        if node < dg.p:
            order.append(node)
        else:
            a, b = children[node]
            stack.append(b)
            stack.append(a)
    return order


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )
