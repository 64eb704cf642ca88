"""Deterministic SVG rendering of puzzle grids in four presentation styles.

The same grid content is drawn in every style; only presentation changes
(strokes, backdrop texture, palette, font). Output bytes are a pure
function of (grid, style, view, seed), which makes snapshot and
equivalence tests exact.
"""

from __future__ import annotations

import enum
import random
import xml.etree.ElementTree as ET
import zlib
from dataclasses import dataclass, field

from ..core import CellKind, Coord, Grid, MathGridError, target_order
from . import palettes
from .markdown import cell_text

STYLE_IDS = ("original", "borderless", "background", "altfontcolor")
CELL_PX = 64


class RenderView(enum.Enum):
    QUERY = "query"
    SOLUTION = "solution"


@dataclass(frozen=True)
class StyleSpec:
    """Presentation parameters for one image style."""

    style_id: str
    palette: dict[str, tuple[str, str]] = field(
        default_factory=lambda: dict(palettes.ORIGINAL_PALETTE)
    )
    border: bool = True
    background: str = "plain"  # or "textured"
    font_family_token: str = palettes.DEFAULT_FONT

    def __post_init__(self) -> None:
        missing = {"constant", "target", "operator", "equals", "empty"} - set(self.palette)
        if missing:
            raise ValueError(f"palette missing roles: {sorted(missing)}")
        if self.style_id == "borderless" and self.border:
            raise ValueError("borderless style cannot draw borders")
        if self.style_id == "background" and self.background != "textured":
            raise ValueError("background style requires a textured backdrop")

    @staticmethod
    def of(style_id: str) -> StyleSpec:
        """Built-in spec for one of the four standard styles."""
        if style_id == "original":
            return StyleSpec("original")
        if style_id == "borderless":
            return StyleSpec("borderless", border=False)
        if style_id == "background":
            return StyleSpec("background", background="textured")
        if style_id == "altfontcolor":
            return StyleSpec(
                "altfontcolor",
                palette=dict(palettes.ALT_PALETTE),
                font_family_token=palettes.ALT_FONT,
            )
        raise ValueError(f"unknown style {style_id!r}; expected one of {STYLE_IDS}")


def texture_seed_for(example_id: str) -> int:
    """Stable per-example seed for the background texture."""
    return zlib.crc32(example_id.encode("utf-8"))


def _num(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else f"{x:.2f}"


_ROLES = {
    CellKind.NUMBER: "constant",
    CellKind.TARGET: "target",
    CellKind.OPERATOR: "operator",
    CellKind.EQUALS: "equals",
    CellKind.EMPTY: "empty",
}


def _texture_elements(width: int, height: int, seed: int) -> list[str]:
    """Seeded low-contrast blobs behind the grid."""
    rng = random.Random(seed)
    parts = [f'<rect x="0" y="0" width="{width}" height="{height}" fill="{palettes.BACKDROP_WASH}"/>']
    n_blobs = 14 + rng.randrange(10)
    for _ in range(n_blobs):
        cx = rng.randrange(width + 1)
        cy = rng.randrange(height + 1)
        radius = 12 + rng.randrange(max(width, height) // 3)
        color = rng.choice(palettes.TEXTURE_COLORS)
        parts.append(
            f'<circle cx="{cx}" cy="{cy}" r="{radius}" fill="{color}" fill-opacity="0.35"/>'
        )
    return parts


def render_image(
    grid: Grid,
    style: StyleSpec,
    view: RenderView = RenderView.QUERY,
    rng_seed: int = 0,
    answers: list[int] | tuple[int, ...] | None = None,
) -> bytes:
    """Render the grid as standalone SVG bytes.

    In SOLUTION view, targets display their answer value in the target text
    color; ``answers`` is required whenever the grid contains targets.
    """
    targets = target_order(grid)
    answers_left = None
    if view is RenderView.SOLUTION and targets:
        if answers is None or len(answers) != len(targets):
            raise MathGridError(
                f"solution view needs {len(targets)} answers, got "
                f"{'none' if answers is None else len(answers)}"
            )
        answers_left = iter(answers)  # consumed in target order by the scan

    px = CELL_PX
    cols = grid.cols
    width, height = cols * px, grid.rows * px
    font_size = round(px * 0.42)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" data-cell-px="{px}">',
    ]
    if style.background == "textured":
        parts.append('<g class="texture">')
        parts.extend(_texture_elements(width, height, rng_seed))
        parts.append("</g>")

    stroke = f' stroke="{palettes.BORDER_COLOR}" stroke-width="2"' if style.border else ""
    text_style = (
        'text-anchor="middle" dominant-baseline="central" '
        f'font-family="{style.font_family_token}" font-size="{font_size}"'
    )
    rects = []
    texts = []
    for i, cell in enumerate(grid.cells):
        kind = cell.kind
        if kind is CellKind.EMPTY:
            continue
        fill, text_color = style.palette[_ROLES[kind]]
        x, y = (i % cols) * px, (i // cols) * px
        rects.append(
            f'<rect x="{x}" y="{y}" width="{px}" height="{px}" fill="{fill}"{stroke}/>'
        )
        if kind is CellKind.TARGET and answers_left is not None:
            glyph = str(next(answers_left))
        else:
            glyph = cell_text(cell)
        texts.append(
            f'<text x="{_num(x + px / 2)}" y="{_num(y + px / 2)}" '
            f'{text_style} fill="{text_color}">{glyph}</text>'
        )
    parts.append('<g class="cells">')
    parts.extend(rects)
    parts.append("</g>")
    parts.append('<g class="glyphs">')
    parts.extend(texts)
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts).encode("utf-8")


def extract_text_cells(svg_bytes: bytes) -> list[tuple[Coord, str]]:
    """Read back (coordinate, glyph) pairs from a rendered document.

    Coordinates are recovered from element geometry, not from any metadata,
    so this doubles as an information-equivalence audit of the image.
    """
    root = ET.fromstring(svg_bytes)
    declared = root.get("data-cell-px")
    if declared is None:
        raise MathGridError("document does not declare a cell size")
    cell_px = int(declared)
    ns = "{http://www.w3.org/2000/svg}"
    out: list[tuple[Coord, str]] = []
    for el in root.iter(f"{ns}text"):
        col = int(float(el.get("x")) // cell_px)
        row = int(float(el.get("y")) // cell_px)
        out.append((Coord(row, col), el.text or ""))
    return sorted(out, key=lambda item: item[0])
