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

from ..core import CellKind, Coord, Grid, MathGridError, target_order
from . import palettes
from .markdown import cell_text

# style id -> (cell borders, textured backdrop, font family, role palette)
_STYLES = {
    "original": (True, False, palettes.DEFAULT_FONT, palettes.ORIGINAL_PALETTE),
    "borderless": (False, False, palettes.DEFAULT_FONT, palettes.ORIGINAL_PALETTE),
    "background": (True, True, palettes.DEFAULT_FONT, palettes.ORIGINAL_PALETTE),
    "altfontcolor": (True, False, palettes.ALT_FONT, palettes.ALT_PALETTE),
}
STYLE_IDS = tuple(_STYLES)
CELL_PX = 64


class RenderView(enum.Enum):
    QUERY = "query"
    SOLUTION = "solution"


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


class _Sheet:
    """What the documents of one grid and its answers share.

    Positions, glyphs, the header and each texture are made once, and each
    style's cell block and per-role glyph attributes once per style.
    """

    def __init__(self, grid: Grid, answers: tuple[int, ...] | None) -> None:
        self.grid, self.answers = grid, answers
        self.n_targets = len(target_order(grid))
        px, cols = CELL_PX, grid.cols
        self.width, self.height = cols * px, grid.rows * px
        self.head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}" '
            f'data-cell-px="{px}">'
        )
        answers_left = iter(answers) if answers and len(answers) == self.n_targets else None
        self.drawn: list[tuple[str, str, str]] = []  # (role, rect start, text start)
        self.glyphs: list[str] = []
        # The solution view's glyphs, or None when the answers do not fit the targets.
        self.solved: list[str] | None = None if answers_left is None else []
        empty, target = CellKind.EMPTY, CellKind.TARGET
        for i, cell in enumerate(grid.cells):
            kind = cell.kind
            if kind is empty:
                continue
            x, y = (i % cols) * px, (i // cols) * px
            self.drawn.append((
                _ROLES[kind],
                f'<rect x="{x}" y="{y}" width="{px}" height="{px}" fill="',
                f'<text x="{_num(x + px / 2)}" y="{_num(y + px / 2)}" ',
            ))
            glyph = cell_text(cell)
            self.glyphs.append(glyph)
            if answers_left is not None:
                self.solved.append(str(next(answers_left)) if kind is target else glyph)
        self.styles: dict[str, tuple[str, dict[str, str]]] = {}
        self.textures: dict[int, str] = {}

    def style_parts(self, style_id: str) -> tuple[str, dict[str, str]]:
        """The style's cell-rectangle block, and each role's glyph attributes."""
        parts = self.styles.get(style_id)
        if parts is None:
            border, _, font, palette = _STYLES[style_id]
            stroke = f' stroke="{palettes.BORDER_COLOR}" stroke-width="2"' if border else ""
            text_style = (
                'text-anchor="middle" dominant-baseline="central" '
                f'font-family="{font}" font-size="{round(CELL_PX * 0.42)}"'
            )
            rects = [f'{rect}{palette[role][0]}"{stroke}/>' for role, rect, _ in self.drawn]
            attrs = {role: f'{text_style} fill="{color}">' for role, (_, color) in palette.items()}
            parts = self.styles[style_id] = (
                "\n".join(['<g class="cells">', *rects, "</g>"]), attrs
            )
        return parts

    def texture(self, seed: int) -> str:
        block = self.textures.get(seed)
        if block is None:
            elements = _texture_elements(self.width, self.height, seed)
            block = self.textures[seed] = "\n".join(['<g class="texture">', *elements, "</g>"])
        return block


# The last grid rendered, for the other documents of the same example. It
# holds a reference to the grid, so an identity match is always that grid.
# Threads swap in whole sheets: at worst one builds a sheet twice.
_last_sheet: _Sheet | None = None


def render_image(
    grid: Grid,
    style_id: str,
    view: RenderView = RenderView.QUERY,
    rng_seed: int = 0,
    answers: list[int] | tuple[int, ...] | None = None,
) -> bytes:
    """Render the grid as standalone SVG bytes in one of ``STYLE_IDS``.

    In SOLUTION view, targets display their answer value in the target text
    color; ``answers`` is required whenever the grid contains targets.
    """
    global _last_sheet
    if style_id not in _STYLES:
        raise ValueError(f"unknown style {style_id!r}; expected one of {STYLE_IDS}")
    key = None if answers is None else tuple(answers)
    sheet = _last_sheet
    if sheet is None or sheet.grid is not grid or sheet.answers != key:
        sheet = _last_sheet = _Sheet(grid, key)
    glyphs = sheet.glyphs
    if view is RenderView.SOLUTION and sheet.n_targets:
        if sheet.solved is None:
            raise MathGridError(
                f"solution view needs {sheet.n_targets} answers, got "
                f"{'none' if answers is None else len(answers)}"
            )
        glyphs = sheet.solved
    cells, attrs = sheet.style_parts(style_id)
    parts = [sheet.head]
    if _STYLES[style_id][1]:  # textured backdrop
        parts.append(sheet.texture(rng_seed))
    parts += [cells, '<g class="glyphs">']
    parts.extend(
        f"{text}{attrs[role]}{glyph}</text>" for (role, _, text), glyph in zip(sheet.drawn, glyphs)
    )
    parts += ["</g>", "</svg>"]
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
