"""Grid serialization: markdown tables and styled SVG images."""

from .markdown import ParseError, cell_text, parse_markdown, to_markdown
from .svg import (
    STYLE_IDS,
    RenderView,
    StyleSpec,
    extract_text_cells,
    render_image,
    texture_seed_for,
)

__all__ = [
    "ParseError",
    "cell_text",
    "parse_markdown",
    "to_markdown",
    "STYLE_IDS",
    "RenderView",
    "StyleSpec",
    "extract_text_cells",
    "render_image",
    "texture_seed_for",
]
