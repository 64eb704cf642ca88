"""Grid serialization: markdown tables and styled SVG images."""

from .markdown import parse_markdown, to_markdown
from .svg import STYLE_IDS, RenderView, render_image

__all__ = [
    "parse_markdown",
    "to_markdown",
    "STYLE_IDS",
    "RenderView",
    "render_image",
]
