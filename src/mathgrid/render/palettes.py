"""Default color palettes for grid rendering.

Color roles follow the conventional cross-math look: blue cells for fixed
constants, white cells with red text for targets, yellow cells for operator
and equals signs.
"""

from __future__ import annotations

# role -> (cell fill, text color)
ORIGINAL_PALETTE: dict[str, tuple[str, str]] = {
    "constant": ("#D6E4FF", "#1F3A93"),
    "target": ("#FFFFFF", "#D32F2F"),
    "operator": ("#FFF3B0", "#333333"),
    "equals": ("#FFF3B0", "#333333"),
    "empty": ("none", "none"),
}

# Permuted scheme for the font/palette variation: green constants, purple
# operators, and dark target cells with light text (background/text swap).
ALT_PALETTE: dict[str, tuple[str, str]] = {
    "constant": ("#E8F5E9", "#1B5E20"),
    "target": ("#263238", "#FFD54F"),
    "operator": ("#F3E5F5", "#6A1B9A"),
    "equals": ("#F3E5F5", "#6A1B9A"),
    "empty": ("none", "none"),
}

BORDER_COLOR = "#4A4A4A"
BACKDROP_WASH = "#F1E6CE"

# Muted blobs drawn behind the grid for the textured-background style.
TEXTURE_COLORS = ("#E5C185", "#B8CDAB", "#D4A5A5", "#A5BCD4", "#CBB3D4")

DEFAULT_FONT = "Helvetica, Arial, sans-serif"
ALT_FONT = "Courier New, Courier, monospace"
