"""Prompt assembly per modality from versioned template files.

Templates are loaded verbatim from package resources and never edited at
runtime; the puzzle (markdown table, image part, or both) is appended after
the template's closing line. The same markdown bytes and image bytes are
used across modalities, which keeps the inputs information-equivalent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

from ..core import DatasetExample, MathGridError

TEMPLATE_VERSION = "1"


class MissingStyleArtifact(MathGridError):
    """The example has no image for the requested style."""


class Modality(enum.Enum):
    TEXT_ONLY = "text"
    IMAGE_ONLY = "image"
    IMAGE_TEXT = "image-text"


_TEMPLATE_FILES = {
    Modality.TEXT_ONLY: "text_only.txt",
    Modality.IMAGE_ONLY: "image_only.txt",
    Modality.IMAGE_TEXT: "image_text.txt",
}
TRAJECTORY_TEMPLATE = "trajectory.txt"

_MEDIA_TYPES = {
    ".svg": "image/svg+xml",
    ".png": "image/png",
    ".jpg": "image/jpeg",
    ".jpeg": "image/jpeg",
}


@dataclass(frozen=True)
class TextPart:
    text: str


@dataclass(frozen=True)
class ImagePart:
    data: bytes
    media_type: str


@lru_cache(maxsize=None)
def load_template(name: str) -> str:
    """Template text as shipped; cached since templates are immutable."""
    return (
        resources.files("mathgrid.harness")
        .joinpath("templates", name)
        .read_text(encoding="utf-8")
    )


def template_for(modality: Modality) -> str:
    return load_template(_TEMPLATE_FILES[modality])


def text_prompt(template: str, markdown: str) -> str:
    """The template followed by the markdown grid, as text prompts carry it."""
    return template + "\n" + markdown.rstrip("\n") + "\n"


def _image_part(
    example: DatasetExample, style_id: str | None, images_root: Path | str | None
) -> ImagePart:
    if style_id is None or style_id not in example.images:
        raise MissingStyleArtifact(
            f"example {example.id} has no image for style {style_id!r}; "
            f"available: {sorted(example.images)}"
        )
    path = Path(example.images[style_id])
    if images_root is not None:
        path = Path(images_root) / path
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise MissingStyleArtifact(f"image file {path} is missing") from None
    media_type = _MEDIA_TYPES.get(path.suffix.lower())
    if media_type is None:
        raise MissingStyleArtifact(f"unsupported image type {path.suffix!r}")
    return ImagePart(data=data, media_type=media_type)


def build_prompt(
    example: DatasetExample,
    modality: Modality,
    style_id: str | None = None,
    images_root: Path | str | None = None,
) -> tuple[TextPart | ImagePart, ...]:
    """Assemble the ordered content parts of one request.

    Text-only prompts embed the markdown grid after the instruction;
    image-bearing prompts append the style's image, with the markdown
    preceding the image in the combined case.
    """
    instruction = template_for(modality)
    if modality is Modality.IMAGE_ONLY:
        return (TextPart(instruction), _image_part(example, style_id, images_root))
    text = TextPart(text_prompt(instruction, example.markdown))
    if modality is Modality.TEXT_ONLY:
        return (text,)
    return (text, _image_part(example, style_id, images_root))
