"""Each request body is the bytes ``json.dumps`` gave of the payload dict.

The body was once built as a dict of the model field, one user message with
a text part per ``TextPart`` and a data-URL part per ``ImagePart``, and
``sampling``, which the sender then dumped. The reference below keeps that
dict and its dump. The live builder must give the same bytes for any
parts, model field, model name and ``sampling``: the endpoint sees nothing
else, and one that keys on the body's bytes must see them unchanged.
"""

from __future__ import annotations

import base64
import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from mathgrid.harness import build_prompt
from mathgrid.harness.client import EndpointConfig, build_chat_payload
from mathgrid.harness.prompts import _MEDIA_TYPES, ImagePart, Modality, TextPart
from mathgrid.manifest import load_manifest
from mathgrid.render.svg import STYLE_IDS

# -- reference implementation -----------------------------------------------


def reference_bundle_to_messages(parts: tuple[TextPart | ImagePart, ...]) -> list[dict]:
    """Chat-completions message list with text and base64 image parts."""
    content: list[dict] = []
    for part in parts:
        if isinstance(part, TextPart):
            content.append({"type": "text", "text": part.text})
        elif isinstance(part, ImagePart):
            b64 = base64.b64encode(part.data).decode("ascii")
            content.append(
                {
                    "type": "image_url",
                    "image_url": {"url": f"data:{part.media_type};base64,{b64}"},
                }
            )
    return [{"role": "user", "content": content}]


def reference_build_chat_payload(
    parts: tuple[TextPart | ImagePart, ...], config: EndpointConfig
) -> dict:
    payload = {
        config.model_field: config.model_name,
        "messages": reference_bundle_to_messages(parts),
    }
    payload.update(config.sampling)
    return payload


def reference_body(parts: tuple[TextPart | ImagePart, ...], config: EndpointConfig) -> bytes:
    return json.dumps(reference_build_chat_payload(parts, config), allow_nan=False).encode()


# -- strategies -----------------------------------------------------------------

# what JSON escapes, or writes as \u escapes: quote, backslash, control
# characters, non-ASCII within and beyond the basic plane
_TRICKY = '"\\/\x00\x01\x1f\x7f\b\f\n\r\t é€ 😀|?'
_strings = st.text() | st.text(alphabet=_TRICKY)
_texts = st.builds(TextPart, _strings)
_media_types = st.sampled_from(sorted(set(_MEDIA_TYPES.values()))) | st.text(alphabet='"\\/;:+é\n ab')
_images = st.builds(ImagePart, st.binary(max_size=48), _media_types)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | _strings,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(_strings, children, max_size=3),
    max_leaves=8,
)


# -- tests ------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    parts=st.lists(_texts | _images, max_size=4).map(tuple),
    model_field=_strings.filter(bool),
    model_name=_strings.filter(bool),
    sampling=st.dictionaries(_strings, _json_values, max_size=4),
)
def test_body_agrees_with_reference(parts, model_field, model_name, sampling):
    assume(model_field != "messages" and not {model_field, "messages"} & set(sampling))
    config = EndpointConfig(
        base_url="http://x", model_name=model_name, model_field=model_field, sampling=sampling
    )
    assert build_chat_payload(parts, config) == reference_body(parts, config)


@pytest.mark.parametrize(
    "parts",
    [
        (TextPart("grid"), ImagePart(b"<svg/>", "image/svg+xml")),
        (ImagePart(b"\x89PNG", "image/png"), TextPart("after the image")),
        (ImagePart(b"\xff\xd8", 'image/"jpeg"\\'), TextPart('a "quote" \\ and \x00')),
        (),
    ],
    ids=["text-then-image", "image-then-text", "escaped-media-type", "no-parts"],
)
def test_body_agrees_with_reference_on_chosen_parts(parts):
    config = EndpointConfig(
        base_url="http://x", model_name="m é", model_field="engine",
        sampling={"temperature": 0.2, "stop": ["</answer>", "\n"], "extra": {"a": [1, None, True]}},
    )
    assert build_chat_payload(parts, config) == reference_body(parts, config)


def test_body_agrees_with_reference_on_every_prompt(dataset_dir):
    config = EndpointConfig(base_url="http://x", model_name="m")
    for example in load_manifest(dataset_dir / "manifest.jsonl"):
        prompts = [build_prompt(example, Modality.TEXT_ONLY)] + [
            build_prompt(example, modality, style_id, dataset_dir)
            for modality in (Modality.IMAGE_ONLY, Modality.IMAGE_TEXT)
            for style_id in STYLE_IDS
        ]
        for parts in prompts:
            assert build_chat_payload(parts, config) == reference_body(parts, config)
