"""The shared-sheet renderer agrees with the per-document renderer it replaced.

``render_image`` keeps what the documents of one grid share (positions,
glyphs, header, texture and each style's blocks) in a one-slot memo keyed
on the grid's identity and the answers. The reference below builds every
document from nothing, exactly as the package first did; in any order of
grids, styles, views, answers and texture seeds both must give the same
bytes, or the same ``MathGridError`` text.
"""

from __future__ import annotations

import sys
import threading

from hypothesis import given, settings, strategies as st

from mathgrid.core import CellKind, Grid, MathGridError, target_order
from mathgrid.generator import Difficulty, GenParams, generate, mix_seed
from mathgrid.render import palettes
from mathgrid.render.markdown import cell_text, parse_markdown, to_markdown
from mathgrid.render.svg import (
    _ROLES,
    CELL_PX,
    STYLE_IDS,
    RenderView,
    _num,
    _texture_elements,
    render_image,
)

from conftest import REFERENCE_ANSWERS, reference_grid

# -- reference implementation -----------------------------------------------

# The four styles as the package first defined them:
# style id -> (cell borders, backdrop, font family, role palette)
REFERENCE_STYLES = {
    "original": (True, "plain", palettes.DEFAULT_FONT, palettes.ORIGINAL_PALETTE),
    "borderless": (False, "plain", palettes.DEFAULT_FONT, palettes.ORIGINAL_PALETTE),
    "background": (True, "textured", palettes.DEFAULT_FONT, palettes.ORIGINAL_PALETTE),
    "altfontcolor": (True, "plain", palettes.ALT_FONT, palettes.ALT_PALETTE),
}


def reference_render_image(grid, style_id, view=RenderView.QUERY, rng_seed=0, answers=None):
    border, background, font, palette = REFERENCE_STYLES[style_id]
    targets = target_order(grid)
    answers_left = None
    if view is RenderView.SOLUTION and targets:
        if answers is None or len(answers) != len(targets):
            raise MathGridError(
                f"solution view needs {len(targets)} answers, got "
                f"{'none' if answers is None else len(answers)}"
            )
        answers_left = iter(answers)

    px = CELL_PX
    cols = grid.cols
    width, height = cols * px, grid.rows * px
    font_size = round(px * 0.42)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" data-cell-px="{px}">',
    ]
    if background == "textured":
        parts.append('<g class="texture">')
        parts.extend(_texture_elements(width, height, rng_seed))
        parts.append("</g>")

    stroke = f' stroke="{palettes.BORDER_COLOR}" stroke-width="2"' if border else ""
    text_style = (
        'text-anchor="middle" dominant-baseline="central" '
        f'font-family="{font}" font-size="{font_size}"'
    )
    rects = []
    texts = []
    for i, cell in enumerate(grid.cells):
        kind = cell.kind
        if kind is CellKind.EMPTY:
            continue
        fill, text_color = palette[_ROLES[kind]]
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


def outcome(render, *args):
    """The document, or the text of the MathGridError."""
    try:
        return render(*args)
    except MathGridError as exc:
        return ("MathGridError", str(exc))


def assert_agrees(grid, style_id, view, seed, answers) -> None:
    args = (grid, style_id, view, seed, answers)
    assert outcome(render_image, *args) == outcome(reference_render_image, *args)


# -- random interleavings -------------------------------------------------------

_RANGES = [(50, 250), (1, 12), (1, 100), (5, 1000)]
_examples = st.builds(
    lambda difficulty, value_range, seed: generate(
        GenParams(difficulty=difficulty, value_range=value_range, seed=seed)
    ),
    st.sampled_from(list(Difficulty)),
    st.sampled_from(_RANGES),
    st.integers(0, 2**32),
)


def _answers(example, mode):
    return {"tuple": example.gold_answers, "list": list(example.gold_answers),
            "none": None, "short": example.gold_answers[:-1]}[mode]


_renders = st.tuples(
    st.integers(0, 2),  # which example
    st.sampled_from(STYLE_IDS),
    st.sampled_from(list(RenderView)),
    st.integers(0, 2**32),  # texture seed
    st.sampled_from(["tuple", "tuple", "tuple", "list", "none", "short"]),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_examples, min_size=3, max_size=3), st.lists(_renders, min_size=1, max_size=24))
def test_renderer_agrees_with_reference(examples, renders):
    for which, style_id, view, seed, mode in renders:
        example = examples[which]
        assert_agrees(example.grid, style_id, view, seed, _answers(example, mode))


def test_eight_documents_of_generated_examples_agree(mixed_corpus):
    for example in mixed_corpus[::5]:
        for style_id in STYLE_IDS:
            for view in RenderView:
                assert_agrees(example.grid, style_id, view, 1234, example.gold_answers)


# -- fixed cases ----------------------------------------------------------------


def test_same_grid_with_different_answers():
    grid = reference_grid()
    for answers in (REFERENCE_ANSWERS, [1, 2, 3, 4], REFERENCE_ANSWERS):
        assert_agrees(grid, "original", RenderView.SOLUTION, 0, answers)


def test_equal_but_distinct_grid():
    grid = reference_grid()
    twin = parse_markdown(to_markdown(grid))
    assert twin == grid and twin is not grid
    assert_agrees(grid, "background", RenderView.SOLUTION, 5, REFERENCE_ANSWERS)
    assert_agrees(twin, "background", RenderView.SOLUTION, 5, REFERENCE_ANSWERS)
    assert_agrees(twin, "background", RenderView.QUERY, 6, REFERENCE_ANSWERS)


def test_grid_a_then_b_then_a():
    a = reference_grid()
    b = generate(GenParams(difficulty=Difficulty.HARD, seed=mix_seed(3, 1)))
    renders = [(a, REFERENCE_ANSWERS), (b.grid, b.gold_answers), (a, REFERENCE_ANSWERS)]
    for grid, answers in renders:
        for view in RenderView:
            assert_agrees(grid, "original", view, 0, answers)


def test_wrong_answer_count_gives_the_same_error():
    grid = reference_grid()
    render_image(grid, "original", RenderView.QUERY, 0, [1, 2])  # the memo now holds [1, 2]
    for answers in ([1, 2], None, REFERENCE_ANSWERS + [9]):
        assert outcome(render_image, grid, "original", RenderView.SOLUTION, 0, answers) == (
            "MathGridError",
            f"solution view needs 4 answers, got {'none' if answers is None else len(answers)}",
        )
        assert_agrees(grid, "original", RenderView.SOLUTION, 0, answers)


def test_grid_without_targets_in_solution_view():
    numbers = [cell for cell in reference_grid().cells if cell.kind is CellKind.NUMBER]
    grid = Grid.from_rows([numbers])
    for style_id in STYLE_IDS:
        assert_agrees(grid, style_id, RenderView.SOLUTION, 3, None)


def test_threads_sharing_the_memo_render_their_own_grids():
    examples = [
        generate(GenParams(difficulty=Difficulty.MEDIUM, seed=mix_seed(21, i))) for i in range(4)
    ]
    jobs = [
        (ex.grid, style_id, view, 7, ex.gold_answers)
        for ex in examples for style_id in STYLE_IDS for view in RenderView
    ]
    expected = [reference_render_image(*job) for job in jobs]
    mismatches = []

    def worker(offset: int) -> None:
        for round_ in range(10):
            for k in range(len(jobs)):
                i = (k * (offset + 1) + round_) % len(jobs)
                if render_image(*jobs[i]) != expected[i]:
                    mismatches.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
