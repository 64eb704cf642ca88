from __future__ import annotations

import re
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from mathgrid.core import Cell, CellKind, Coord, EMPTY, EQUALS, Grid, Operator, TARGET
from mathgrid.render import RenderView, STYLE_IDS, parse_markdown, render_image, to_markdown
from mathgrid.render.markdown import ParseError
from mathgrid.render.palettes import ORIGINAL_PALETTE
from mathgrid.render.svg import extract_text_cells

from conftest import REFERENCE_MARKDOWN, coords


class TestToMarkdown:
    def test_single_row(self):
        grid = Grid.from_rows(
            [
                [
                    Cell.number(7),
                    Cell.operator(Operator.ADD),
                    Cell.number(5),
                    EQUALS,
                    Cell.number(12),
                ]
            ]
        )
        assert to_markdown(grid) == "| 7 | + | 5 | = | 12 |\n"

    def test_empty_row(self):
        grid = Grid.from_rows([[EMPTY, EMPTY, EMPTY]])
        assert to_markdown(grid) == "|   |   |   |\n"

    def test_reference_grid_canonical_form(self, appendix_grid):
        text = to_markdown(appendix_grid)
        assert text.endswith("\n")
        assert len(text.splitlines()) == appendix_grid.rows
        assert all(line.count("|") == appendix_grid.cols + 1 for line in text.splitlines())
        assert "×" in text and "÷" in text

    def test_operators_use_canonical_glyphs(self):
        grid = Grid.from_rows(
            [
                [
                    Cell.number(6),
                    Cell.operator(Operator.MUL),
                    Cell.number(7),
                    EQUALS,
                    Cell.number(42),
                ]
            ]
        )
        assert to_markdown(grid) == "| 6 | × | 7 | = | 42 |\n"


class TestParseMarkdown:
    def test_reference_markdown_matches_reference_grid(self, appendix_grid):
        assert parse_markdown(REFERENCE_MARKDOWN) == appendix_grid

    def test_round_trip_of_canonical_output(self, appendix_grid):
        assert parse_markdown(to_markdown(appendix_grid)) == appendix_grid

    @pytest.mark.parametrize(
        "token, value",
        [("l2", 12), ("I7", 17), ("1l", 11), ("l", 1), ("00l", 1)],
    )
    def test_one_lookalike_correction(self, token, value):
        grid = parse_markdown(f"| {token} | + | 2 | = | {value + 2} |")
        assert grid.at((0, 0)) == Cell.number(value)

    @pytest.mark.parametrize("alias, op", [("x", Operator.MUL), ("X", Operator.MUL), ("*", Operator.MUL), ("/", Operator.DIV), ("−", Operator.SUB)])
    def test_operator_aliases(self, alias, op):
        grid = parse_markdown(f"| 8 | {alias} | 2 | = | 4 |")
        assert grid.at((0, 1)) == Cell.operator(op)

    def test_unreadable_cell_raises_with_position(self):
        with pytest.raises(ParseError) as err:
            parse_markdown("| 1 | + | abc | = | 3 |")
        assert err.value.line == 1
        assert err.value.col == 3

    def test_zero_rejected(self):
        with pytest.raises(ParseError):
            parse_markdown("| 0 | + | 1 | = | 1 |")

    def test_number_too_long_to_read_raises_with_position(self):
        with pytest.raises(ParseError) as err:
            parse_markdown("| 1 | + | 2 | = | 3 |\n| 1 | + | " + "9" * 5000 + " | = | ? |")
        assert (err.value.line, err.value.col) == (2, 3)
        assert err.value.reason == "number of 5000 digits is too long"

    def test_row_without_pipes_rejected(self):
        with pytest.raises(ParseError):
            parse_markdown("3 + 4 = 7")

    def test_blank_text_rejected(self):
        with pytest.raises(ParseError):
            parse_markdown("   \n  ")

    def test_short_rows_padded_with_empty(self):
        grid = parse_markdown("| 1 |\n| 2 | 3 |")
        assert (grid.rows, grid.cols) == (2, 2)
        assert grid.at((0, 1)) is EMPTY or grid.at((0, 1)).kind is CellKind.EMPTY

    def test_generated_corpus_round_trips(self, mixed_corpus):
        for example in mixed_corpus:
            assert parse_markdown(example.markdown) == example.grid


_cells = st.one_of(
    st.just(EMPTY),
    st.just(TARGET),
    st.just(EQUALS),
    st.builds(Cell.operator, st.sampled_from(list(Operator))),
    st.builds(Cell.number, st.integers(1, 9999)),
)


@settings(max_examples=200)
@given(
    st.integers(1, 6).flatmap(
        lambda cols: st.lists(
            st.lists(_cells, min_size=cols, max_size=cols), min_size=1, max_size=6
        )
    )
)
def test_round_trip_for_arbitrary_grids(rows):
    grid = Grid.from_rows(rows)
    assert parse_markdown(to_markdown(grid)) == grid


def _texts(svg: bytes) -> list[str]:
    return re.findall(r"<text[^>]*>[^<]*</text>", svg.decode("utf-8"))


def _rects(svg: bytes) -> list[str]:
    return re.findall(r"<rect[^>]*/>", svg.decode("utf-8"))


class TestRenderImage:
    def test_byte_determinism(self, appendix_grid):
        style = "background"
        a = render_image(appendix_grid, style, RenderView.QUERY, rng_seed=99)
        b = render_image(appendix_grid, style, RenderView.QUERY, rng_seed=99)
        assert a == b

    def test_texture_seed_changes_bytes(self, appendix_grid):
        style = "background"
        a = render_image(appendix_grid, style, RenderView.QUERY, rng_seed=1)
        b = render_image(appendix_grid, style, RenderView.QUERY, rng_seed=2)
        assert a != b

    def test_borderless_differs_only_in_strokes(self, appendix_grid):
        original = render_image(appendix_grid, "original", RenderView.QUERY)
        borderless = render_image(appendix_grid, "borderless", RenderView.QUERY)
        assert _texts(original) == _texts(borderless)
        rects_o, rects_b = _rects(original), _rects(borderless)
        assert len(rects_o) == len(rects_b)
        for ro, rb in zip(rects_o, rects_b):
            assert 'stroke="' in ro and "stroke" not in rb
            assert re.sub(r' stroke="[^"]*" stroke-width="[^"]*"', "", ro) == rb

    def test_query_view_shows_question_marks(self, appendix_grid):
        svg = render_image(appendix_grid, "original", RenderView.QUERY)
        cells = dict(extract_text_cells(svg))
        assert cells[Coord(0, 4)] == "?"
        assert cells[Coord(2, 2)] == "?"

    def test_solution_view_shows_answers_in_target_color(self, appendix_grid):
        svg = render_image(
            appendix_grid,
            "original",
            RenderView.SOLUTION,
            answers=[6, 93, 45, 8],
        )
        cells = dict(extract_text_cells(svg))
        assert cells[Coord(0, 4)] == "6"
        assert cells[Coord(2, 2)] == "93"
        assert cells[Coord(4, 0)] == "45"
        assert cells[Coord(6, 2)] == "8"
        target_color = ORIGINAL_PALETTE["target"][1]
        doc = svg.decode("utf-8")
        for value in ("6", "93", "45", "8"):
            assert re.search(f'fill="{target_color}">{value}</text>', doc)

    def test_solution_view_requires_answers(self, appendix_grid):
        with pytest.raises(Exception):
            render_image(appendix_grid, "original", RenderView.SOLUTION)

    def test_style_invariance_of_content(self, appendix_grid):
        glyph_sets = []
        for style_id in STYLE_IDS:
            svg = render_image(appendix_grid, style_id, RenderView.QUERY, rng_seed=5)
            glyph_sets.append(extract_text_cells(svg))
        assert all(g == glyph_sets[0] for g in glyph_sets[1:])

    def test_text_elements_reproduce_non_empty_cells(self, mixed_corpus):
        from mathgrid.render.markdown import cell_text

        for example in mixed_corpus[:10]:
            svg = render_image(example.grid, "original", RenderView.QUERY)
            rendered = dict(extract_text_cells(svg))
            expected = {
                coord: cell_text(example.grid.at(coord))
                for coord in coords(example.grid)
                if example.grid.at(coord).kind is not CellKind.EMPTY
            }
            assert rendered == expected

    def test_background_style_has_texture_group(self, appendix_grid):
        svg = render_image(appendix_grid, "background", RenderView.QUERY, rng_seed=3)
        assert b'class="texture"' in svg
        plain = render_image(appendix_grid, "original", RenderView.QUERY, rng_seed=3)
        assert b'class="texture"' not in plain

    def test_altfontcolor_changes_font_and_palette(self, appendix_grid):
        alt = render_image(appendix_grid, "altfontcolor", RenderView.QUERY)
        original = render_image(appendix_grid, "original", RenderView.QUERY)
        assert b"Courier" in alt and b"Courier" not in original
        assert extract_text_cells(alt) == extract_text_cells(original)

    def test_extract_needs_a_declared_cell_size(self, appendix_grid):
        from mathgrid.core import MathGridError

        svg = render_image(appendix_grid, "original", RenderView.QUERY)
        assert b' data-cell-px="64"' in svg
        with pytest.raises(MathGridError):
            extract_text_cells(svg.replace(b' data-cell-px="64"', b""))

    def test_svg_is_well_formed_xml(self, appendix_grid):
        for style_id in STYLE_IDS:
            svg = render_image(appendix_grid, style_id, RenderView.QUERY, rng_seed=8)
            root = ET.fromstring(svg)
            assert root.tag.endswith("svg")

    def test_unknown_style_rejected(self, appendix_grid):
        with pytest.raises(ValueError, match="unknown style 'sepia'; expected one of"):
            render_image(appendix_grid, "sepia")
