from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from mathgrid.evaluation import (
    CellScore,
    EmptyReport,
    EmptyScores,
    ExampleResult,
    NoSuchHop,
    Prediction,
    UnknownExample,
    build_report,
    evaluate_prediction,
    extract_answers,
    format_metrics_table,
    khop_accuracy,
    macro_accuracy,
    micro_accuracy,
    parse_token,
    score_example,
    weighted_reward,
)


class TestExtractAnswers:
    def test_single_block(self):
        text = "step 1... step 2...\n<answer>6 93 45 8</answer>"
        assert extract_answers(text) == ["6", "93", "45", "8"]

    def test_last_block_wins(self):
        text = "<answer>1 2</answer> wait, revising <answer>3 4</answer>"
        assert extract_answers(text) == ["3", "4"]

    def test_no_block_gives_empty(self):
        assert extract_answers("no tags at all") == []
        assert extract_answers("") == []

    def test_unclosed_block_ignored(self):
        assert extract_answers("<answer>1 2 3") == []

    def test_whitespace_and_newlines(self):
        assert extract_answers("<answer>\n 6\t93\n45   8 \n</answer>") == [
            "6",
            "93",
            "45",
            "8",
        ]


class TestParseToken:
    @pytest.mark.parametrize(
        "token, expected",
        [
            ("42", 42),
            ("1,234", 1234),
            ("(42)", 42),
            ("42.", 42),
            ("'42'", 42),
            ("abc", None),
            ("-5", None),
            ("4.5", None),
            ("", None),
            ("6e3", None),
        ],
    )
    def test_tokens(self, token, expected):
        assert parse_token(token) == expected


class _FakeGold:
    """Minimal stand-in carrying just what scoring reads."""

    def __init__(self, example_id, gold_answers, hop_depths):
        self.id = example_id
        self.gold_answers = gold_answers
        self.hop_depths = hop_depths


def _pred(example_id, text):
    return Prediction.from_text(example_id, text)


class TestScoreExample:
    def test_exact_match(self):
        gold = _FakeGold("a", (6, 93, 45, 8), (1, 1, 1, 1))
        result = evaluate_prediction(_pred("a", "<answer>6 93 45 8</answer>"), gold)
        assert [s.correct for s in result.scores] == [True] * 4
        assert result.all_correct

    def test_truncated_prediction(self):
        gold = _FakeGold("a", (6, 93, 45, 8), (1, 1, 1, 1))
        result = evaluate_prediction(_pred("a", "<answer>6 93</answer>"), gold)
        assert [s.correct for s in result.scores] == [True, True, False, False]
        assert not result.all_correct

    def test_surplus_tokens_ignored_for_cells_but_fail_strict(self):
        gold = _FakeGold("a", (6, 93, 45, 8), (1, 1, 1, 1))
        result = evaluate_prediction(_pred("a", "<answer>6 93 0 8 7</answer>"), gold)
        assert [s.correct for s in result.scores] == [True, True, False, True]
        assert not result.all_correct

    def test_invalid_tokens_score_wrong(self):
        gold = _FakeGold("a", (6, 93), (1, 1))
        result = evaluate_prediction(_pred("a", "<answer>six 93</answer>"), gold)
        assert [s.correct for s in result.scores] == [False, True]

    def test_id_mismatch_raises(self):
        gold = _FakeGold("a", (6,), (1,))
        with pytest.raises(UnknownExample):
            score_example(_pred("b", "<answer>6</answer>"), gold)

    def test_hops_copied_from_gold(self):
        gold = _FakeGold("a", (5, 6, 7), (1, 2, 3))
        scores = score_example(_pred("a", "<answer>5 6 7</answer>"), gold)
        assert [s.hop for s in scores] == [1, 2, 3]


def _result(example_id, mask, hops=None):
    hops = hops or [1] * len(mask)
    scores = tuple(
        CellScore(index=i, hop=h, correct=ok) for i, (ok, h) in enumerate(zip(mask, hops))
    )
    return ExampleResult(example_id, scores, all(mask))


class TestMetrics:
    def test_micro_formula_fixture(self):
        results = [_result("a", [True] * 4), _result("b", [True, True, False, False])]
        assert micro_accuracy(results) == pytest.approx(0.75)
        assert macro_accuracy(results) == pytest.approx(0.5)

    def test_all_perfect(self):
        results = [_result("a", [True] * 3), _result("b", [True] * 5)]
        assert micro_accuracy(results) == 1.0
        assert macro_accuracy(results) == 1.0

    def test_all_empty_predictions(self):
        results = [_result("a", [False] * 3), _result("b", [False] * 2)]
        assert micro_accuracy(results) == 0.0
        assert macro_accuracy(results) == 0.0

    def test_empty_report_raises(self):
        with pytest.raises(EmptyReport):
            micro_accuracy([])
        with pytest.raises(EmptyReport):
            macro_accuracy([])

    def test_khop_hand_count(self):
        results = [_result("a", [True, False, True], hops=[1, 1, 2])]
        assert khop_accuracy(results, 1) == pytest.approx(0.5)
        assert khop_accuracy(results, 2) == pytest.approx(1.0)

    def test_khop_pools_flat_across_examples(self):
        # 1 of 5 hop-1 cells correct overall; per-example averaging would say 0.5
        results = [
            _result("a", [True], hops=[1]),
            _result("b", [False] * 4, hops=[1, 1, 1, 1]),
        ]
        assert khop_accuracy(results, 1) == pytest.approx(0.2)

    def test_khop_4_pools_deeper_hops(self):
        results = [_result("a", [True, False], hops=[4, 6])]
        assert khop_accuracy(results, 4) == pytest.approx(0.5)

    def test_missing_hop_raises(self):
        results = [_result("a", [True], hops=[1])]
        with pytest.raises(NoSuchHop):
            khop_accuracy(results, 2)

    def test_split_halves_fixture(self):
        # half of the 2-target examples get 1 of 2 right
        results = [
            _result("a", [True, True]),
            _result("b", [True, False]),
        ]
        assert micro_accuracy(results) == pytest.approx(0.75)


class TestWeightedReward:
    def test_all_correct_is_one_for_any_weights(self):
        scores = [CellScore(0, 1, True), CellScore(1, 3, True)]
        assert weighted_reward(scores) == 1.0
        assert weighted_reward(scores, lambda h: 7.5) == 1.0

    def test_depth_weighted_fixture(self):
        scores = [CellScore(0, 1, True), CellScore(1, 1, True), CellScore(2, 2, False)]
        assert weighted_reward(scores) == pytest.approx(0.5)

    def test_uniform_vs_depth_weights(self):
        scores = [CellScore(0, 1, False), CellScore(1, 2, True)]
        assert weighted_reward(scores) == pytest.approx(2 / 3)
        assert weighted_reward(scores, lambda h: 1.0) == pytest.approx(0.5)

    def test_empty_scores_raise(self):
        with pytest.raises(EmptyScores):
            weighted_reward([])

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValueError):
            weighted_reward([CellScore(0, 1, True)], lambda h: 0.0)

    @given(
        mask=st.lists(st.booleans(), min_size=1, max_size=12),
        hops=st.data(),
    )
    def test_flipping_a_cell_strictly_increases_reward(self, mask, hops):
        hop_list = hops.draw(
            st.lists(st.integers(1, 6), min_size=len(mask), max_size=len(mask))
        )
        if all(mask):
            return
        wrong = next(i for i, ok in enumerate(mask) if not ok)
        flipped = list(mask)
        flipped[wrong] = True
        before = weighted_reward(
            [CellScore(i, h, ok) for i, (ok, h) in enumerate(zip(mask, hop_list))]
        )
        after = weighted_reward(
            [CellScore(i, h, ok) for i, (ok, h) in enumerate(zip(flipped, hop_list))]
        )
        assert after > before


@given(st.lists(st.lists(st.booleans(), min_size=1, max_size=8), min_size=1, max_size=20))
def test_macro_never_exceeds_micro(masks):
    results = [_result(f"ex-{i}", mask) for i, mask in enumerate(masks)]
    assert macro_accuracy(results) <= micro_accuracy(results) + 1e-12


@given(st.lists(st.lists(st.booleans(), min_size=1, max_size=8), min_size=1, max_size=20))
def test_metrics_stay_in_unit_interval(masks):
    results = [_result(f"ex-{i}", mask) for i, mask in enumerate(masks)]
    report = build_report(results)
    values = [report.micro, report.macro, report.mean_reward, *report.khop.values()]
    assert all(0.0 <= v <= 1.0 for v in values)


def test_permuting_a_correct_prediction_loses_micro():
    gold = _FakeGold("a", (6, 93, 45, 8), (1, 1, 1, 1))
    right = evaluate_prediction(_pred("a", "<answer>6 93 45 8</answer>"), gold)
    permuted = evaluate_prediction(_pred("a", "<answer>93 6 8 45</answer>"), gold)
    assert micro_accuracy([right]) == 1.0
    assert micro_accuracy([permuted]) < 1.0
    assert not permuted.all_correct


class TestReport:
    def test_json_shape(self):
        results = [
            _result("a", [True, False], hops=[1, 2]),
            _result("b", [True], hops=[4]),
        ]
        data = build_report(results).to_json()
        assert set(data) == {"micro", "macro", "khop", "mean_reward", "examples"}
        assert set(data["khop"]) == {"1", "2", "4plus"}

    def test_perfect_prediction_fixpoint(self):
        results = [_result("a", [True, True], hops=[1, 2])]
        report = build_report(results)
        assert report.micro == report.macro == report.mean_reward == 1.0
        assert all(v == 1.0 for v in report.khop.values())

    def test_table_layout(self):
        results = [_result("a", [True, False], hops=[1, 2])]
        table = format_metrics_table(build_report(results).to_json())
        assert "Micro Acc" in table and "4+ Hops" in table
        assert " 50.00" in table  # micro 50%
        assert "   -  " in table  # absent hop buckets are dashes

    def test_report_from_generated_examples(self, mixed_corpus):
        golds = mixed_corpus[:6]
        results = []
        for ex in golds:
            text = "<answer>" + " ".join(map(str, ex.gold_answers)) + "</answer>"
            results.append(evaluate_prediction(Prediction.from_text(ex.id, text), ex))
        report = build_report(results)
        assert report.micro == 1.0 and report.macro == 1.0

    def test_format_metrics_table_standalone(self):
        table = format_metrics_table(
            {"micro": 0.5, "macro": 0.25, "khop": {"1": 1.0}, "mean_reward": 0.5}
        )
        assert "100.00" in table and " 25.00" in table
