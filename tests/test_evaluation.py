from __future__ import annotations

import json
import operator
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from mathgrid.evaluation import (
    KHOP_BUCKETS,
    CellScore,
    EmptyReport,
    EmptyScores,
    ExampleResult,
    Prediction,
    UnknownExample,
    build_report,
    evaluate_prediction,
    extract_answers,
    format_metrics_table,
    parse_token,
    weighted_reward,
)

from conftest import FakeGold, scored


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


def _pred(example_id, text):
    return Prediction.from_text(example_id, text)


class TestScoreExample:
    def test_exact_match(self):
        gold = FakeGold("a", (6, 93, 45, 8), (1, 1, 1, 1))
        result = evaluate_prediction(_pred("a", "<answer>6 93 45 8</answer>"), gold)
        assert [s.correct for s in result.scores] == [True] * 4
        assert result.all_correct

    def test_truncated_prediction(self):
        gold = FakeGold("a", (6, 93, 45, 8), (1, 1, 1, 1))
        result = evaluate_prediction(_pred("a", "<answer>6 93</answer>"), gold)
        assert [s.correct for s in result.scores] == [True, True, False, False]
        assert not result.all_correct

    def test_surplus_tokens_ignored_for_cells_but_fail_strict(self):
        gold = FakeGold("a", (6, 93, 45, 8), (1, 1, 1, 1))
        result = evaluate_prediction(_pred("a", "<answer>6 93 0 8 7</answer>"), gold)
        assert [s.correct for s in result.scores] == [True, True, False, True]
        assert not result.all_correct

    def test_invalid_tokens_score_wrong(self):
        gold = FakeGold("a", (6, 93), (1, 1))
        result = evaluate_prediction(_pred("a", "<answer>six 93</answer>"), gold)
        assert [s.correct for s in result.scores] == [False, True]

    def test_id_mismatch_raises(self):
        gold = FakeGold("a", (6,), (1,))
        with pytest.raises(UnknownExample):
            evaluate_prediction(_pred("b", "<answer>6</answer>"), gold)

    def test_hops_copied_from_gold(self):
        gold = FakeGold("a", (5, 6, 7), (1, 2, 3))
        result = evaluate_prediction(_pred("a", "<answer>5 6 7</answer>"), gold)
        assert [s.hop for s in result.scores] == [1, 2, 3]


class TestMetrics:
    def test_micro_formula_fixture(self):
        results = [scored("a", [True] * 4), scored("b", [True, True, False, False])]
        report = build_report(results)
        assert report.micro == pytest.approx(0.75)
        assert report.macro == pytest.approx(0.5)

    def test_all_perfect(self):
        report = build_report([scored("a", [True] * 3), scored("b", [True] * 5)])
        assert report.micro == 1.0
        assert report.macro == 1.0

    def test_all_empty_predictions(self):
        report = build_report([scored("a", [False] * 3), scored("b", [False] * 2)])
        assert report.micro == 0.0
        assert report.macro == 0.0

    def test_empty_report_raises(self):
        with pytest.raises(EmptyReport):
            build_report([])

    def test_khop_hand_count(self):
        report = build_report([scored("a", [True, False, True], hops=[1, 1, 2])])
        assert report.khop[1] == pytest.approx(0.5)
        assert report.khop[2] == pytest.approx(1.0)

    def test_khop_pools_flat_across_examples(self):
        # 1 of 5 hop-1 cells correct overall; per-example averaging would say 0.5
        results = [
            scored("a", [True], hops=[1]),
            scored("b", [False] * 4, hops=[1, 1, 1, 1]),
        ]
        assert build_report(results).khop[1] == pytest.approx(0.2)

    def test_khop_4_pools_deeper_hops(self):
        report = build_report([scored("a", [True, False, True, False], hops=[4, 6, 5, 1])])
        assert report.khop == {1: 0.0, 4: pytest.approx(2 / 3)}
        assert report.to_json()["khop"] == {"1": 0.0, "4plus": pytest.approx(2 / 3)}

    @pytest.mark.parametrize("hop", [0, -1])
    def test_a_hop_below_1_fails_in_weighted_reward(self, hop):
        # hand-built: evaluate_prediction copies the hops of a real example, all >= 1
        result = ExampleResult("a", (CellScore(1, True), CellScore(hop, False)), False)
        with pytest.raises(ValueError, match="^weights must be positive$"):
            weighted_reward(result.scores)
        with pytest.raises(ValueError, match="^weights must be positive$"):
            build_report([scored("b", [True], hops=[2]), result])

    def test_cell_score_is_a_plain_pair(self):
        score = CellScore(3, True)
        assert score == (3, True) and (score.hop, score.correct) == (3, True)
        assert scored("a", [True, False], hops=[2, 1]).scores == (
            CellScore(2, True),
            CellScore(1, False),
        )

    def test_floats_are_summed_left_to_right_on_every_python(self):
        # ten fractions of 0.1 add up to 0.9999999999999999 left to right;
        # Python 3.12's compensated sum() would give 1.0, so micro 0.1
        results = [scored(f"e{i}", [True] + [False] * 9) for i in range(10)]
        assert build_report(results).micro == 0.9999999999999999 / 10

    def test_missing_hop_raises(self):
        report = build_report([scored("a", [True], hops=[1])])
        assert 2 not in report.khop
        assert "2" not in report.to_json()["khop"]

    def test_split_halves_fixture(self):
        # half of the 2-target examples get 1 of 2 right
        results = [
            scored("a", [True, True]),
            scored("b", [True, False]),
        ]
        assert build_report(results).micro == pytest.approx(0.75)


class TestWeightedReward:
    def test_all_correct_is_one_for_any_weights(self):
        scores = [CellScore(1, True), CellScore(3, True)]
        assert weighted_reward(scores) == 1.0

    def test_depth_weighted_fixture(self):
        scores = [CellScore(1, True), CellScore(1, True), CellScore(2, False)]
        assert weighted_reward(scores) == pytest.approx(0.5)

    def test_uniform_vs_depth_weights(self):
        scores = [CellScore(1, False), CellScore(2, True)]
        assert weighted_reward(scores) == pytest.approx(2 / 3)

    def test_empty_scores_raise(self):
        with pytest.raises(EmptyScores):
            weighted_reward([])

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
            [CellScore(h, ok) for ok, h in zip(mask, hop_list)]
        )
        after = weighted_reward(
            [CellScore(h, ok) for ok, h in zip(flipped, hop_list)]
        )
        assert after > before


@given(st.lists(st.lists(st.booleans(), min_size=1, max_size=8), min_size=1, max_size=20))
def test_macro_never_exceeds_micro(masks):
    report = build_report(scored(f"ex-{i}", mask) for i, mask in enumerate(masks))
    assert report.macro <= report.micro + 1e-12


@given(st.lists(st.lists(st.booleans(), min_size=1, max_size=8), min_size=1, max_size=20))
def test_metrics_stay_in_unit_interval(masks):
    results = [scored(f"ex-{i}", mask) for i, mask in enumerate(masks)]
    report = build_report(results)
    values = [report.micro, report.macro, report.mean_reward, *report.khop.values()]
    assert all(0.0 <= v <= 1.0 for v in values)


def test_permuting_a_correct_prediction_loses_micro():
    gold = FakeGold("a", (6, 93, 45, 8), (1, 1, 1, 1))
    right = evaluate_prediction(_pred("a", "<answer>6 93 45 8</answer>"), gold)
    permuted = evaluate_prediction(_pred("a", "<answer>93 6 8 45</answer>"), gold)
    assert build_report([right]).micro == 1.0
    assert build_report([permuted]).micro < 1.0
    assert not permuted.all_correct


class TestReport:
    def test_json_shape(self):
        results = [
            scored("a", [True, False], hops=[1, 2]),
            scored("b", [True], hops=[4]),
        ]
        data = build_report(results).to_json()
        assert set(data) == {"micro", "macro", "khop", "mean_reward", "examples"}
        assert set(data["khop"]) == {"1", "2", "4plus"}

    def test_perfect_prediction_fixpoint(self):
        results = [scored("a", [True, True], hops=[1, 2])]
        report = build_report(results)
        assert report.micro == report.macro == report.mean_reward == 1.0
        assert all(v == 1.0 for v in report.khop.values())

    def test_table_layout(self):
        results = [scored("a", [True, False], hops=[1, 2])]
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


# Reference: the multi-pass metric functions that build_report's one pass
# replaced, kept to pin its output.


def left_to_right_sum(values):
    # sum() before Python 3.12; later versions compensate rounding
    return reduce(operator.add, values, 0)


def reference_micro(results):
    fractions = [sum(s.correct for s in res.scores) / len(res.scores) for res in results]
    return left_to_right_sum(fractions) / len(fractions)


def reference_macro(results):
    return sum(res.all_correct for res in results) / len(results)


def reference_khop_counts(results):
    right, seen = {}, {}
    for res in results:
        for s in res.scores:
            seen[s.hop] = seen.get(s.hop, 0) + 1
            right[s.hop] = right.get(s.hop, 0) + s.correct
    bucket_right, bucket_seen = {}, {}
    for hop, n in seen.items():
        k = min(hop, 4)
        bucket_right[k] = bucket_right.get(k, 0) + right[hop]
        bucket_seen[k] = bucket_seen.get(k, 0) + n
    return {k: (bucket_right[k], bucket_seen[k]) for k in KHOP_BUCKETS if k in bucket_seen}


def reference_khop(results, k):
    right, seen = reference_khop_counts(results)[k]
    return right / seen


def reference_report_json(results):
    results = list(results)
    counts = reference_khop_counts(results)
    rewards = [weighted_reward(res.scores) for res in results]
    return {
        "micro": reference_micro(results),
        "macro": reference_macro(results),
        "khop": {"4plus" if k == 4 else str(k): reference_khop(results, k) for k in counts},
        "mean_reward": left_to_right_sum(rewards) / len(rewards),
        "examples": len(results),
    }


_answer_token = st.one_of(
    st.integers(0, 4).map(str), st.sampled_from(["x", "-3", "4.5", "(3)", "1,2"])
)


@given(
    st.lists(
        st.tuples(
            st.lists(st.tuples(st.integers(0, 4), st.integers(1, 7)), min_size=1, max_size=10),
            st.lists(_answer_token, max_size=12),
        ),
        min_size=1,
        max_size=15,
    )
)
def test_one_pass_report_equals_the_multi_pass_reference(examples):
    results = []
    for i, (cells, tokens) in enumerate(examples):
        gold = FakeGold(f"ex-{i}", tuple(a for a, _ in cells), tuple(h for _, h in cells))
        text = f"<answer>{' '.join(tokens)}</answer>"
        results.append(evaluate_prediction(_pred(gold.id, text), gold))
    got, want = build_report(results).to_json(), reference_report_json(results)
    assert got == want
    assert json.dumps(got) == json.dumps(want)  # same key order, same float bits


# Answer tokens as a model may write them: numbers, any short text, a number
# too long for int(), and spellings parse_token must refuse.
_TOKENS = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.text(max_size=8),
    st.sampled_from(["7" * 5000, "1e400", "NaN", "(6)", "1,234", "\u0663", "93.", "</answer>"]),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.text(max_size=40), st.lists(_TOKENS, max_size=6), st.text(max_size=40))
def test_any_response_text_scores(before, tokens, after):
    gold = FakeGold("a", (6, 93, 45, 8), (1, 2, 3, 4))
    for text in (before, before + "<answer>" + " ".join(tokens) + "</answer>" + after):
        result = evaluate_prediction(Prediction.from_text("a", text), gold)
        assert [score.hop for score in result.scores] == [1, 2, 3, 4]
        assert result.all_correct == (Prediction.from_text("a", text).parsed == (6, 93, 45, 8))
