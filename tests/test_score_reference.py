"""The scorer agrees with the multi-walk scorer it replaced.

``evaluate_prediction`` once built each ``CellScore`` by a call and walked
the scores again for the all-correct flag; ``weighted_reward`` listed its
cells, then took a ``min`` and two sums over them; ``build_report`` summed
each result's right cells apart from its bucket loop. The reference below
keeps those three functions as they were. On drawn predictions and on the
mixed corpus, both must give equal results and the same report bytes, and
raise the same error, with the same text, for a result without cells and
for a hop below 1.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from mathgrid.evaluation import (
    KHOP_BUCKETS,
    CellScore,
    EmptyReport,
    EmptyScores,
    EvalReport,
    ExampleResult,
    Prediction,
    UnknownExample,
    _sum,
    build_report,
    evaluate_prediction,
    weighted_reward,
)

from conftest import FakeGold

# -- reference implementation -----------------------------------------------


def reference_evaluate_prediction(pred, gold) -> ExampleResult:
    if pred.example_id != gold.id:
        raise UnknownExample(f"prediction for {pred.example_id!r}, gold is {gold.id!r}")
    padded = pred.parsed + (None,) * len(gold.gold_answers)
    scores = tuple(
        CellScore(hop, value == answer)
        for answer, hop, value in zip(gold.gold_answers, gold.hop_depths, padded)
    )
    all_correct = all(s.correct for s in scores) and len(pred.parsed) == len(
        gold.gold_answers
    )
    return ExampleResult(gold.id, scores, all_correct)


def reference_weighted_reward(scores) -> float:
    scores = list(scores)
    if not scores:
        raise EmptyScores("reward needs at least one cell")
    if min(hop for hop, _ in scores) < 1:
        raise ValueError("weights must be positive")
    return sum(hop for hop, correct in scores if correct) / sum(hop for hop, _ in scores)


def reference_build_report(results) -> EvalReport:
    fractions: list[float] = []
    rewards: list[float] = []
    perfect = 0
    seen = [0] * 5
    right = [0] * 5
    for res in results:
        rewards.append(reference_weighted_reward(res.scores))
        fractions.append(sum(s.correct for s in res.scores) / len(res.scores))
        perfect += res.all_correct
        for hop, correct in res.scores:
            bucket = hop if hop < 4 else 4
            seen[bucket] += 1
            right[bucket] += correct
    if not fractions:
        raise EmptyReport("no examples to aggregate")
    return EvalReport(
        examples=len(fractions),
        micro=_sum(fractions) / len(fractions),
        macro=perfect / len(fractions),
        khop={k: right[k] / seen[k] for k in KHOP_BUCKETS if seen[k]},
        mean_reward=_sum(rewards) / len(rewards),
    )


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except Exception as exc:  # the error's type and text must agree too
        return ("error", type(exc).__name__, str(exc))


def assert_results_agree(pred, gold) -> ExampleResult:
    got = evaluate_prediction(pred, gold)
    want = reference_evaluate_prediction(pred, gold)
    assert got == want
    # equal tuples are not enough: each score is a CellScore holding a bool
    assert [type(s) for s in got.scores] == [CellScore] * len(want.scores)
    assert [type(s.correct) for s in got.scores] == [bool] * len(want.scores)
    assert type(got.all_correct) is bool
    return got


def assert_reports_agree(results) -> None:
    got = _outcome(build_report, results)
    want = _outcome(reference_build_report, results)
    if want[0] == "error":
        assert got == want
        return
    assert got[0] == "value"
    got_json, want_json = got[1].to_json(), want[1].to_json()
    assert got_json == want_json
    assert json.dumps(got_json) == json.dumps(want_json)  # same key order, same float bits


# -- drawn gold answers and predictions --------------------------------------


@st.composite
def _gold_and_parsed(draw):
    """A gold example with hops 1-6 and a parsed tuple that is exact, short,
    surplus, or any of these with None or wrong tokens in it."""
    gold = draw(st.lists(st.integers(1, 999), min_size=1, max_size=8))
    hops = draw(st.lists(st.integers(1, 6), min_size=len(gold), max_size=len(gold)))
    parsed = list(gold)
    shape = draw(st.sampled_from(["exact", "short", "surplus"]))
    if shape == "short":
        parsed = parsed[: draw(st.integers(0, len(gold) - 1))]
    elif shape == "surplus":
        parsed += draw(st.lists(st.one_of(st.none(), st.integers(0, 999)), min_size=1, max_size=3))
    for position in draw(st.lists(st.integers(0, 10), max_size=3)):
        if position < len(parsed):
            parsed[position] = draw(st.one_of(st.none(), st.integers(0, 999)))
    return FakeGold("ex", tuple(gold), tuple(hops)), Prediction("ex", tuple(parsed))


@settings(max_examples=300, deadline=None)
@given(st.lists(_gold_and_parsed(), min_size=1, max_size=12))
def test_drawn_predictions_agree(pairs):
    results = [assert_results_agree(pred, gold) for gold, pred in pairs]
    assert_reports_agree(results)
    for result in results:
        assert weighted_reward(result.scores) == reference_weighted_reward(result.scores)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-2, 6), st.booleans()), max_size=8))
def test_drawn_scores_give_the_same_reward_or_error(cells):
    # a generator or iterator of cells weighs as their tuple does
    scores = tuple(CellScore(hop, correct) for hop, correct in cells)
    want = _outcome(reference_weighted_reward, scores)
    assert _outcome(weighted_reward, scores) == want
    assert _outcome(weighted_reward, iter(scores)) == want
    assert _outcome(weighted_reward, (s for s in scores)) == want


# -- fixed cases ----------------------------------------------------------------


@pytest.mark.parametrize(
    "scores",
    [
        (),
        (CellScore(0, True),),
        (CellScore(2, True), CellScore(-1, False)),
        (CellScore(1, False), CellScore(0, True)),
    ],
    ids=["empty", "hop-0", "hop-below-0-second", "hop-0-last"],
)
def test_the_same_error_for_no_cells_and_a_hop_below_1(scores):
    want = _outcome(reference_weighted_reward, scores)
    assert want[0] == "error"
    assert _outcome(weighted_reward, scores) == want
    results = [ExampleResult("ok", (CellScore(1, True),), True), ExampleResult("bad", scores, False)]
    assert _outcome(build_report, results) == _outcome(reference_build_report, results)


def test_the_same_error_for_no_results_and_another_id():
    assert _outcome(build_report, []) == _outcome(reference_build_report, [])
    gold = FakeGold("a", (6, 93), (1, 2))
    pred = Prediction("b", (6, 93))
    assert _outcome(evaluate_prediction, pred, gold) == _outcome(reference_evaluate_prediction, pred, gold)


# -- the mixed corpus -----------------------------------------------------------


def _predictions(example) -> list[Prediction]:
    gold = example.gold_answers
    hops = example.hop_depths
    return [
        Prediction(example.id, gold),
        Prediction(example.id, tuple(g if h == 1 else g + 1 for g, h in zip(gold, hops))),
        Prediction(example.id, gold[:-1]),
        Prediction(example.id, gold + (7,)),
        Prediction(example.id, (None,) + gold[1:]),
        Prediction(example.id, ()),
        Prediction.from_text(example.id, f"<answer>{' '.join(map(str, gold))} x</answer>"),
    ]


def test_the_mixed_corpus_agrees(mixed_corpus):
    by_kind: list[list[ExampleResult]] = [[] for _ in _predictions(mixed_corpus[0])]
    for example in mixed_corpus:
        for kind, pred in enumerate(_predictions(example)):
            by_kind[kind].append(assert_results_agree(pred, example))
    for results in by_kind:
        assert_reports_agree(results)
    assert_reports_agree([result for results in by_kind for result in results])
