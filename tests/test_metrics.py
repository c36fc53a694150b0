"""Top-K/top-N ranking accuracy and its report formatting."""
import json

import numpy as np
import pytest

from croprank.decoder import Prediction
from croprank.errors import DimMismatch, EmptySK, KTooLarge, NTooLarge, OutOfRange
from croprank.geometry import CropBox, ScoredCrop
from croprank.metrics import (
    EvalExample,
    build_report,
    render_table,
)

from conftest import interior_box, naive_iou, random_eval_example


def _pred(cx, cy, w, h, score):
    return Prediction(box=CropBox(cx=cx, cy=cy, w=w, h=h), score=score)


def _gt(cx, cy, w, h, mos):
    return ScoredCrop(box=CropBox(cx=cx, cy=cy, w=w, h=h), mos=mos)


def naive_acc(examples, k, n, epsilon):
    """Direct double-loop transcription of the accuracy definition."""
    hits = 0
    for ex in examples:
        preds = sorted(range(len(ex.predictions)), key=lambda i: (-ex.predictions[i].score, i))[:k]
        gts = sorted(range(len(ex.ground_truths)), key=lambda i: (-ex.ground_truths[i].mos, i))[:n]
        for i in preds:
            best = max(naive_iou(ex.predictions[i].box, ex.ground_truths[j].box) for j in gts)
            if best >= epsilon:
                hits += 1
    return hits / (len(examples) * k)


class TestRankings:
    def test_tied_scores_rank_by_index(self):
        gt = (_gt(0.5, 0.5, 0.4, 0.4, 5.0),)
        on, off = (0.5, 0.5, 0.4, 0.4), (0.1, 0.1, 0.1, 0.1)
        preds = (_pred(*on, 0.2), _pred(*on, 0.9), _pred(*off, 0.9))
        # the two top scores tie; K = 1 takes the lower index
        assert build_report([EvalExample(predictions=preds, ground_truths=gt)], (1,), (1,), 0.9).acc[1][1] == 1.0
        swapped = (preds[0], preds[2], preds[1])
        assert build_report([EvalExample(predictions=swapped, ground_truths=gt)], (1,), (1,), 0.9).acc[1][1] == 0.0
        assert build_report([EvalExample(predictions=swapped, ground_truths=gt)], (2,), (1,), 0.9).acc[1][2] == 0.5

    def test_tied_mos_rank_by_index(self):
        pred = (_pred(0.5, 0.5, 0.4, 0.4, 0.5),)
        gts = (_gt(0.5, 0.5, 0.4, 0.4, 3.0), _gt(0.5, 0.5, 0.4, 0.4, 5.0), _gt(0.2, 0.2, 0.2, 0.2, 5.0))
        # the two top MOS tie; N = 1 takes the lower index
        assert build_report([EvalExample(predictions=pred, ground_truths=gts)], (1,), (1,), 0.9).acc[1][1] == 1.0
        swapped = (gts[0], gts[2], gts[1])
        assert build_report([EvalExample(predictions=pred, ground_truths=swapped)], (1,), (1,), 0.9).acc[1][1] == 0.0
        assert build_report([EvalExample(predictions=pred, ground_truths=swapped)], (1,), (2,), 0.9).acc[2][1] == 1.0

    @pytest.mark.parametrize("k, n, error", [
        (3, 1, KTooLarge), (0, 1, KTooLarge), (1, 3, NTooLarge), (1, 0, NTooLarge),
    ])
    def test_depth_outside_a_list_raises(self, k, n, error):
        rng = np.random.default_rng(11)
        # the second example is the short one: every example is checked
        examples = [random_eval_example(rng, 4, 4), random_eval_example(rng, 2, 2)]
        with pytest.raises(error):
            build_report(examples, (k,), (n,), 0.5)
        with pytest.raises(error):
            build_report(examples, (1, k), (n,), 0.5)
        with pytest.raises(error):
            build_report(examples, ks=(1, k), ns=(1, n), epsilon=0.5)

    def test_first_bad_pair_decides_the_error(self):
        rng = np.random.default_rng(12)
        # K = 4 and N = 5 both overrun; the (N, K) pairs run N-major, so N = 5 with K = 1 raises first
        examples = [random_eval_example(rng, 3, 3)]
        with pytest.raises(NTooLarge):
            build_report(examples, ks=(1, 2, 3, 4), ns=(5, 10))
        with pytest.raises(KTooLarge):
            build_report(examples, ks=(1, 2, 3, 4), ns=(1, 10))

    def test_eval_example_needs_predictions(self):
        with pytest.raises(DimMismatch):
            EvalExample(predictions=(), ground_truths=(_gt(0.5, 0.5, 0.2, 0.2, 3.0),))


class TestAccuracy:
    def test_perfect_single_example(self):
        box = CropBox(0.5, 0.5, 0.4, 0.4)
        ex = EvalExample(
            predictions=(Prediction(box=box, score=0.9),),
            ground_truths=(ScoredCrop(box=box, mos=5.0),),
        )
        assert build_report([ex], (1,), (1,), 0.9).acc[1][1] == 1.0

    def test_zero_threshold_counts_everything(self):
        rng = np.random.default_rng(0)
        examples = [random_eval_example(rng, 6, 8) for _ in range(5)]
        assert build_report(examples, (3,), (4,), 0.0).acc[4][3] == 1.0

    def test_epsilon_range_check(self):
        rng = np.random.default_rng(1)
        ex = random_eval_example(rng, 3, 3)
        with pytest.raises(OutOfRange):
            build_report([ex], (1,), (1,), -0.1)
        with pytest.raises(OutOfRange):
            build_report([ex], (1,), (1,), 1.01)

    def test_needs_examples(self):
        with pytest.raises(DimMismatch):
            build_report([], (1,), (1,), 0.9)

    def test_three_example_hand_fixture(self):
        shared = CropBox(0.5, 0.5, 0.4, 0.4)
        near = CropBox(0.52, 0.5, 0.4, 0.4)  # IoU 0.905 with shared
        far = CropBox(0.15, 0.15, 0.2, 0.2)
        gt = (ScoredCrop(box=shared, mos=5.0), ScoredCrop(box=far, mos=4.0))
        ex_hit = EvalExample(predictions=(Prediction(box=shared, score=0.9),), ground_truths=gt)
        ex_near = EvalExample(predictions=(Prediction(box=near, score=0.8),), ground_truths=gt)
        ex_miss = EvalExample(predictions=(Prediction(box=far, score=0.7),), ground_truths=(gt[0],))
        examples = [ex_hit, ex_near, ex_miss]
        got = build_report(examples, (1,), (1,), 0.90).acc[1][1]
        assert got == naive_acc(examples, 1, 1, 0.90) == pytest.approx(2.0 / 3.0)

    def test_matches_naive_oracle_randomized(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            examples = [
                random_eval_example(rng, int(rng.integers(4, 9)), int(rng.integers(5, 11))) for _ in range(6)
            ]
            k = int(rng.integers(1, 4))
            n = int(rng.integers(1, 5))
            eps = float(rng.choice([0.0, 0.3, 0.5, 0.9]))
            assert build_report(examples, (k,), (n,), eps).acc[n][k] == naive_acc(examples, k, n, eps)

    def test_monotone_in_epsilon_and_n(self):
        rng = np.random.default_rng(3)
        examples = [random_eval_example(rng, 8, 10) for _ in range(10)]
        accs = [build_report(examples, (2,), (3,), e).acc[3][2] for e in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert all(b <= a for a, b in zip(accs, accs[1:]))
        by_n = [build_report(examples, (2,), (n,), 0.5).acc[n][2] for n in (1, 3, 5, 8)]
        assert all(b >= a for a, b in zip(by_n, by_n[1:]))
        assert all(0.0 <= a <= 1.0 for a in accs + by_n)

    def test_example_order_irrelevant(self):
        rng = np.random.default_rng(4)
        examples = [random_eval_example(rng, 5, 6) for _ in range(8)]
        assert build_report(examples, (2,), (3,), 0.5).acc == build_report(examples[::-1], (2,), (3,), 0.5).acc


class TestAveragedAccuracy:
    def test_singleton_set_equals_plain_accuracy(self):
        rng = np.random.default_rng(5)
        examples = [random_eval_example(rng, 5, 6) for _ in range(4)]
        assert build_report(examples, [2], (3,), 0.5).acc_bar[3] == build_report(examples, (2,), (3,), 0.5).acc[3][2]

    def test_mean_over_k(self):
        rng = np.random.default_rng(6)
        examples = [random_eval_example(rng, 6, 6) for _ in range(4)]
        ks = (1, 2, 3, 4)
        expected = sum(build_report(examples, (k,), (5,), 0.4).acc[5][k] for k in ks) / 4
        assert build_report(examples, ks, (5,), 0.4).acc_bar[5] == pytest.approx(expected, abs=1e-15)

    def test_empty_k_set_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(EmptySK):
            build_report([random_eval_example(rng, 4, 5)], [], (3,), 0.5)


def hitting_example(rng, n_preds, n_gts):
    """Predictions jittered off the annotated crops, so many clear eps = 0.9; scores and MOS drawn with ties."""
    gts = [
        ScoredCrop(box=interior_box(rng), mos=float(rng.choice([2.0, 3.5, 5.0]))) for _ in range(n_gts)
    ]
    preds = []
    for _ in range(n_preds):
        base = gts[int(rng.integers(n_gts))].box
        jitter = float(rng.choice([0.0, 0.002, 0.01, 0.05]))
        box = CropBox(
            cx=float(np.clip(base.cx + rng.normal(0.0, jitter), 0.0, 1.0)),
            cy=float(np.clip(base.cy + rng.normal(0.0, jitter), 0.0, 1.0)),
            w=base.w,
            h=base.h,
        )
        preds.append(Prediction(box=box, score=float(rng.choice([0.25, 0.5, 0.75]))))
    return EvalExample(predictions=tuple(preds), ground_truths=tuple(gts))


class TestReportCore:
    def test_matches_double_loop_oracle_on_hits(self):
        rng = np.random.default_rng(13)
        ks, ns = (1, 2, 3, 4), (1, 3, 5)
        nonzero = 0
        for _ in range(20):
            examples = [hitting_example(rng, int(rng.integers(4, 21)), int(rng.integers(5, 31))) for _ in range(7)]
            eps = float(rng.choice([0.5, 0.8, 0.9]))
            rep = build_report(examples, ks=ks, ns=ns, epsilon=eps)
            for n in ns:
                expected = [naive_acc(examples, k, n, eps) for k in ks]
                assert [rep.acc[n][k] for k in ks] == expected
                assert rep.acc_bar[n] == sum(expected) / len(ks)
                assert build_report(examples, ks, (n,), eps).acc_bar[n] == rep.acc_bar[n]
                nonzero += sum(v > 0.0 for v in expected)
        assert nonzero > 100  # the oracle is checked on real hits, not on zeros

    def test_flagged_example_counts_as_zero_hits(self):
        box = CropBox(0.5, 0.5, 0.4, 0.4)
        gts = (ScoredCrop(box=box, mos=5.0),)
        hit = EvalExample(predictions=(Prediction(box=box, score=0.9),), ground_truths=gts)
        flagged = EvalExample(predictions=(), ground_truths=gts, flagged="scene_0001")
        rep = build_report([hit, flagged], ks=(1,), ns=(1,), epsilon=0.9)
        assert rep.n_examples == 2 and rep.acc[1][1] == 0.5
        assert json.loads(rep.to_json())["flagged"] == {"count": 1, "ids": ["scene_0001"]}
        # all flagged: zero hits, nothing to rank
        assert build_report([flagged, flagged], (1,), (1,), 0.0).acc[1][1] == 0.0
        # no flagged example: no "flagged" entry at all
        assert "flagged" not in json.loads(build_report([hit], ks=(1,), ns=(1,)).to_json())

    def test_flagged_example_still_needs_its_crops(self):
        flagged = EvalExample(predictions=(), ground_truths=(_gt(0.5, 0.5, 0.2, 0.2, 3.0),), flagged="x")
        with pytest.raises(NTooLarge):
            build_report([flagged], (1,), (2,), 0.5)


class TestReport:
    def test_build_report_consistency(self):
        rng = np.random.default_rng(8)
        examples = [random_eval_example(rng, 8, 10) for _ in range(6)]
        rep = build_report(examples, ks=(1, 2), ns=(3, 5), epsilon=0.5)
        assert rep.n_examples == 6
        for n in (3, 5):
            for k in (1, 2):
                assert rep.acc[n][k] == build_report(examples, (k,), (n,), 0.5).acc[n][k]
            assert rep.acc_bar[n] == build_report(examples, (1, 2), (n,), 0.5).acc_bar[n]

    def test_json_round_trip(self):
        rng = np.random.default_rng(9)
        examples = [random_eval_example(rng, 6, 8) for _ in range(3)]
        rep = build_report(examples, ks=(1, 2), ns=(3,), epsilon=0.9)
        payload = json.loads(rep.to_json())
        assert payload["epsilon"] == 0.9
        assert payload["examples"] == 3
        assert payload["acc"]["3"]["2"] == rep.acc[3][2]
        assert payload["acc_bar"]["3"] == rep.acc_bar[3]

    def test_render_table_layout(self):
        rng = np.random.default_rng(10)
        examples = [random_eval_example(rng, 6, 8) for _ in range(3)]
        rep = build_report(examples, ks=(1, 2), ns=(3,), epsilon=0.9)
        text = render_table([("average", rep), ("off", rep)])
        lines = text.splitlines()
        assert lines[0].split() == ["run", "Acc_1/3", "Acc_2/3", "AccBar_3"]
        assert lines[2].startswith("average") and lines[3].startswith("off")
        assert f"{rep.acc[3][1]:.4f}" in lines[2]

    def test_render_empty(self):
        assert render_table([]) == ""
