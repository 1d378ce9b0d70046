import math
import random
import re

import pytest

from queryboost.corpus import DataFormatError
from queryboost.evaluation import (Ranking, evaluate_run, ndcg_at_k, read_qrels,
                                   read_queries_tsv, read_run, write_run)


def rk(qid, *pairs):
    return Ranking(query_id=qid, items=tuple(pairs))


class TestNdcg:
    def test_perfect_ranking(self):
        qrels = {"q1": {"d1": 3, "d2": 2, "d3": 1}}
        r = rk("q1", ("d1", 3.0), ("d2", 2.0), ("d3", 1.0))
        assert ndcg_at_k(r, qrels, 10) == 1.0

    def test_single_relevant_at_rank_2(self):
        qrels = {"q1": {"dgood": 1}}
        r = rk("q1", ("dother", 2.0), ("dgood", 1.0))
        expected = (1 / math.log2(3)) / (1 / math.log2(2))
        assert ndcg_at_k(r, qrels, 10) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.6309, abs=1e-4)

    def test_relevant_missing_from_topk(self):
        qrels = {"q1": {"dgood": 2}}
        r = rk("q1", *((f"d{i}", float(20 - i)) for i in range(15)))
        assert ndcg_at_k(r, qrels, 10) == 0.0

    def test_in_unit_interval(self):
        rng = random.Random(3)
        for _ in range(50):
            doc_ids = [f"d{i}" for i in range(10)]
            qrels = {"q": {d: rng.randint(0, 3) for d in doc_ids}}
            if not any(qrels["q"].values()):
                qrels["q"]["d0"] = 1
            rng.shuffle(doc_ids)
            r = rk("q", *((d, float(10 - i)) for i, d in enumerate(doc_ids)))
            val = ndcg_at_k(r, qrels, 5)
            assert 0.0 <= val <= 1.0

    def test_monotone_score_rescaling_invariant(self):
        rng = random.Random(9)
        for _ in range(100):
            doc_ids = [f"d{i}" for i in range(8)]
            qrels = {"q": {rng.choice(doc_ids): rng.randint(1, 3)}}
            rng.shuffle(doc_ids)
            scores = sorted((rng.uniform(0, 10) for _ in doc_ids), reverse=True)
            r1 = rk("q", *zip(doc_ids, scores))
            r2 = rk("q", *zip(doc_ids, [3 * s + 7 for s in scores]))
            assert ndcg_at_k(r1, qrels, 5) == ndcg_at_k(r2, qrels, 5)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            ndcg_at_k(rk("q", ("d", 1.0)), {"q": {"d": 1}}, 0)

    def test_no_positive_judgments_rejected(self):
        with pytest.raises(ValueError):
            ndcg_at_k(rk("q", ("d", 1.0)), {"q": {"d": 0}}, 10)

    def test_exponential_gain_variant(self):
        qrels = {"q": {"d1": 3, "d2": 1}}
        r = rk("q", ("d2", 2.0), ("d1", 1.0))
        lin = ndcg_at_k(r, qrels, 10, exponential_gain=False)
        exp = ndcg_at_k(r, qrels, 10, exponential_gain=True)
        assert lin != exp


class TestEvaluateRun:
    def test_mean_of_two(self):
        qrels = {"q1": {"d1": 1}, "q2": {"d2": 1}}
        run = [rk("q1", ("d1", 1.0)), rk("q2", ("dx", 1.0))]
        report = evaluate_run(run, qrels, 10)
        assert report.mean == 0.5
        assert report.num_evaluated == 2

    def test_empty_run(self):
        report = evaluate_run([], {}, 10)
        assert report.num_evaluated == 0
        assert report.mean == 0.0

    def test_unjudged_query_skipped(self):
        qrels = {"q1": {"d1": 1}}
        run = [rk("q1", ("d1", 1.0)), rk("qx", ("d1", 1.0))]
        report = evaluate_run(run, qrels, 10)
        assert report.skipped == ["qx"]
        assert report.mean == 1.0

    def test_fingerprint_tracks_config(self):
        qrels = {"q1": {"d1": 1}}
        run = [rk("q1", ("d1", 1.0))]
        a = evaluate_run(run, qrels, 10, config={"beta": 4})
        b = evaluate_run(run, qrels, 10, config={"beta": 6})
        c = evaluate_run(run, qrels, 5, config={"beta": 4})
        assert a.fingerprint != b.fingerprint
        assert a.fingerprint != c.fingerprint

    def test_mean_order_invariant(self):
        qrels = {"q1": {"d1": 1}, "q2": {"d9": 1}}
        run = [rk("q1", ("d1", 1.0)), rk("q2", ("d2", 1.0), ("d9", 0.5))]
        assert evaluate_run(run, qrels, 10).mean == \
            evaluate_run(list(reversed(run)), qrels, 10).mean


class TestQrelsIO:
    def test_parse_line(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("q1 0 d7 3\nq1 0 d8 0\n")
        qrels = read_qrels(p)
        assert qrels["q1"]["d7"] == 3
        assert qrels["q1"]["d8"] == 0

    def test_malformed_line_lineno(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("q1 0 d7 3\nbad line\n")
        with pytest.raises(ValueError, match=":2"):
            read_qrels(p)

    def test_negative_grade_rejected(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("q1 0 d7 -1\n")
        with pytest.raises(ValueError):
            read_qrels(p)

    # int() reads each as a grade (10, 1, 1, 1); trec_eval-style readers reject them
    @pytest.mark.parametrize("grade", ["1_0", "\u0661", "\uff11", "\u0660_1"])
    def test_grade_with_underscore_or_non_ascii_digit_rejected(self, tmp_path, grade):
        p = tmp_path / "qrels.txt"
        p.write_text(f"q1 0 d7 1\nq1 0 d8 {grade}\n", encoding="utf-8")
        with pytest.raises(DataFormatError,
                           match=re.escape(f"qrels.txt:2: non-integer grade {grade!r}")):
            read_qrels(p)

    def test_signed_ascii_grade_read(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("q1 0 d7 +2\nq1 0 d8 007\n")
        assert read_qrels(p) == {"q1": {"d7": 2, "d8": 7}}


class TestRunIO:
    def test_round_trip_order(self, tmp_path):
        rng = random.Random(2)
        items = tuple((f"d{i:03d}", float(s))
                      for i, s in enumerate(sorted((rng.uniform(0, 9)
                                                    for _ in range(100)),
                                                   reverse=True)))
        run = [Ranking(query_id="q1", items=items)]
        p = tmp_path / "a.run"
        write_run(p, run)
        got = read_run(p)
        assert got[0].query_id == "q1"
        assert [d for d, _ in got[0].items] == [d for d, _ in items]

    def test_rank_field_one_based(self, tmp_path):
        p = tmp_path / "a.run"
        write_run(p, [rk("q1", ("d1", 2.0), ("d2", 1.0))], tag="t")
        lines = p.read_text().splitlines()
        assert lines[0].split() == ["q1", "Q0", "d1", "1", "2.000000", "t"]
        assert lines[1].split()[3] == "2"

    def test_failed_write_leaves_previous_run_file(self, tmp_path):
        p = tmp_path / "a.run"
        write_run(p, [rk("q1", ("d1", 2.0))])
        before = p.read_bytes()
        # many lines reach the file before q2's score, which is not a number, stops it
        many = rk("q1", *((f"d{i:04d}", 1.0) for i in range(2000)))
        with pytest.raises(ValueError, match="format code 'f'"):
            write_run(p, [many, rk("q2", ("d1", "high"))])
        assert p.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["a.run"]

    def test_malformed_run_line(self, tmp_path):
        p = tmp_path / "a.run"
        p.write_text("q1 Q0 d1 1 notanumber tag\n")
        with pytest.raises(ValueError, match=":1"):
            read_run(p)

    def test_lines_read_in_score_order(self, tmp_path):
        # Ranking promises non-increasing scores, whatever the file's order; ties keep it
        p = tmp_path / "a.run"
        p.write_text("q1 Q0 d2 1 1.0 t\nq2 Q0 d9 1 5.0 t\nq1 Q0 d1 2 3.0 t\n"
                     "q1 Q0 d4 3 1.0 t\nq1 Q0 d3 4 -inf t\nq1 Q0 d5 5 1.0 t\n")
        assert read_run(p) == [rk("q1", ("d1", 3.0), ("d2", 1.0), ("d4", 1.0), ("d5", 1.0),
                                  ("d3", -math.inf)),
                               rk("q2", ("d9", 5.0))]
        qrels = {"q1": {"d1": 3, "d2": 1}}
        assert ndcg_at_k(read_run(p)[0], qrels, 10) == 1.0  # 0.796708 in file order

    @pytest.mark.parametrize("score", ["nan", "NaN", "-nan"])
    def test_nan_score_rejected(self, tmp_path, score):
        p = tmp_path / "a.run"
        p.write_text(f"q1 Q0 d1 1 2.0 t\nq1 Q0 d2 2 {score} t\n")
        with pytest.raises(DataFormatError,
                           match=re.escape(f"a.run:2: non-numeric score {score!r}")):
            read_run(p)

    # float() reads each as a number (1000.0, 1.5, 1.0); trec_eval-style readers do not
    @pytest.mark.parametrize("score", ["1_000", "\u0661.5", "1.0_0"])
    def test_score_with_underscore_or_non_ascii_digit_rejected(self, tmp_path, score):
        p = tmp_path / "a.run"
        p.write_text(f"q1 Q0 d1 1 2.0 t\nq1 Q0 d2 2 {score} t\n", encoding="utf-8")
        with pytest.raises(DataFormatError,
                           match=re.escape(f"a.run:2: non-numeric score {score!r}")):
            read_run(p)

    def test_ascii_float_literals_read(self, tmp_path):
        p = tmp_path / "a.run"
        p.write_text("q1 Q0 d1 1 1e3 t\nq1 Q0 d2 2 +2.5 t\nq1 Q0 d3 3 -.5 t\n"
                     "q1 Q0 d4 4 -inf t\n")
        assert read_run(p) == [rk("q1", ("d1", 1000.0), ("d2", 2.5), ("d3", -0.5),
                                  ("d4", -math.inf))]


class TestQueriesTsv:
    def test_parse(self, tmp_path):
        p = tmp_path / "q.tsv"
        p.write_text("q1\twhat is bm25\nq2\tsecond query\n")
        assert read_queries_tsv(p) == [("q1", "what is bm25"), ("q2", "second query")]

    def test_missing_tab(self, tmp_path):
        p = tmp_path / "q.tsv"
        p.write_text("no tab here\n")
        with pytest.raises(ValueError, match=":1"):
            read_queries_tsv(p)

    def test_tokenless_query_rejected(self, tmp_path):
        p = tmp_path / "q.tsv"
        p.write_text("q1\tfine\nq0\t!!! ???\n")
        with pytest.raises(DataFormatError, match=r"q\.tsv:2: query 'q0' has no tokens"):
            read_queries_tsv(p)

    @pytest.mark.parametrize("query_id", ["q 0", " q0", "q0 ", ""])
    def test_id_a_run_file_cannot_hold_names_the_line(self, tmp_path, query_id):
        p = tmp_path / "q.tsv"
        p.write_text(f"q1\tfine\n{query_id}\tabout alias0\n")
        with pytest.raises(DataFormatError, match=re.escape(
                f"q.tsv:2: query id {query_id!r} is empty or holds whitespace")):
            read_queries_tsv(p)

    @pytest.mark.parametrize("repeat", ["q0\tabout alias0", "q0\tother text"])
    def test_repeated_id_rejected_naming_both_lines(self, tmp_path, repeat):
        p = tmp_path / "q.tsv"
        p.write_text(f"q0\tabout alias0\nq1\tabout alias1\n\n{repeat}\n")
        with pytest.raises(DataFormatError,
                           match=r"q\.tsv:4: duplicate query id 'q0' \(first on line 1\)"):
            read_queries_tsv(p)
