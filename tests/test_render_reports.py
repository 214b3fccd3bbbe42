import csv
import json
import re

import numpy as np
import pytest

from rarerisk.analysis import commonality_importance, reverse_coding_importance
from rarerisk.boosting import ConfusionTable
from rarerisk.clustering import DissimilarityMatrix, agnes_average_linkage
from rarerisk.errors import RenderError
from rarerisk.genetic import GaConfig, Population, evolve
from rarerisk.render import render_dendrogram, render_histogram
from rarerisk.reports import (
    write_confusion_table,
    write_ga_trace,
    write_importance_table,
)

from conftest import make_model, make_stump


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestHistogram:
    def test_single_bin_catches_everything(self, tmp_path):
        path = tmp_path / "h.svg"
        render_histogram(np.full(500, 0.7), 10, path)
        svg = path.read_text()
        bars = re.findall(r'class="bar"[^>]*><title>(\d+)</title>', svg)
        assert bars == ["500"]

    def test_uniform_grid_even_bins(self, tmp_path):
        # Midpoint grid: uniform and clear of bin edges, so 10 per bin is
        # forced regardless of float boundary rounding.
        values = (np.arange(100) + 0.5) / 100.0
        path = tmp_path / "h.svg"
        render_histogram(values, 10, path)
        svg = path.read_text()
        counts = [int(c) for c in re.findall(r"<title>(\d+)</title>", svg)]
        assert counts == [10] * 10

    def test_counts_sum_to_input_length(self, tmp_path, rng):
        values = rng.random(321)
        path = tmp_path / "h.svg"
        render_histogram(values, 13, path)
        counts = [
            int(c) for c in re.findall(r"<title>(\d+)</title>", path.read_text())
        ]
        assert sum(counts) == 321

    def test_empty_vector_rejected(self, tmp_path):
        with pytest.raises(RenderError):
            render_histogram(np.empty(0), 10, tmp_path / "h.svg")

    def test_bad_bins_rejected(self, tmp_path):
        with pytest.raises(RenderError):
            render_histogram(np.array([0.5]), 0, tmp_path / "h.svg")

    def test_value_one_lands_in_last_bin(self, tmp_path):
        path = tmp_path / "h.svg"
        render_histogram(np.array([1.0, 1.0, 0.0]), 4, path)
        counts = [
            int(c) for c in re.findall(r"<title>(\d+)</title>", path.read_text())
        ]
        assert sum(counts) == 3

    def test_deterministic_bytes(self, tmp_path, rng):
        values = rng.random(64)
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        render_histogram(values, 8, p1)
        render_histogram(values, 8, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestDendrogramSvg:
    def render(self, d, labels, tmp_path):
        dm = DissimilarityMatrix(np.array(d), tuple(labels))
        dg = agnes_average_linkage(dm)
        path = tmp_path / "d.svg"
        render_dendrogram(dg, path)
        return dg, path.read_text()

    def test_two_leaf_single_junction(self, tmp_path):
        dg, svg = self.render(
            [[0.0, 0.6], [0.6, 0.0]], ("aa", "bb"), tmp_path
        )
        assert svg.count("<path") == 1
        assert svg.count('class="leaf"') == 2

    def test_leaf_count_matches_p(self, tmp_path, rng):
        p = 7
        m = rng.random((p, p))
        d = (m + m.T) / 2
        np.fill_diagonal(d, 0.0)
        dg, svg = self.render(d, [f"pred{i}" for i in range(p)], tmp_path)
        assert svg.count('class="leaf"') == p

    def test_duplicate_pair_zero_junctions(self, tmp_path):
        d = [
            [0.0, 0.0, 0.8, 0.8],
            [0.0, 0.0, 0.8, 0.8],
            [0.8, 0.8, 0.0, 0.0],
            [0.8, 0.8, 0.0, 0.0],
        ]
        dg, svg = self.render(d, ("a", "b", "c", "d"), tmp_path)
        assert svg.count("<path") == 3

    def test_coefficient_printed(self, tmp_path):
        # Two objects always first-merge at the final height, so AC = 0.
        dg, svg = self.render(
            [[0.0, 0.6], [0.6, 0.0]], ("aa", "bb"), tmp_path
        )
        assert "Agglomerative coefficient: 0.00" in svg


class TestConfusionReport:
    def test_layout_positions(self, tmp_path):
        table = ConfusionTable(tn=1542, fp=763, fn=77, tp=67)
        write_confusion_table(table, tmp_path / "confusion")
        rows = read_csv(tmp_path / "confusion.csv")
        assert rows[1][1:3] == ["1542", "763"]
        assert rows[2][1:3] == ["77", "67"]
        # Rendered error cells are the computed rates at two decimals.
        assert rows[1][3] == f"{763 / 2305:.2f}"
        assert rows[2][3] == f"{77 / 144:.2f}"
        assert rows[3][1] == f"{77 / 1619:.2f}"
        assert rows[3][2] == f"{763 / 830:.2f}"
        doc = json.loads((tmp_path / "confusion.json").read_text())
        assert doc["achieved_cost_ratio"] == 763 / 77

    def test_nan_rendered_empty(self, tmp_path):
        table = ConfusionTable(tn=5, fp=0, fn=2, tp=0)
        write_confusion_table(table, tmp_path / "c")
        rows = read_csv(tmp_path / "c.csv")
        assert rows[3][2] == ""  # no positive forecasts


class TestImportanceReport:
    def setup_inputs(self):
        model = make_model(
            [make_stump(0, 0.0, 1.2, 3), make_stump(1, 0.0, -0.7, 3)],
            p=3,
            intercept=0.4,
        )
        members = np.ones((20, 3), np.uint8)
        members[:10, 2] = 0
        pop = Population(members, np.full(20, 0.5))
        common = commonality_importance(pop)
        reverse = reverse_coding_importance(model, pop, common)
        in_sample = np.array([60.0, 40.0, 0.0])
        return model, pop, common, reverse, in_sample

    def test_merged_columns(self, tmp_path):
        _, _, common, reverse, in_sample = self.setup_inputs()
        write_importance_table(
            ("a", "b", "c"), in_sample, common, reverse, tmp_path / "imp"
        )
        rows = read_csv(tmp_path / "imp.csv")
        assert rows[0] == [
            "predictor",
            "in_sample_importance",
            "commonality",
            "switch_class",
            "recoded_mean",
            "drop",
        ]
        assert rows[1][0] == "a"  # sorted by in-sample importance
        assert rows[3][0] == "c"
        assert rows[3][4] == "" and rows[3][5] == ""  # not universal

    def test_no_universal_omits_columns_with_notice(self, tmp_path):
        members = np.array([[0, 1], [1, 0]], np.uint8)
        pop = Population(members, np.full(2, 0.5))
        common = commonality_importance(pop)
        write_importance_table(
            ("a", "b"), np.array([70.0, 30.0]), common, None, tmp_path / "imp"
        )
        rows = read_csv(tmp_path / "imp.csv")
        assert "recoded_mean" not in rows[0]
        doc = json.loads((tmp_path / "imp.json").read_text())
        assert "notice" in doc

    def test_benchmark_mean_in_json(self, tmp_path):
        _, _, common, reverse, in_sample = self.setup_inputs()
        write_importance_table(
            ("a", "b", "c"), in_sample, common, reverse, tmp_path / "imp"
        )
        doc = json.loads((tmp_path / "imp.json").read_text())
        assert doc["benchmark_mean"] == reverse.benchmark_mean

    def test_two_decimal_share_renders_exactly(self, tmp_path):
        # Importance shares like 27.12 must survive rendering unchanged.
        members = np.ones((4, 3), np.uint8)
        pop = Population(members, np.full(4, 0.5))
        common = commonality_importance(pop)
        write_importance_table(
            ("top", "mid", "low"),
            np.array([27.12, 70.0, 2.88]),
            common,
            None,
            tmp_path / "imp",
        )
        rows = read_csv(tmp_path / "imp.csv")
        by_name = {r[0]: r[1] for r in rows[1:]}
        assert by_name["top"] == "27.1200"


class TestGaTraceReport:
    def test_columns_and_roundtrip_values(self, tmp_path):
        trace = evolve(
            lambda c: float(np.mean(c)),
            p=6,
            config=GaConfig(pop_size=20, generations=5, seed=3),
        )
        write_ga_trace(trace, tmp_path / "trace")
        rows = read_csv(tmp_path / "trace.csv")
        assert rows[0] == [
            "generation",
            "best_fitness",
            "mean_fitness",
            "median_fitness",
        ]
        assert len(rows) == 7  # header + gen 0 + 5 steps
        assert float(rows[1][1]) == trace.best[0]
