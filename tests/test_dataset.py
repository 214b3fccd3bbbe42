import csv
import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import binom

from rarerisk.dataset import (
    DataSet,
    PredictorSchema,
    SynthSpec,
    base_rate,
    load_csv,
    split_train_test,
    synthesize,
    write_csv,
)
from rarerisk.errors import (
    DatasetError,
    EmptyFileError,
    NonBinaryValueError,
    SchemaMismatchError,
)


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestSchema:
    def test_rejects_duplicates(self):
        with pytest.raises(DatasetError):
            PredictorSchema(("a", "a"))

    def test_rejects_response_collision(self):
        with pytest.raises(DatasetError):
            PredictorSchema(("a", "b"), response_name="b")

    def test_rejects_empty(self):
        with pytest.raises(DatasetError):
            PredictorSchema(())


class TestLoadCsv:
    def test_small_file(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "a,b,y\n0,1,0\n1,0,1\n1,1,0\n")
        ds = load_csv(path)
        assert ds.n == 3 and ds.p == 2
        assert ds.schema.names == ("a", "b")
        assert ds.X.tolist() == [[0, 1], [1, 0], [1, 1]]
        assert ds.y.tolist() == [0, 1, 0]

    def test_non_binary_cell_names_row_and_column(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "a,b,y\n0,2,0\n")
        with pytest.raises(NonBinaryValueError) as exc:
            load_csv(path)
        assert exc.value.row == 1
        assert exc.value.column == "b"

    def test_missing_value_rejected(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "a,y\n,1\n")
        with pytest.raises(NonBinaryValueError):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "absent.csv")

    def test_empty_file(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "")
        with pytest.raises(EmptyFileError):
            load_csv(path)

    def test_header_only(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "a,y\n")
        with pytest.raises(EmptyFileError):
            load_csv(path)

    def test_schema_mismatch(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "a,b,y\n0,1,0\n")
        with pytest.raises(SchemaMismatchError):
            load_csv(path, schema=PredictorSchema(("a", "c")))

    def test_schema_reorders_columns(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "b,a,y\n0,1,0\n")
        ds = load_csv(path, schema=PredictorSchema(("a", "b")))
        assert ds.X.tolist() == [[1, 0]]

    def test_response_by_name(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "y,a,b\n1,0,1\n")
        ds = load_csv(path, response="y")
        assert ds.schema.names == ("a", "b")
        assert ds.y.tolist() == [1]

    def test_desk_scale_shape(self, tmp_path):
        rng = np.random.default_rng(0)
        n, p = 22449, 34
        X = rng.integers(0, 2, size=(n, p), dtype=np.uint8)
        y = rng.integers(0, 2, size=n, dtype=np.uint8)
        ds = DataSet(PredictorSchema.default(p), X, y)
        path = tmp_path / "big.csv"
        write_csv(ds, path)
        loaded = load_csv(path)
        assert loaded.n == 22449 and loaded.p == 34

    @given(
        n=st.integers(1, 12),
        p=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip(self, n, p, seed, tmp_path_factory):
        # The first name needs quoting; the file holds the bytes csv.writer
        # writes row by row.
        rng = np.random.default_rng(seed)
        names = ("a,b",) + PredictorSchema.default(p).names[1:]
        ds = DataSet(
            PredictorSchema(names),
            rng.integers(0, 2, size=(n, p), dtype=np.uint8),
            rng.integers(0, 2, size=n, dtype=np.uint8),
        )
        path = tmp_path_factory.mktemp("rt") / "d.csv"
        write_csv(ds, path)
        want = io.StringIO()
        writer = csv.writer(want)
        writer.writerow(list(names) + ["y"])
        writer.writerows(np.column_stack([ds.X, ds.y]).tolist())
        assert path.read_bytes() == want.getvalue().encode("utf-8")
        back = load_csv(path)
        assert back.schema == ds.schema
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.y, ds.y)


class TestDataSetValidation:
    def test_rejects_non_binary(self):
        with pytest.raises(DatasetError):
            DataSet(PredictorSchema(("a",)), np.array([[2]]), np.array([0]))

    def test_rejects_arity_mismatch(self):
        with pytest.raises(DatasetError):
            DataSet(PredictorSchema(("a", "b")), np.array([[1]]), np.array([0]))

    def test_arrays_frozen(self):
        ds = DataSet(PredictorSchema(("a",)), np.array([[1]]), np.array([0]))
        with pytest.raises(ValueError):
            ds.X[0, 0] = 0


class TestSplit:
    def test_paper_scale_sizes(self):
        rng = np.random.default_rng(1)
        ds = DataSet(
            PredictorSchema.default(3),
            rng.integers(0, 2, size=(22449, 3), dtype=np.uint8),
            rng.integers(0, 2, size=22449, dtype=np.uint8),
        )
        train, test = split_train_test(ds, 20000, seed=4)
        assert (train.n, test.n) == (20000, 2449)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        ds = DataSet(
            PredictorSchema.default(2),
            rng.integers(0, 2, size=(50, 2), dtype=np.uint8),
            rng.integers(0, 2, size=50, dtype=np.uint8),
        )
        a1, b1 = split_train_test(ds, 30, seed=9)
        a2, b2 = split_train_test(ds, 30, seed=9)
        assert np.array_equal(a1.X, a2.X) and np.array_equal(b1.y, b2.y)

    def test_n_train_equal_n_rejected(self):
        ds = DataSet(
            PredictorSchema(("a",)), np.array([[0], [1]]), np.array([0, 1])
        )
        with pytest.raises(DatasetError):
            split_train_test(ds, 2, seed=0)

    @given(seed=st.integers(0, 2**32 - 1), n_train=st.integers(1, 39))
    def test_partition_property(self, seed, n_train):
        rng = np.random.default_rng(7)
        ds = DataSet(
            PredictorSchema.default(3),
            rng.integers(0, 2, size=(40, 3), dtype=np.uint8),
            rng.integers(0, 2, size=40, dtype=np.uint8),
        )
        train, test = split_train_test(ds, n_train, seed=seed)
        rows = np.vstack(
            [
                np.column_stack([train.X, train.y]),
                np.column_stack([test.X, test.y]),
            ]
        )
        original = np.column_stack([ds.X, ds.y])
        key = lambda m: sorted(map(tuple, m.tolist()))
        assert key(rows) == key(original)


class TestSynthesize:
    def spec(self, **kw):
        base = dict(
            n=200,
            p=4,
            base_rate=0.05,
            effects=(0.0, 0.0, 0.0, 0.0),
            predictor_on_rates=(0.5, 0.5, 0.5, 0.5),
            seed=3,
        )
        base.update(kw)
        return SynthSpec(**base)

    def test_zero_base_rate_forces_zero_response(self):
        ds = synthesize(self.spec(base_rate=0.0, effects=(1.0, -1.0, 0.5, 0.0)))
        assert ds.y.sum() == 0

    def test_unit_base_rate_forces_one_response(self):
        ds = synthesize(self.spec(base_rate=1.0))
        assert ds.y.min() == 1

    def test_deterministic(self):
        d1 = synthesize(self.spec(seed=11))
        d2 = synthesize(self.spec(seed=11))
        assert np.array_equal(d1.X, d2.X) and np.array_equal(d1.y, d2.y)

    def test_positive_fraction_within_binomial_bounds(self):
        # Central 99.9% interval of Bin(20000, 0.05); the response mean is
        # a Poisson-binomial with matched mean and no larger variance, so
        # the binomial interval is conservative.
        n = 20000
        spec = SynthSpec(
            n=n,
            p=34,
            base_rate=0.05,
            effects=tuple([0.0] * 34),
            predictor_on_rates=tuple([0.5] * 34),
            seed=1234,
        )
        ds = synthesize(spec)
        lo = binom.ppf(0.0005, n, 0.05) / n
        hi = binom.ppf(0.9995, n, 0.05) / n
        assert lo <= base_rate(ds) <= hi

    def test_effects_shift_conditional_rate(self):
        spec = self.spec(
            n=40000, effects=(2.0, 0.0, 0.0, 0.0), base_rate=0.10, seed=5
        )
        ds = synthesize(spec)
        on = ds.X[:, 0] == 1
        assert base_rate(ds.take(np.flatnonzero(on))) > base_rate(
            ds.take(np.flatnonzero(~on))
        )

    def test_invalid_spec_rejected(self):
        with pytest.raises(DatasetError):
            self.spec(base_rate=1.5)
        with pytest.raises(DatasetError):
            self.spec(effects=(1.0,))

    def test_no_signal_fit_has_chance_auc(self):
        # With all effects zero, any model fit on train should score test
        # rows no better than chance: median AUC across seeds in
        # [0.45, 0.55], with AUC computed by the rank statistic.
        from rarerisk.boosting import BoostConfig, fit_boost

        def rank_auc(scores, labels):
            order = np.argsort(scores, kind="stable")
            ranks = np.empty(len(scores))
            ranks[order] = np.arange(1, len(scores) + 1)
            # midranks for tied scores
            for v in np.unique(scores):
                mask = scores == v
                ranks[mask] = ranks[mask].mean()
            n_pos = int(labels.sum())
            n_neg = len(labels) - n_pos
            u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2
            return u / (n_pos * n_neg)

        aucs = []
        for seed in range(5):
            spec = SynthSpec(
                n=5000,
                p=8,
                base_rate=0.10,
                effects=tuple([0.0] * 8),
                predictor_on_rates=tuple([0.5] * 8),
                seed=500 + seed,
            )
            ds = synthesize(spec)
            train, test = split_train_test(ds, 4000, seed=600 + seed)
            cfg = BoostConfig(
                cost_ratio=5.0,
                interaction_depth=2,
                shrinkage=0.1,
                bag_fraction=0.5,
                min_node=10,
                max_trees=30,
                cv_folds=5,
                seed=700 + seed,
            )
            model = fit_boost(train, cfg)
            scores = model.predict(test.X)
            aucs.append(rank_auc(scores, test.y.astype(int)))
        assert 0.45 <= float(np.median(aucs)) <= 0.55


class TestBaseRate:
    def test_quarter(self):
        ds = DataSet(
            PredictorSchema(("a",)),
            np.zeros((4, 1), np.uint8),
            np.array([0, 0, 0, 1]),
        )
        assert base_rate(ds) == 0.25

    def test_all_zero(self):
        ds = DataSet(
            PredictorSchema(("a",)), np.zeros((3, 1), np.uint8), np.zeros(3)
        )
        assert base_rate(ds) == 0.0
