import csv
import io
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.stats import binom

from rarerisk import dataset
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
    GeneticError,
    NonBinaryValueError,
    SchemaMismatchError,
    SynthesisError,
)
from rarerisk.genetic import Population, load_population_csv, save_population_csv


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


# Cells that are not "0" or "1", among them spellings that int() accepts ("+1",
# "01", the full-width one) and one that a fixed-width str array reads as "0".
_BAD_CELLS = ["2", "", "+1", "01", "yes", "0\x00", "\uff11"]

# Python 3.10's csv module refuses a NUL byte outright; later versions keep it
# in the cell.
try:
    _CSV_KEEPS_NUL = list(csv.reader(["\x00"])) == [["\x00"]]
except csv.Error:
    _CSV_KEEPS_NUL = False


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

    def test_response_by_name(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "y,a,b\n1,0,1\n")
        ds = load_csv(path, response="y")
        assert ds.schema.names == ("a", "b")
        assert ds.y.tolist() == [1]

    def test_blank_lines_skipped(self, tmp_path):
        # A blank first line used to be read as an empty header.
        path = write_text(tmp_path / "d.csv", "\na, b\n\n 1 ,0\n")
        ds = load_csv(path)
        assert ds.schema == PredictorSchema(("a",), "b")
        assert ds.X.tolist() == [[1]] and ds.y.tolist() == [0]

    def test_unknown_response(self, tmp_path):
        path = write_text(tmp_path / "d.csv", "a,y\n0,1\n")
        with pytest.raises(SchemaMismatchError):
            load_csv(path, response="z")

    @given(
        n=st.integers(1, 12),
        p=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        bad=st.lists(
            st.tuples(st.integers(0, 10**4), st.sampled_from(_BAD_CELLS)),
            max_size=3,
        ),
    )
    # A lone NUL-padded cell; and bad cells at (row 1, y) and (row 2, x01),
    # where row-major order names the first and column-major the second.
    @example(n=1, p=1, seed=0, bad=[(0, "0\x00")])
    @example(n=2, p=1, seed=0, bad=[(2, "2"), (1, "yes")])
    def test_one_cell_check_for_datasets_and_populations(
        self, n, p, seed, bad, tmp_path_factory
    ):
        # The same cells as a dataset (response last) and as a population's
        # genes (fitness after them): both refuse the first bad cell in
        # row-major order, and a clean table loads back bit-identically.
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(n, p + 1), dtype=np.uint8)
        fitness = rng.random(n)
        cells = bits.astype(str).astype(object)
        for k, token in bad:
            cells.flat[k % cells.size] = token
        names = list(PredictorSchema.default(p).names) + ["y"]
        tmp = tmp_path_factory.mktemp("cells")
        data, pop = tmp / "d.csv", tmp / "pop.csv"
        lines = [",".join(row) for row in cells.tolist()]
        data.write_text("\n".join([",".join(names)] + lines) + "\n", "utf-8")
        pop.write_text(
            "\n".join([",".join(names + ["fitness"])]
                      + [f"{line},{f!r}" for line, f in zip(lines, fitness.tolist())]) + "\n",
            "utf-8",
        )
        if not bad:
            ds = load_csv(data)
            population, back_names = load_population_csv(pop)
            assert ds.schema == PredictorSchema(tuple(names[:-1]))
            assert np.array_equal(np.column_stack([ds.X, ds.y]), bits)
            assert back_names == names
            assert np.array_equal(population.members, bits)
            assert population.fitness.tobytes() == fitness.tobytes()
            return
        with pytest.raises(DatasetError) as exc:
            load_csv(data)
        with pytest.raises(GeneticError) as gen:
            load_population_csv(pop)
        if _CSV_KEEPS_NUL or not any("\x00" in c for c in cells.flat):
            i, j = divmod(min(k % cells.size for k, _ in bad), p + 1)
            assert exc.type is NonBinaryValueError
            assert (exc.value.row, exc.value.column, exc.value.value) == (
                i + 1, names[j], cells[i, j]
            )
            assert str(exc.value) in str(gen.value)

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


# Characters that csv.writer quotes, that str.strip removes (\x1c to \x1f,
# \x85 and Unicode spaces among them) or that Python 3.10's csv refuses,
# mixed into st.text()'s draws so that the property meets each of them often.
_NAME_TEXT = st.text(
    st.one_of(st.sampled_from(',"\r\n\x00 \t\x1c\x85\xa0\u2028\u3000'), st.characters()),
    max_size=4,
)


def _write_or_refuse(write, table, rows, error, refused, tmp):
    """write(table, tmp / "t.csv"). If refused, it must raise error and
    leave tmp empty; otherwise tmp must hold just that file, in the bytes
    csv.writer writes for rows. Returns the path written, or None."""
    path = tmp / "t.csv"
    if refused:
        with pytest.raises(error):
            write(table, path)
        assert list(tmp.iterdir()) == []
        return None
    write(table, path)
    want = io.StringIO()
    csv.writer(want).writerows(rows)
    assert path.read_bytes() == want.getvalue().encode("utf-8")
    assert list(tmp.iterdir()) == [path]
    return path


class TestBinaryCsvRoundTrip:
    """Every file that write_csv and save_population_csv write reads back
    bit-identically, in the bytes csv.writer writes; a table the reader
    would not give back raises the writer's typed error, and nothing is
    written."""

    @given(
        names=st.lists(_NAME_TEXT, min_size=2, max_size=7, unique=True),
        fitness=st.lists(st.floats(), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(names=["a\x1c", "y"], fitness=[0.5], seed=0)
    @example(names=["a", " a"], fitness=[0.5], seed=0)
    @example(names=["a", "y"], fitness=[0.5, math.nan], seed=0)
    @example(names=["a", "y"], fitness=[-math.inf, 0.5], seed=0)
    @example(names=[',"\n', "y"], fitness=[0.5, 0.25], seed=0)
    @example(names=["a", "y"], fitness=[0.5], seed=1)  # p = 1, one row
    @example(names=["a", "b", "y"], fitness=[5e-324, -0.0, 1e16], seed=2)
    def test_reads_back_or_refuses(self, names, fitness, seed, tmp_path_factory):
        # names holds p predictor names and the response name (a population
        # takes the first p), and fitness one value per row.
        fitness = np.array(fitness)
        n, p = len(fitness), len(names) - 1
        bits = np.random.default_rng(seed).integers(0, 2, size=(n, p + 1), dtype=np.uint8)
        ds = DataSet(PredictorSchema(tuple(names[:p]), names[p]), bits[:, :p], bits[:, p])
        pop = Population(bits[:, :p], fitness)
        # The names the reader would not give back: it strips every name, and
        # Python 3.10's refuses a NUL.
        changed = [
            name.strip() != name or ("\x00" in name and not _CSV_KEEPS_NUL)
            for name in names
        ]

        path = _write_or_refuse(
            write_csv, ds, [names] + bits.tolist(), DatasetError, any(changed),
            tmp_path_factory.mktemp("data"),
        )
        if path is not None:
            back = load_csv(path)
            assert back.schema == ds.schema
            assert np.array_equal(back.X, ds.X) and np.array_equal(back.y, ds.y)

        rows = [names[:p] + ["fitness"]] + [
            genes + [repr(f)] for genes, f in zip(bits[:, :p].tolist(), fitness.tolist())
        ]
        path = _write_or_refuse(
            lambda pop, path: save_population_csv(pop, path, names[:p]),
            pop, rows, GeneticError,
            any(changed[:p]) or not np.isfinite(fitness).all(),
            tmp_path_factory.mktemp("pop"),
        )
        if path is not None:
            back, back_names = load_population_csv(path)
            assert back_names == names[:p]
            assert np.array_equal(back.members, pop.members)
            assert back.fitness.tobytes() == pop.fitness.tobytes()


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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_effect_rejected(self, bad):
        with pytest.raises(DatasetError, match="finite"):
            self.spec(effects=(0.0, bad, 0.0, 0.0))

    def test_effects_whose_absolute_sum_overflows_rejected(self):
        # Each is finite, but a row with all four on would sum past 1.8e308.
        with pytest.raises(DatasetError, match="absolute sum"):
            self.spec(effects=(1e308, 1e308, -1e308, -1e308))

    def test_strong_negative_effect_warns_nothing(self):
        # exp(800 - alpha) overflows to inf: those rows get probability 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = synthesize(self.spec(effects=(-800.0, 0.0, 0.0, 0.0)))
        on = ds.X[:, 0] == 1
        assert on.any() and ds.y[on].max() == 0
        assert ds.y[~on].max() == 1

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


def one_shot_synthesize(spec):
    """synthesize as one (n, p) draw and one signal product: the oracle for
    the block-wise fill."""
    rng = np.random.default_rng(spec.seed)
    on = np.asarray(spec.predictor_on_rates)
    X = (rng.random((spec.n, spec.p)) < on[None, :]).astype(np.uint8)
    if spec.base_rate == 0.0:
        y = np.zeros(spec.n, dtype=np.uint8)
    elif spec.base_rate == 1.0:
        y = np.ones(spec.n, dtype=np.uint8)
    else:
        signal = X.astype(np.float64) @ np.asarray(spec.effects)
        alpha = dataset._solve_intercept(signal, spec.base_rate)
        with np.errstate(over="ignore"):
            probs = 1.0 / (1.0 + np.exp(-(alpha + signal)))
        y = (rng.random(spec.n) < probs).astype(np.uint8)
    return DataSet(PredictorSchema.default(spec.p), X, y)


def _draw_bits(draw, spec):
    """draw(spec) as (X, y, [signal and alpha bytes of each intercept solve])."""
    solves = []
    solve = dataset._solve_intercept

    def spy(signal, target):
        alpha = solve(signal, target)
        solves.append(signal.tobytes() + np.float64(alpha).tobytes())
        return alpha

    with mock.patch.object(dataset, "_solve_intercept", spy):
        ds = draw(spec)
    return ds.X.tobytes(), ds.y.tobytes(), solves


class TestSynthesizeBlocks:
    # A budget of `cells` makes blocks of max(4, cells // p // 4 * 4) rows.
    @given(
        cells=st.integers(1, 400),
        n=st.integers(1, 150),
        p=st.integers(1, 90),
        base_rate=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(cells=64, n=1, p=5, base_rate=0.3, seed=1)  # a single row
    @example(cells=16, n=9, p=4, base_rate=0.3, seed=2)  # last block of one row
    @example(cells=160, n=9, p=40, base_rate=0.3, seed=32)  # the same, where a dot
    @example(cells=160, n=9, p=40, base_rate=0.3, seed=33)  # product would differ
    @example(cells=16, n=5, p=4, base_rate=0.3, seed=3)  # one block, then one row
    @example(cells=50, n=30, p=70, base_rate=0.3, seed=4)  # a row wider than a block
    @example(cells=64, n=23, p=3, base_rate=0.0, seed=5)
    @example(cells=64, n=23, p=3, base_rate=1.0, seed=6)
    def test_blocks_equal_one_shot_draw(self, cells, n, p, base_rate, seed):
        rng = np.random.default_rng(seed)
        on = rng.random(p)
        on[rng.random(p) < 0.1] = 0.0
        on[rng.random(p) < 0.1] = 1.0
        spec = SynthSpec(
            n=n,
            p=p,
            base_rate=base_rate,
            effects=tuple(rng.normal(0.0, 2.0, p)),
            predictor_on_rates=tuple(on),
            seed=seed,
        )
        with mock.patch.object(dataset, "_SYNTH_CELLS", cells):
            ours = _draw_bits(synthesize, spec)
        assert ours == _draw_bits(one_shot_synthesize, spec)

    def test_peak_memory_is_x_and_one_block(self):
        # Paper scale: 22449 x 34, ten predictors at effect 0.6. The first
        # draw pays numpy.random's lazy imports outside the trace.
        def spec(n):
            return SynthSpec(
                n=n,
                p=34,
                base_rate=0.05,
                effects=(0.6,) * 10 + (0.0,) * 24,
                predictor_on_rates=(0.5,) * 34,
                seed=1,
            )

        synthesize(spec(10))
        tracemalloc.start()
        try:
            ds = synthesize(spec(22449))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ds.X.nbytes + (1 << 20)


def _intercept_solve(signal, target, solver):
    """Root bits and every point the gap was evaluated at, with `solver`
    standing in for the intercept's root finder."""
    points = []

    def counted(f, a, b):
        def g(x):
            points.append(x)
            return f(x)

        return solver(g, a, b)

    with mock.patch.object(dataset, "_brentq", counted):
        root = dataset._solve_intercept(signal, target)
    return np.float64(root).tobytes(), points


class TestInterceptRoot:
    # The port against the compiled brentq it copies: the same gap
    # evaluations in the same order and the same root bits.
    @given(
        n=st.integers(1, 300),
        effects=st.lists(
            st.floats(-30, 30, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=8,
        ),
        on_rate=st.floats(0.0, 1.0),
        target=st.one_of(
            st.floats(1e-12, 1 - 1e-12),
            st.floats(1e-15, 1e-3),
            st.floats(-15, -3).map(lambda e: 1.0 - 10.0**e),
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_calls_and_root_as_brentq(self, n, effects, on_rate, target, seed):
        rng = np.random.default_rng(seed)
        X = rng.random((n, len(effects))) < on_rate
        signal = X.astype(np.float64) @ np.asarray(effects)
        try:
            ours = _intercept_solve(signal, target, dataset._brentq)
        except SynthesisError:  # no bracket: neither solver runs
            return
        theirs = _intercept_solve(
            signal, target, lambda f, a, b: brentq(f, a, b, xtol=1e-12)
        )
        assert ours == theirs


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
