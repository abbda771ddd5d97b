import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftfilter import svm
from driftfilter.features import SparseVector
from driftfilter.svm import (
    ALPHA_EPSILON, SvmError, TrainConfig, _KernelTable, decision_scores, train_smo,
    weight_vector,
)

import oracles


def vec(*coords, tag=None):
    positions = [i for i, c in enumerate(coords) if c != 0.0]
    return SparseVector(positions, [float(coords[i]) for i in positions], tag)


def gaussian_dataset(seed, n=20):
    """Seeded 2-D two-class set with some overlap."""
    rng = random.Random(seed)
    vectors, labels = [], []
    for i in range(n):
        label = 1 if i % 2 == 0 else -1
        cx, cy = (1.0, 1.0) if label == 1 else (-1.0, -1.0)
        vectors.append(vec(cx + rng.gauss(0, 0.8), cy + rng.gauss(0, 0.8)))
        labels.append(label)
    return vectors, labels


def dense(vectors, dim=2):
    X = np.zeros((len(vectors), dim))
    for i, v in enumerate(vectors):
        for p, w in oracles.entries(v):
            X[i, p] = w
    return X


class TestKernelEval:
    """The oracle kernel that the objective and KKT checks below rest on."""

    def test_linear_unit_self(self):
        config = TrainConfig()
        assert oracles.kernel_eval(config, vec(1.0, 0.0), vec(1.0, 0.0)) == 1.0

    def test_linear_disjoint_supports(self):
        config = TrainConfig()
        assert oracles.kernel_eval(config, vec(1.0, 0.0), vec(0.0, 2.0)) == 0.0

    def test_rbf_same_point(self):
        config = TrainConfig(kernel="rbf", gamma=0.5)
        assert oracles.kernel_eval(config, vec(0.3, 0.4), vec(0.3, 0.4)) == 1.0

    def test_rbf_distance(self):
        config = TrainConfig(kernel="rbf", gamma=0.5)
        value = oracles.kernel_eval(config, vec(1.0, 0.0), vec(0.0, 0.0))
        assert abs(value - math.exp(-0.5)) <= 1e-15


class TestTwoPointCase:
    def setup_method(self):
        self.vectors = [vec(1.0, 0.0), vec(-1.0, 0.0)]
        self.labels = [1, -1]
        self.model = train_smo(self.vectors, self.labels, TrainConfig(C=1.0))

    def test_both_support_vectors(self):
        assert len(self.model.alphas) == 2
        assert self.model.alphas[0] == pytest.approx(self.model.alphas[1], abs=1e-12)

    def test_bias_zero(self):
        assert abs(self.model.bias) <= 1e-9

    def test_weight_direction(self):
        w = weight_vector(self.model)
        assert w[0] > 0
        assert all(abs(value) <= 1e-12 for value in w[1:])

    def test_interior_sv_margin(self):
        # both SVs are interior (alpha = 0.5 < C); their scores sit on the margin
        for x, y in zip(self.vectors, self.labels):
            score = decision_scores(self.model, [x])[0]
            assert abs(abs(score) - 1.0) <= self.model.config.kkt_tolerance
            assert (1 if score > 0 else -1) == y

    def test_empty_vector_scores_bias(self):
        assert decision_scores(self.model, [vec()]) == [self.model.bias]


class TestXor:
    def test_feasible_dual_on_inseparable_data(self):
        vectors = [vec(1, 1), vec(-1, -1), vec(1, -1), vec(-1, 1)]
        labels = [1, 1, -1, -1]
        config = TrainConfig(C=1.0)
        model = train_smo(vectors, labels, config)
        alphas_by_id = dict(zip(model.sv_doc_ids, model.alphas))
        full = [alphas_by_id.get(str(i), 0.0) for i in range(4)]
        assert all(0.0 <= a <= config.C for a in full)
        assert abs(sum(a * y for a, y in zip(full, labels))) <= 1e-6
        violations = oracles.kkt_violations(vectors, labels, model)
        assert max(violations) <= config.kkt_tolerance


class TestAgainstQpOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_dual_objective_and_scores(self, seed):
        vectors, labels = gaussian_dataset(seed)
        config = TrainConfig(C=1.0, kkt_tolerance=1e-5)
        model = train_smo(vectors, labels, config)

        X = dense(vectors)
        y = np.array(labels, dtype=float)
        K = X @ X.T
        alpha, oracle_obj = oracles.qp_dual_solve(K, y, config.C)
        assert abs(model.objective - oracle_obj) <= 1e-6

        bias = oracles.qp_bias(K, y, alpha, config.C)
        rng = random.Random(seed + 100)
        probes = [vec(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(10)]
        oracle_scores = oracles.qp_scores(X, y, alpha, bias, dense(probes))
        for probe, expected in zip(probes, oracle_scores):
            assert abs(decision_scores(model, [probe])[0] - expected) <= 1e-4

    def test_objective_matches_direct_evaluation(self):
        vectors, labels = gaussian_dataset(3)
        config = TrainConfig(C=1.0)
        model = train_smo(vectors, labels, config)
        alphas_by_id = dict(zip(model.sv_doc_ids, model.alphas))
        full = [alphas_by_id.get(str(i), 0.0) for i in range(len(vectors))]
        direct = oracles.dual_objective(vectors, labels, full, config)
        assert abs(model.objective - direct) <= 1e-8


class TestModelInvariants:
    @pytest.mark.parametrize("seed", range(3))
    def test_dual_feasibility(self, seed):
        vectors, labels = gaussian_dataset(seed, n=24)
        config = TrainConfig(C=0.7)
        model = train_smo(vectors, labels, config)
        for alpha in model.alphas:
            assert ALPHA_EPSILON < alpha <= config.C + 1e-12
        balance = sum(a * y for a, y in zip(model.alphas, model.sv_labels))
        assert abs(balance) <= 1e-6

    def test_kkt_at_convergence(self):
        vectors, labels = gaussian_dataset(11, n=30)
        config = TrainConfig(C=1.0)
        model = train_smo(vectors, labels, config)
        assert model.converged
        assert max(oracles.kkt_violations(vectors, labels, model)) <= config.kkt_tolerance

    def test_sv_count_less_than_n_when_separable(self):
        rng = random.Random(13)
        vectors, labels = [], []
        for i in range(30):
            label = 1 if i % 2 == 0 else -1
            offset = 3.0 if label == 1 else -3.0
            vectors.append(vec(offset + rng.gauss(0, 0.3), rng.gauss(0, 0.3)))
            labels.append(label)
        model = train_smo(vectors, labels, TrainConfig(C=1.0))
        assert len(model.alphas) < len(vectors)

    def test_determinism(self):
        vectors, labels = gaussian_dataset(7)
        a = train_smo(vectors, labels, TrainConfig(C=1.0))
        b = train_smo(vectors, labels, TrainConfig(C=1.0))
        assert a == b


def assert_feasible_and_kkt(vectors, labels, config):
    """0 <= alpha <= C, sum(alpha*y) ~ 0, and KKT within tolerance."""
    model = train_smo(vectors, labels, config)
    for alpha in model.alphas:
        assert 0.0 < alpha <= config.C
    balance = sum(a * y for a, y in zip(model.alphas, model.sv_labels))
    assert abs(balance) <= 1e-6
    assert model.converged
    assert max(oracles.kkt_violations(vectors, labels, model)) <= config.kkt_tolerance


def kernel_config(kernel, C):
    return TrainConfig(C=C, kernel=kernel, gamma=0.5 if kernel == "rbf" else None)


EXTREME_C = (1e-6, 1e-3, 1.0, 1e3)


def coarse_dataset(seed):
    """Points whose coordinates take a handful of values: duplicates with
    either label and a low-rank linear Gram matrix. For seed 0 (16 points
    in 4-D) the linear C=1e3 solve needs over a thousand passes."""
    rng = random.Random(seed)
    n, dim = rng.randint(4, 30), rng.randint(1, 4)
    values = [0.0, 0.0, 1.0, -1.0, 0.5, 2.0, rng.gauss(0, 1)]
    vectors = [vec(*[rng.choice(values) for _ in range(dim)]) for _ in range(n)]
    labels = [1, -1] + [rng.choice((1, -1)) for _ in range(n - 2)]
    return vectors, labels


@st.composite
def degenerate_problems(draw):
    """Small sets over a few coordinate values: duplicates, opposite labels
    on equal points and empty vectors are common; dim 0 is all-empty."""
    n = draw(st.integers(2, 14))
    dim = draw(st.integers(0, 3))
    coords = st.sampled_from((0.0, 0.0, 1.0, -1.0, 0.5, 2.0))
    vectors = [
        vec(*draw(st.lists(coords, min_size=dim, max_size=dim))) for _ in range(n)
    ]
    labels = [1, -1] + draw(
        st.lists(st.sampled_from((1, -1)), min_size=n - 2, max_size=n - 2)
    )
    C = draw(st.sampled_from(EXTREME_C) | st.floats(1e-6, 1e3))
    return vectors, labels, kernel_config(draw(st.sampled_from(("linear", "rbf"))), C)


class TestSolverProperties:
    @settings(deadline=None, max_examples=200)
    @given(degenerate_problems())
    def test_feasible_and_kkt_on_degenerate_input(self, problem):
        assert_feasible_and_kkt(*problem)

    @pytest.mark.parametrize("kernel", ("linear", "rbf"))
    @pytest.mark.parametrize("C", EXTREME_C)
    @pytest.mark.parametrize(
        "case",
        ("duplicates", "all_empty", "mixed_empty", "gaussian", "coarse", "tie"),
    )
    def test_named_cases(self, case, C, kernel):
        if case == "tie":
            # Linear, C = 1e-3: the gap lands on the tolerance in real
            # arithmetic, and once read just below it in floating point.
            vectors = [vec(1, 0, 1), vec(), vec(1), vec(0, 0, 1), vec(1),
                       vec(-1), vec(), vec(1, 0, 1), vec(1), vec(1, 0, 1)]
            labels = [1, -1, -1, 1, -1, -1, 1, -1, 1, -1]
        elif case == "duplicates":
            vectors = [vec(1.0, 0.5), vec(1.0, 0.5), vec(-1.0, 0.0), vec(-1.0, 0.0)] * 2
            labels = [1, -1, 1, -1, 1, 1, -1, -1]
        elif case == "all_empty":
            vectors, labels = [vec()] * 5, [1, 1, -1, -1, -1]
        elif case == "mixed_empty":
            vectors, labels = gaussian_dataset(4, n=12)
            vectors[::3] = [vec()] * 4
        elif case == "gaussian":
            vectors, labels = gaussian_dataset(8, n=30)
        else:
            vectors, labels = coarse_dataset(0)
        assert_feasible_and_kkt(vectors, labels, kernel_config(kernel, C))

    def test_cap_reports_unconverged(self):
        vectors, labels = gaussian_dataset(8, n=30)
        config = TrainConfig(C=1e3, max_passes=1)
        model = train_smo(vectors, labels, config)
        assert not model.converged
        assert model.passes == config.max_passes
        full = train_smo(vectors, labels, TrainConfig(C=1e3))
        assert full.converged and full.passes > config.max_passes


def assert_matches_reference(vectors, labels, config):
    """train_smo equals the step-by-step WSS2 loop bit for bit, run on the
    same kernel rows."""
    model = train_smo(vectors, labels, config)
    table = _KernelTable(vectors, model.dim, config)
    alpha, bias, objective, passes, converged = oracles.wss2_reference(
        lambda i: table.against(table.cols[i], table.vals[i], table.sq[i]),
        table.diag, np.array(labels, dtype=float), config,
    )
    keep = alpha > ALPHA_EPSILON
    assert model.alphas == tuple(alpha[keep].tolist())
    assert model.sv_doc_ids == tuple(str(i) for i in np.flatnonzero(keep))
    assert (model.bias, model.objective, model.passes, model.converged) == (
        bias, objective, passes, converged
    )
    return model


class TestSolverMatchesReference:
    @settings(deadline=None, max_examples=30)
    @given(degenerate_problems(), st.sampled_from((1, 2, 10_000)))
    def test_degenerate_input(self, problem, max_passes):
        vectors, labels, config = problem
        assert_matches_reference(
            vectors, labels, dataclasses.replace(config, max_passes=max_passes)
        )

    @pytest.mark.parametrize("kernel", ("linear", "rbf"))
    @pytest.mark.parametrize("C", EXTREME_C)
    def test_named_cases(self, C, kernel):
        config = kernel_config(kernel, C)
        vectors, labels = sparse_dataset(3, n=20)
        vectors[::5] = [vec()] * 4  # empty vectors
        vectors[1], labels[:2] = vectors[0], [1, -1]  # a duplicate, opposite labels
        assert_matches_reference(vectors, labels, config)

    def test_capped_solve(self):
        vectors, labels = gaussian_dataset(8, n=30)
        model = assert_matches_reference(vectors, labels, TrainConfig(C=1e3, max_passes=1))
        assert not model.converged


# Values of `_COLUMN_STORE_SHARE` and `_SPARSE_ROW_SHARE` that force each
# storage form: a share of 0 admits nothing, and one of 2 everything.
DATA_FORMS = {"dense_data": 0.0, "column_store": 2.0}
ROW_FORMS = {"dense_rows": 0.0, "sparse_rows": 2.0}


def bits(values):
    """The float64 bit patterns, which tell -0.0 from +0.0."""
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def table_in(data_form, vectors, dim, config):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(svm, "_COLUMN_STORE_SHARE", DATA_FORMS[data_form])
        return _KernelTable(vectors, dim, config)


class TestSolverMatchesReferenceInEveryForm(TestSolverMatchesReference):
    """The same cases with the data held dense or column-wise, and every
    kernel row cached whole or as its entries other than +0.0."""

    @pytest.fixture(
        autouse=True, params=[(d, r) for d in DATA_FORMS for r in ROW_FORMS], ids="-".join
    )
    def forms(self, request, monkeypatch):
        data_form, row_form = request.param
        monkeypatch.setattr(svm, "_COLUMN_STORE_SHARE", DATA_FORMS[data_form])
        monkeypatch.setattr(svm, "_SPARSE_ROW_SHARE", ROW_FORMS[row_form])


@st.composite
def sparse_problems(draw):
    """Training vectors and probes over up to 8 features, most entries
    absent and empty vectors common. Weights include negatives and
    magnitudes whose products underflow to zero of either sign."""
    dim = draw(st.integers(0, 8))
    coords = st.sampled_from((0.0, 0.0, 0.0, 1.0, -1.0, -0.5, 1e-200, -1e-200)) | st.floats(
        -3.0, 3.0
    )
    vectors = st.lists(coords, min_size=dim, max_size=dim).map(lambda c: vec(*c))
    training = draw(st.lists(vectors, min_size=1, max_size=12))
    return training, draw(st.lists(vectors, max_size=4)), dim


class TestKernelTable:
    @settings(deadline=None, max_examples=150)
    @given(sparse_problems(), st.sampled_from(("linear", "rbf")))
    def test_column_store_rows_equal_dense_rows(self, problem, kernel):
        vectors, probes, dim = problem
        config = kernel_config(kernel, 1.0)
        columns = table_in("column_store", vectors, dim, config)
        dense = table_in("dense_data", vectors, dim, config)
        assert (columns.XT is None) == (dim > 0) and dense.XT is not None
        for x in vectors + probes:
            sq = float(x.weights @ x.weights)
            assert bits(columns.against(x.positions, x.weights, sq)) == bits(
                dense.against(x.positions, x.weights, sq)
            )

    @settings(deadline=None, max_examples=100)
    @given(
        sparse_problems(), st.sampled_from(("linear", "rbf")),
        st.sampled_from(sorted(DATA_FORMS)), st.sampled_from(sorted(ROW_FORMS)),
    )
    def test_cached_row_is_the_kernel_row(self, problem, kernel, data_form, row_form):
        vectors, _, dim = problem
        table = table_in(data_form, vectors, dim, kernel_config(kernel, 1.0))
        n = len(vectors)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(svm, "_SPARSE_ROW_SHARE", ROW_FORMS[row_form])
            for i in range(n):
                row = table.against(table.cols[i], table.vals[i], table.sq[i])
                positions, values, nonpositive, curvature = table.row(i)
                assert (positions is None) == (row_form == "dense_rows")
                expected = (table.diag + table.diag[i]) - 2.0 * row
                if positions is not None:
                    assert bits(curvature) == bits(expected[positions])
                    values, expanded = np.zeros(n), values
                    values[positions] = expanded
                assert bits(values) == bits(row)
                assert nonpositive.tolist() == np.flatnonzero(expected <= 0.0).tolist()

    def test_sparse_row_keeps_negative_zero(self, monkeypatch):
        row = np.array([0.0, -0.0, 1.5, 0.0, -0.0, 0.0, 0.0])
        monkeypatch.setattr(_KernelTable, "against", lambda table, cols, vals, sq: row.copy())
        positions, values, _, _ = _KernelTable([vec()] * 7, 0, TrainConfig()).row(0)
        assert positions.tolist() == [1, 2, 4]
        assert bits(values) == bits([-0.0, 1.5, -0.0])

    def test_sparse_data_caches_sparse_rows(self, monkeypatch):
        # 300 examples with 3 of 200 features each: a kernel row is nonzero
        # only at the few examples that share a feature with its own.
        rng = random.Random(5)
        n = 300
        vectors = [SparseVector(sorted(rng.sample(range(200), 3)), [1.0, -0.5, 2.0])
                   for _ in range(n)]
        labels = [1, -1] * (n // 2)
        row = _KernelTable.row
        stored = {}

        def recorded_row(table, i):
            out = row(table, i)
            assert table.XT is None
            stored[i] = sum(part.size for part in out if part is not None)
            return out

        monkeypatch.setattr(_KernelTable, "row", recorded_row)
        train_smo(vectors, labels, TrainConfig(C=10.0))
        assert len(stored) > 16
        assert max(stored.values()) < n / 2  # a dense row holds n


class TestKernelRowCache:
    @pytest.mark.parametrize("kernel", ("linear", "rbf"))
    def test_eviction_keeps_the_model(self, monkeypatch, kernel):
        vectors, labels = gaussian_dataset(8, n=200)
        vectors[::7] = [vec()] * len(vectors[::7])  # rows with +0.0 entries
        config = kernel_config(kernel, 1e3)
        full = train_smo(vectors, labels, config)
        row = _KernelTable.row
        sizes, rows = [], set()

        def recorded_row(table, i):
            out = row(table, i)
            sizes.append((len(table.cache), table.limit))
            rows.add(i)
            return out

        monkeypatch.setattr(svm, "_ROW_CACHE_FLOATS", 0)
        monkeypatch.setattr(_KernelTable, "row", recorded_row)
        for row_form in ROW_FORMS.values():
            monkeypatch.setattr(svm, "_SPARSE_ROW_SHARE", row_form)
            sizes.clear()
            rows.clear()
            assert train_smo(vectors, labels, config) == full
            assert {limit for _, limit in sizes} == {16}
            assert all(size <= limit for size, limit in sizes)
            assert len(rows) > 16  # more rows than the cache holds: some were evicted


class TestWeightVector:
    def test_untouched_feature_zero(self):
        # feature 1 appears in no training vector; its weight must be zero
        vectors = [vec(1.0, 0.0, 0.5), vec(-1.0, 0.0, -0.5)]
        model = train_smo(vectors, [1, -1], TrainConfig())
        w = weight_vector(model)
        assert len(w) == 3
        assert w[1] == 0.0

    def test_predict_equivalence(self):
        vectors, labels = gaussian_dataset(21, n=16)
        model = train_smo(vectors, labels, TrainConfig(C=1.0))
        w = weight_vector(model)
        rng = random.Random(22)
        for _ in range(100):
            x = vec(rng.uniform(-2, 2), rng.uniform(-2, 2))
            direct = decision_scores(model, [x])[0]
            via_w = model.bias + sum(
                w[p] * weight for p, weight in oracles.entries(x) if p < model.dim
            )
            assert abs(direct - via_w) <= 1e-10

    def test_rbf_rejected(self):
        vectors, labels = gaussian_dataset(2)
        model = train_smo(vectors, labels, TrainConfig(kernel="rbf", gamma=0.5))
        with pytest.raises(SvmError, match="linear"):
            weight_vector(model)


class TestSupportVectors:
    def test_two_point(self):
        vectors = [vec(1.0), vec(-1.0)]
        model = train_smo(vectors, [1, -1], TrainConfig(), doc_ids=["p", "q"])
        assert set(model.sv_doc_ids) == {"p", "q"}

    def test_alpha_above_epsilon(self):
        vectors, labels = gaussian_dataset(17)
        model = train_smo(vectors, labels, TrainConfig(C=1.0))
        assert len(model.alphas) == len(model.sv_doc_ids) == len(model.sv_labels)
        for alpha in model.alphas:
            assert alpha > ALPHA_EPSILON


class TestErrors:
    def test_empty_input(self):
        with pytest.raises(SvmError):
            train_smo([], [], TrainConfig())

    def test_single_class(self):
        with pytest.raises(SvmError, match="both classes"):
            train_smo([vec(1.0), vec(2.0)], [1, 1], TrainConfig())

    def test_bad_labels(self):
        with pytest.raises(SvmError, match="labels"):
            train_smo([vec(1.0), vec(2.0)], [1, 0], TrainConfig())

    def test_labels_length_mismatch(self):
        with pytest.raises(SvmError, match="vectors and labels length mismatch"):
            train_smo([vec(1.0), vec(2.0)], [1, -1, 1], TrainConfig())

    def test_doc_ids_length_mismatch(self):
        with pytest.raises(SvmError, match="doc_ids and vectors length mismatch"):
            train_smo([vec(1.0), vec(2.0)], [1, -1], TrainConfig(), doc_ids=["a"])

    def test_mixed_feature_sets(self):
        vectors = [vec(1.0, tag="fs-a"), vec(-1.0, tag="fs-b"), vec(0.5)]
        with pytest.raises(SvmError, match="different feature sets"):
            train_smo(vectors, [1, -1, 1], TrainConfig())

    def test_feature_tag_mismatch(self):
        vectors = [vec(1.0, tag="fs-a"), vec(-1.0, tag="fs-a")]
        model = train_smo(vectors, [1, -1], TrainConfig())
        with pytest.raises(SvmError, match="feature set"):
            decision_scores(model, [vec(1.0, tag="fs-b")])

    def test_config_validation(self):
        for c in (-1.0, math.nan, math.inf):
            with pytest.raises(SvmError, match="C must be"):
                TrainConfig(C=c)
        for kernel in ("rbf", "linear"):
            for gamma in (math.nan, math.inf, 0.0, -1.0):
                with pytest.raises(SvmError, match="gamma"):
                    TrainConfig(kernel=kernel, gamma=gamma)
        for tolerance in (0.0, -1e-3, math.nan, math.inf):
            with pytest.raises(SvmError, match="kkt_tolerance must be finite and positive"):
                TrainConfig(kkt_tolerance=tolerance)
        for max_passes in (0, -3, 2.5, True, "10"):
            with pytest.raises(SvmError, match="max_passes must be"):
                TrainConfig(max_passes=max_passes)
        with pytest.raises(SvmError):
            TrainConfig(kernel="poly")
        with pytest.raises(SvmError):
            TrainConfig(kernel="rbf")


class TestRbfTraining:
    def test_xor_separable_with_rbf(self):
        vectors = [vec(1, 1), vec(-1, -1), vec(1, -1), vec(-1, 1)]
        labels = [1, 1, -1, -1]
        model = train_smo(vectors, labels, TrainConfig(C=10.0, kernel="rbf", gamma=1.0))
        for score, y in zip(decision_scores(model, vectors), labels):
            assert (1 if score > 0 else -1) == y


def sparse_dataset(seed, n=30, dim=6):
    """Seeded two-class set whose vectors have about half their coordinates zero."""
    rng = random.Random(seed)
    vectors, labels = [], []
    for i in range(n):
        label = 1 if i % 2 == 0 else -1
        coords = [
            rng.gauss(0.5 * label, 1.0) if rng.random() < 0.5 else 0.0
            for _ in range(dim)
        ]
        vectors.append(vec(*coords))
        labels.append(label)
    return vectors, labels


def loop_score(model, x):
    """The oracle score of x, and the sum of its terms' magnitudes."""
    kernels = [oracles.kernel_eval(model.config, sv, x) for sv in model.sv_vectors]
    scale = abs(model.bias) + sum(abs(a * k) for a, k in zip(model.alphas, kernels))
    return oracles.svm_score(model, x), scale


class TestDecisionScores:
    def test_matches_predict(self):
        vectors, labels = gaussian_dataset(9)
        model = train_smo(vectors, labels, TrainConfig(C=1.0))
        scores = decision_scores(model, vectors)
        for x, score in zip(vectors, scores):
            assert abs(decision_scores(model, [x])[0] - score) <= 1e-10

    @pytest.mark.parametrize("kernel,gamma", [("linear", None), ("rbf", 0.5)])
    def test_score_does_not_depend_on_batch(self, kernel, gamma):
        # Each score is summed in a fixed order from its vector and the model
        # alone, so a vector scored alone gets its score in any batch, bit
        # for bit. The probes reach past the model's two dimensions.
        vectors, labels = gaussian_dataset(9)
        model = train_smo(vectors, labels, TrainConfig(C=1.0, kernel=kernel, gamma=gamma))
        rng = random.Random(10)
        batch = vectors + [vec(*(rng.uniform(-2, 2) for _ in range(3))) for _ in range(9)]
        rng.shuffle(batch)
        scores = decision_scores(model, batch)
        for i, x in enumerate(batch):
            assert decision_scores(model, [x])[0] == scores[i]
            assert decision_scores(model, batch[i:])[0] == scores[i]

    @pytest.mark.parametrize("kernel,gamma", [("linear", None), ("rbf", 0.5)])
    def test_model_without_support_vectors_scores_its_bias(self, kernel, gamma):
        # With a tiny C every multiplier stays below ALPHA_EPSILON.
        vectors, labels = gaussian_dataset(9)
        model = train_smo(vectors, labels, TrainConfig(C=1e-12, kernel=kernel, gamma=gamma))
        assert model.alphas == ()
        assert decision_scores(model, vectors[:3]) == [model.bias] * 3

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kernel,gamma", [
        ("rbf", 0.05), ("rbf", 0.5), ("rbf", 4.0), ("linear", None),
    ])
    def test_batch_matches_per_support_vector_loop(self, seed, kernel, gamma):
        # The batch sums in another order than the loop, so scores agree to
        # a few ulps of the largest term: 1e-12 relative to the summed
        # magnitudes. Probes reach past the model's dimension (their extra
        # coordinates still count in the RBF distance), and one is empty.
        vectors, labels = sparse_dataset(seed)
        model = train_smo(vectors, labels, TrainConfig(C=1.0, kernel=kernel, gamma=gamma))
        rng = random.Random(seed + 50)
        probes = vectors + [
            vec(*(rng.uniform(-2, 2) if rng.random() < 0.6 else 0.0 for _ in range(8)))
            for _ in range(20)
        ] + [vec()]
        scores = decision_scores(model, probes)
        for x, score in zip(probes, scores):
            expected, scale = loop_score(model, x)
            assert abs(score - expected) <= 1e-12 * scale
            assert abs(decision_scores(model, [x])[0] - expected) <= 1e-12 * scale
