import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qelm_lab.errors import ValidationError
from qelm_lab.readout import (
    BaggedTrees,
    DecisionTree,
    TreeNode,
    fit_linear,
    fit_logistic,
    fit_readout,
    readout_from_dict,
)


def test_linear_identity_data():
    x = np.linspace(0.0, 1.0, 20).reshape(-1, 1)
    model = fit_linear(x, x[:, 0])
    assert abs(model.weights[0] - 1.0) < 1e-6
    assert abs(model.intercept) < 1e-6


def test_linear_matches_lstsq_oracle():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(40, 3))
    y = x @ np.array([1.5, -2.0, 0.3]) + 0.7 + 0.01 * rng.normal(size=40)
    model = fit_linear(x, y, ridge=0.0)
    design = np.hstack([x, np.ones((40, 1))])
    oracle, *_ = np.linalg.lstsq(design, y, rcond=None)
    assert np.abs(model.weights - oracle[:3]).max() < 1e-8
    assert abs(model.intercept - oracle[3]) < 1e-8


def test_logistic_separable_set_reaches_full_accuracy():
    rng = np.random.default_rng(3)
    x0 = rng.uniform(0.0, 0.4, size=(30, 2))
    x1 = rng.uniform(0.6, 1.0, size=(30, 2))
    x = np.vstack([x0, x1])
    y = np.array([0] * 30 + [1] * 30)
    model = fit_logistic(x, y)
    assert (model.predict(x) == y).all()
    probs = model.predict_proba(x)
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9


def test_logistic_degenerate_targets_flagged():
    x = np.zeros((5, 2))
    model = fit_logistic(x, np.ones(5))
    assert model.degenerate
    assert model.predict_proba(x)[:, 1].min() > 0.99


def test_tree_learns_xor_with_depth_two():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    tree = DecisionTree("classification", max_depth=5).fit(x, y)
    assert tree.depth() >= 2
    assert (tree.predict(x) == y).all()


def test_tree_root_split_matches_exhaustive_oracle():
    rng = np.random.default_rng(11)
    x = rng.uniform(size=(60, 2))
    y = (x[:, 0] + 0.3 * x[:, 1] > 0.8).astype(int)
    tree = DecisionTree("classification", max_depth=1).fit(x, y)
    root = tree.root

    def gini(labels):
        if len(labels) == 0:
            return 0.0
        f1 = labels.mean()
        return 1.0 - f1**2 - (1 - f1) ** 2

    best = None
    for j in range(2):
        xs = np.unique(x[:, j])
        for lo, hi in zip(xs, xs[1:]):
            thr = (lo + hi) / 2
            mask = x[:, j] <= thr
            score = (mask.sum() * gini(y[mask]) + (~mask).sum() * gini(y[~mask])) / len(y)
            if best is None or score < best - 1e-15:
                best = score
    mask = x[:, root.feature] <= root.threshold
    score = (mask.sum() * gini(y[mask]) + (~mask).sum() * gini(y[~mask])) / len(y)
    assert score == pytest.approx(best)


def _oracle_gini(counts):
    total = counts.sum()
    if total == 0:
        return 0.0
    f = counts / total
    return 1.0 - float(np.sum(f * f))


def _oracle_column_split(x_col, y, task):
    """Best (threshold, score) for one column by a loop over thresholds: Gini
    for classification, SSE for regression."""
    order = np.argsort(x_col, kind="stable")
    xs = x_col[order]
    ys = y[order]
    n = len(ys)
    best = None
    if task == "classification":
        ones = np.cumsum(ys)
        total_ones = ones[-1]
        for i in range(n - 1):
            if xs[i] == xs[i + 1]:
                continue
            n_l = i + 1
            n_r = n - n_l
            left = np.array([n_l - ones[i], ones[i]], dtype=float)
            right = np.array([n_r - (total_ones - ones[i]), total_ones - ones[i]], dtype=float)
            score = (n_l * _oracle_gini(left) + n_r * _oracle_gini(right)) / n
            if best is None or score < best[1] - 1e-15:
                best = ((xs[i] + xs[i + 1]) / 2.0, score)
    else:
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)
        for i in range(n - 1):
            if xs[i] == xs[i + 1]:
                continue
            n_l = i + 1
            n_r = n - n_l
            sse_l = csq[i] - csum[i] ** 2 / n_l
            sum_r = csum[-1] - csum[i]
            sse_r = (csq[-1] - csq[i]) - sum_r**2 / n_r
            score = sse_l + sse_r
            if best is None or score < best[1] - 1e-12:
                best = ((xs[i] + xs[i + 1]) / 2.0, score)
    return best


class _OracleTree(DecisionTree):
    """The tree grown by a per-task, per-column search; the reference for
    the single vectorized split search."""

    def _grow(self, features, targets, level):
        n = len(targets)
        if self.task == "classification":
            counts = np.array([(targets == 0).sum(), (targets == 1).sum()], dtype=float)
            pure = _oracle_gini(counts) <= 0.0
        else:
            pure = float(np.var(targets)) <= 1e-24
        if level >= self.max_depth or n < self.min_samples_split or pure:
            return self._leaf(targets)
        best = None
        for j in range(features.shape[1]):
            cand = _oracle_column_split(features[:, j], targets, self.task)
            if cand is not None and (best is None or cand[1] < best[2] - 1e-15):
                best = (j, cand[0], cand[1])
        if best is None:
            return self._leaf(targets)
        j, threshold, _ = best
        mask = features[:, j] <= threshold
        return TreeNode(
            feature=j,
            threshold=threshold,
            left=self._grow(features[mask], targets[mask], level + 1),
            right=self._grow(features[~mask], targets[~mask], level + 1),
        )


@st.composite
def _tree_problems(draw):
    """Exactly representable data: x and regression targets are multiples of
    1/4 (so x values tie), labels are 0/1; optionally a duplicated column, a
    constant column and bootstrap-duplicated rows."""
    task = draw(st.sampled_from(["classification", "regression"]))
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, 3))
    cells = st.lists(st.integers(0, 6), min_size=d, max_size=d)
    x = np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=float) / 4.0
    if task == "classification":
        y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=float)
    else:
        y = np.array(draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))) / 4.0
    if draw(st.booleans()):
        x = np.hstack([x, x[:, [draw(st.integers(0, d - 1))]]])
    if draw(st.booleans()):
        x = np.insert(x, draw(st.integers(0, x.shape[1])), 0.5, axis=1)
    if draw(st.booleans()):
        idx = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        x, y = x[idx], y[idx]
    return task, x, y, draw(st.integers(1, 6)), draw(st.integers(2, 4))


@settings(max_examples=300, deadline=None)
@given(_tree_problems())
def test_split_search_grows_the_same_tree_as_the_per_column_oracle(problem):
    task, x, y, max_depth, min_samples_split = problem
    tree = DecisionTree(task, max_depth=max_depth, min_samples_split=min_samples_split)
    oracle = _OracleTree(task, max_depth=max_depth, min_samples_split=min_samples_split)
    assert tree.fit(x, y).to_dict() == oracle.fit(x, y).to_dict()


def test_regression_tree_reduces_error():
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(200, 1))
    y = np.where(x[:, 0] > 0.5, 2.0, -1.0) + 0.05 * rng.normal(size=200)
    tree = DecisionTree("regression", max_depth=3).fit(x, y)
    pred = tree.predict(x)
    assert np.mean((pred - y) ** 2) < 0.25 * np.var(y)


def test_bagged_trees_are_seed_deterministic():
    rng = np.random.default_rng(5)
    x = rng.uniform(size=(80, 2))
    y = x[:, 0] * 2 - x[:, 1]
    a = BaggedTrees(n_trees=5, max_depth=4, seed=9).fit(x, y).predict(x)
    b = BaggedTrees(n_trees=5, max_depth=4, seed=9).fit(x, y).predict(x)
    assert np.array_equal(a, b)


def test_fit_readout_dispatch_and_validation():
    x = np.array([[0.0], [1.0]])
    assert fit_readout(x, np.array([0.0, 1.0]), "linear").predict(x)[1] == pytest.approx(1.0)
    xor_x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    assert fit_readout(xor_x, np.array([0.0, 1.0, 1.0, 0.0]), "tree", {"max_depth": 1}).depth() == 1
    with pytest.raises(ValidationError):
        fit_readout(x, np.array([0.0]), "linear")
    with pytest.raises(ValidationError):
        fit_readout(x[:1], np.array([0.0]), "linear")
    with pytest.raises(ValidationError):
        fit_readout(x, np.array([0.0, 1.0]), "mystery")


def test_readout_serialization_round_trip():
    rng = np.random.default_rng(6)
    x = rng.uniform(size=(30, 2))
    for kind, y in (
        ("linear", x[:, 0] * 3 - 1),
        ("logistic", (x[:, 0] > 0.5).astype(float)),
        ("tree", (x[:, 1] > 0.5).astype(float)),
    ):
        model = fit_readout(x, y, kind)
        clone = readout_from_dict(model.to_dict())
        if kind == "linear":
            assert np.allclose(model.predict(x), clone.predict(x))
        else:
            assert np.allclose(model.predict_proba(x), clone.predict_proba(x))
