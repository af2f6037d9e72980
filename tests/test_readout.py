import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qelm_lab import readout
from qelm_lab.errors import ValidationError
from qelm_lab.readout import (
    BaggedTrees,
    DecisionTree,
    _FlatTree,
    fit_linear,
    fit_logistic,
    fit_readout,
    fit_readouts,
    readout_from_dict,
)
from qelm_lab.rng import Rng, derive_seed

from grower_oracle import OracleGrowerTree, best_split


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


@pytest.mark.parametrize("n_targets", [8, 12])
def test_linear_rejects_a_target_count_other_than_the_feature_rows(n_targets):
    with pytest.raises(ValidationError, match="feature rows must match target count"):
        fit_linear(np.zeros((10, 2)), np.zeros(n_targets))


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
    root = tree.to_dict()["root"]

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
    mask = x[:, root["feature"]] <= root["threshold"]
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


class _OracleTree(OracleGrowerTree):
    """The tree grown by a per-task, per-column search; the reference for
    the single vectorized split search. It keeps its tree as a nested node
    document."""

    def fit(self, features, targets):
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        self.root = self._grow(features, targets, 0)
        return self

    def to_dict(self):
        return {
            "kind": "tree",
            "task": self.task,
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "root": self.root,
        }

    def _grow(self, features, targets, level):
        n = len(targets)
        if self.task == "classification":
            counts = np.array([(targets == 0).sum(), (targets == 1).sum()], dtype=float)
            pure = _oracle_gini(counts) <= 0.0
        else:
            pure = float(np.var(targets)) <= 1e-24
        if level >= self.max_depth or n < self.min_samples_split or pure:
            return {"value": np.asarray(self._leaf(targets)).tolist()}
        best = None
        for j in range(features.shape[1]):
            cand = _oracle_column_split(features[:, j], targets, self.task)
            if cand is not None and (best is None or cand[1] < best[2] - 1e-15):
                best = (j, cand[0], cand[1])
        if best is None:
            return {"value": np.asarray(self._leaf(targets)).tolist()}
        j, threshold, _ = best
        mask = features[:, j] <= threshold
        return {
            "feature": j,
            "threshold": float(threshold),
            "left": self._grow(features[mask], targets[mask], level + 1),
            "right": self._grow(features[~mask], targets[~mask], level + 1),
        }


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


def _route(node, row):
    """The leaf value ``row`` reaches, one node of the tree's document at a
    time: the reference for routing every row through flat arrays."""
    while "value" not in node:
        node = node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]
    return node["value"]


def _routed(tree, x):
    root = tree.to_dict()["root"]
    values = [_route(root, row) for row in x]
    if tree.task == "classification":
        return np.vstack(values), np.argmax(np.vstack(values), axis=1)
    return None, np.array(values, dtype=float)


@settings(max_examples=200, deadline=None)
@given(_tree_problems(), st.integers(0, 2**32 - 1))
def test_array_routing_matches_the_recursive_router(problem, seed):
    task, x, y, max_depth, min_samples_split = problem
    # unseen rows too: values between and beyond the training thresholds
    rng = np.random.default_rng(seed)
    probe = np.vstack([x, rng.integers(-1, 8, size=(12, x.shape[1])) / 4.0 + 0.125])
    tree = DecisionTree(task, max_depth=max_depth, min_samples_split=min_samples_split).fit(x, y)
    for model in (tree, readout_from_dict(tree.to_dict())):
        proba, labels = _routed(model, probe)
        assert model.predict(probe).tobytes() == labels.tobytes()
        if task == "classification":
            assert model.predict_proba(probe).tobytes() == proba.tobytes()


class _VarEveryNodeTree(OracleGrowerTree):
    """Grows as DecisionTree did before the spread bound: np.var decides the
    purity of every open node."""

    def _grow_level_wise(self, features, targets, samples):
        links = [[None] for _ in samples]
        values = [[None] for _ in samples]
        frontier = [
            (t, 0, rows, rows[np.argsort(features[rows], axis=0, kind="stable")].T)
            for t, rows in enumerate(samples)
        ]
        level = 0
        while frontier:
            open_nodes = []
            for t, i, rows, order in frontier:
                node_targets = targets[rows]
                if (
                    level >= self.max_depth
                    or len(rows) < self.min_samples_split
                    or np.var(node_targets) <= 1e-24
                ):
                    values[t][i] = self._leaf(node_targets)
                else:
                    open_nodes.append((t, i, rows, order))
            frontier = []
            splits = best_split(features, targets, [order for *_, order in open_nodes], self.task)
            for (t, i, rows, order), split in zip(open_nodes, splits):
                if split is None:
                    values[t][i] = self._leaf(targets[rows])
                    continue
                j, threshold = split
                left = len(links[t])
                links[t][i] = (j, threshold, left, left + 1)
                links[t] += (None, None)
                values[t] += (None, None)
                go_left = features[rows, j] <= threshold
                ordered_left = features[order, j] <= threshold
                frontier += [
                    (t, left, rows[go_left], order[ordered_left].reshape(len(order), -1)),
                    (t, left + 1, rows[~go_left], order[~ordered_left].reshape(len(order), -1)),
                ]
            level += 1
        return [_FlatTree.build(*tree) for tree in zip(links, values)]


@st.composite
def _purity_problems(draw):
    """Targets whose nodes sit near the purity bound: near-constant values
    (spreads around 1e-12, on offsets up to 1e12), large magnitudes, or 0/1
    labels; bootstrap samples of them."""
    n = draw(st.integers(2, 40))
    x = np.array(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)), dtype=float)[:, None]
    style = draw(st.sampled_from(["near-constant", "large", "labels"]))
    ints = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=float)
    if style == "near-constant":
        offset = draw(st.sampled_from([0.0, 1e-6, 1.0, 1e6, 1e12]))
        y = offset + ints * draw(st.sampled_from([1e-14, 1e-13, 1e-12, 1e-11, 1e-10]))
    elif style == "large":
        y = ints * draw(st.sampled_from([1e3, 1e150, 1e300]))
    else:
        y = (ints > 0).astype(float)
    samples = [np.array(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))) for _ in range(3)]
    task = "classification" if style == "labels" and draw(st.booleans()) else "regression"
    return task, x, y, samples, draw(st.integers(1, 6)), draw(st.integers(2, 4))


@settings(max_examples=300, deadline=None)
@given(_purity_problems())
def test_the_spread_bound_grows_the_trees_of_a_var_on_every_node_oracle(problem):
    task, x, y, samples, max_depth, min_samples_split = problem
    tree = DecisionTree(task, max_depth=max_depth, min_samples_split=min_samples_split)
    oracle = _VarEveryNodeTree(task, max_depth=max_depth, min_samples_split=min_samples_split)
    samples.append(np.arange(len(y)))
    with np.errstate(over="ignore", invalid="ignore"):  # sums of squares of 1e300
        grown = list(zip(tree.fit_samples(x, y, samples), oracle.fit_samples(x, y, samples)))
    for got, want in grown:
        assert got.to_dict() == want.to_dict()


def _bagging_problem(seed, n=40, d=3):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 7, size=(n, d)) / 4.0
    y = rng.normal(size=n) * (x[:, 0] > 0.7) + x[:, 1]
    return x, y


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6))
def test_bagged_trees_grow_the_trees_of_the_per_column_oracle(seed, n_trees, max_depth):
    x, y = _bagging_problem(seed)
    model = BaggedTrees(n_trees=n_trees, max_depth=max_depth, seed=seed).fit(x, y)
    oracle = []
    for i in range(n_trees):
        idx = Rng(derive_seed(seed, "bag", i)).integers(len(y), 0, len(y))
        oracle.append(_OracleTree("regression", max_depth=max_depth).fit(x[idx], y[idx]).to_dict())
    assert [tree.to_dict() for tree in model.trees] == oracle


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
def test_forest_prediction_is_the_in_order_sum_of_its_trees(seed, n_trees):
    x, y = _bagging_problem(seed)
    probe = np.vstack([x, np.random.default_rng(seed).uniform(-0.5, 2.0, size=(15, 3))])
    model = BaggedTrees(n_trees=n_trees, max_depth=5, seed=seed).fit(x, y)
    acc = np.zeros(len(probe))
    for tree in model.trees:
        acc += _routed(tree, probe)[1]
    assert model.predict(probe).tobytes() == (acc / n_trees).tobytes()


def _assert_survives_json(model, load, probe):
    """``model``'s document passes through JSON text unchanged, and the model
    ``load`` reads back from it predicts the same bytes."""
    document = model.to_dict()
    clone = load(json.loads(json.dumps(document)))
    assert clone.to_dict() == document
    assert clone.predict(probe).tobytes() == model.predict(probe).tobytes()
    if hasattr(model, "predict_proba"):
        assert clone.predict_proba(probe).tobytes() == model.predict_proba(probe).tobytes()


@settings(max_examples=100, deadline=None)
@given(_tree_problems())
def test_tree_documents_survive_json(problem):
    task, x, y, max_depth, min_samples_split = problem
    tree = DecisionTree(task, max_depth=max_depth, min_samples_split=min_samples_split).fit(x, y)
    _assert_survives_json(tree, readout_from_dict, np.vstack([x, x + 0.125]))


def test_trees_grown_together_keep_their_own_depth():
    x = np.arange(8.0).reshape(-1, 1)
    y = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    samples = [np.arange(4), np.arange(8)]  # a pure sample and a parity pattern
    trees = list(fit_readouts(x, y, "tree", {"max_depth": 5}, samples))
    alone = [DecisionTree("classification", max_depth=5).fit(x[s], y[s]) for s in samples]
    assert [tree.depth() for tree in trees] == [tree.depth() for tree in alone]
    assert trees[0].depth() == 0 < trees[1].depth()


def test_trees_predict_zero_rows():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    none = np.zeros((0, 2))
    classifier = DecisionTree("classification").fit(x, np.array([0, 1, 1, 0]))
    assert classifier.predict_proba(none).shape == (0, 2)
    assert classifier.predict(none).shape == (0,)
    assert DecisionTree("regression").fit(x, x.sum(axis=1)).predict(none).shape == (0,)
    assert BaggedTrees(n_trees=3, max_depth=2).fit(x, x.sum(axis=1)).predict(none).shape == (0,)


def test_bagged_trees_need_a_tree():
    x = np.array([[0.0], [1.0]])
    with pytest.raises(ValidationError):
        BaggedTrees(n_trees=0).fit(x, np.array([0.0, 1.0]))


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


def _same_bits(got: _FlatTree, want: _FlatTree) -> bool:
    """Equal depth, and equal dtype, shape and bytes in all five arrays."""
    return got.depth == want.depth and all(
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip(got[:5], want[:5])
    )


@st.composite
def _grow_batches(draw):
    """Samples to grow together: B from 1 to 30, of one length or ragged.
    Features sit on a coarse grid, so they tie (a column may be constant).
    Targets are 0/1 labels, where pure nodes are common, or regression
    targets: near-constant on offsets up to 1e12, magnitudes up to 1e300, a
    grid, or normal draws, whose equal partitions score apart by rounding.
    min_samples_split may exceed every sample's size."""
    task = draw(st.sampled_from(["classification", "regression"]))
    n, d = draw(st.integers(1, 30)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(0, draw(st.integers(1, 5)), size=(n, d)) / 4.0
    ints = rng.integers(-3, 4, size=n).astype(float)
    styles = ["labels", "near", "large", "grid", "normal"]
    style = draw(st.sampled_from(["labels"] if task == "classification" else styles))
    if style == "labels":
        y = (ints > draw(st.integers(-3, 3))).astype(float)
    elif style == "near":
        y = draw(st.sampled_from([0.0, 1.0, 1e6, 1e12])) + ints * draw(st.sampled_from([1e-14, 1e-12, 1e-10, 1.0]))
    elif style == "large":
        y = ints * draw(st.sampled_from([1e150, 1e300]))
    elif style == "grid":
        y = ints / 4.0
    else:
        y = rng.normal(size=n)
    b = draw(st.integers(1, 30))
    lengths = [n] * b if draw(st.booleans()) else rng.integers(1, 2 * n + 1, size=b)
    samples = [rng.integers(0, n, size=length) for length in lengths]
    return task, x, y, samples, draw(st.integers(0, 8)), draw(st.integers(1, n + 2))


@settings(max_examples=300, deadline=None)
@given(_grow_batches())
def test_the_pooled_grower_grows_the_bits_of_the_per_node_grower(batch):
    task, x, y, samples, max_depth, min_samples_split = batch
    hyper = dict(task=task, max_depth=max_depth, min_samples_split=min_samples_split)
    with np.errstate(over="ignore", invalid="ignore"):  # sums of squares of 1e300
        got = DecisionTree(**hyper)._grow_level_wise(x, y, samples)
        want = OracleGrowerTree(**hyper)._grow_level_wise(x, y, samples)
    assert len(got) == len(want) == len(samples)
    for tree, oracle in zip(got, want):
        assert _same_bits(tree, oracle)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 5), st.integers(1, 30), st.booleans())
def test_the_root_level_orders_each_sample_as_a_stable_argsort(seed, n, d, b, special):
    """Samples are ordered through integer ranks; a stable argsort of each
    sample's values (NaN, infinities and -0.0 among them) is the
    reference. Samples may be of one length or ragged."""
    rng = np.random.default_rng(seed)
    if special:
        x = rng.choice([np.nan, np.inf, -np.inf, -0.0, 0.0, 0.25, 1.0], size=(n, d))
    else:
        x = rng.normal(size=(n, d)).round(int(rng.integers(0, 3)))
    if rng.random() < 0.5:
        samples = rng.integers(0, n, size=(b, n))
    else:
        samples = [rng.integers(0, n, size=rng.integers(0, 2 * n)) for _ in range(b)]
    want = np.hstack([np.vstack([rows[np.argsort(x[rows], axis=0, kind="stable")].T, rows]) for rows in samples])
    got = readout._root_level(x, samples)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_a_grow_batch_makes_one_split_search_per_level(monkeypatch):
    searches = []
    search = readout._best_split

    def counted(features, targets, orders, sizes, *rest):
        searches.append(len(sizes))
        return search(features, targets, orders, sizes, *rest)

    monkeypatch.setattr(readout, "_best_split", counted)
    monkeypatch.setattr(readout, "_GROW_CELLS", 4 * 16)  # 4 trees of 16 rows per batch
    x = np.arange(16.0).reshape(-1, 1)
    y = np.arange(16) % 2.0  # a parity pattern: some node of each depth stays impure
    trees = list(DecisionTree("classification", max_depth=3).fit_samples(x, y, [np.arange(16)] * 10))
    assert [tree.depth() for tree in trees] == [3] * 10
    # batches of 4, 4 and 2 trees, 3 levels with open nodes each; a batch's
    # first search holds every tree's root
    assert len(searches) == 3 * 3
    assert searches[0::3] == [4, 4, 2]


def _one_linear_fit(x, y, ridge):
    """fit_linear as one 2-D normal-equation solve: the reference for the
    stacked solve."""
    design = np.hstack([x, np.ones((len(x), 1))])
    penalty = ridge * np.eye(x.shape[1] + 1)
    penalty[-1, -1] = 0.0
    coeffs = np.linalg.solve(design.T @ design + penalty, design.T @ y)
    return coeffs[:-1], float(coeffs[-1])


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1), st.integers(2, 130), st.integers(1, 16), st.integers(1, 100),
    st.sampled_from([1e-8, 1e-3]),
)
def test_linear_refits_solved_as_one_stack_keep_the_bits_of_one_fit_each(seed, n, d, b, ridge):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, d)) * 10.0 ** rng.uniform(-3, 3)
    y = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3)
    samples = rng.integers(0, n, size=(b, n))
    fits = list(fit_readouts(x, y, "linear", {"ridge": ridge}, samples))
    assert len(fits) == b
    for fit, rows in zip(fits, samples):
        alone = fit_linear(x[rows], y[rows], ridge)
        weights, intercept = _one_linear_fit(x[rows], y[rows], ridge)
        assert fit.weights.tobytes() == alone.weights.tobytes() == weights.tobytes()
        assert fit.intercept == alone.intercept == intercept
    # one fit on every row, in either memory order, has the bits of one 2-D
    # solve of the rows in C order (its row set copies them)
    weights, intercept = _one_linear_fit(x, y, ridge)
    for x_in in (x, np.asfortranarray(x)):
        alone = fit_linear(x_in, y, ridge)
        assert alone.weights.tobytes() == weights.tobytes() and alone.intercept == intercept
