"""Trainable readout heads: ridge linear regression, logistic regression by
full-batch gradient descent, and greedy CART trees (classification and
regression), plus a small bagged-tree ensemble used for learned error
correction. All fits are deterministic given their inputs and seeds.

A fitted tree has one form, flat node arrays numbered breadth-first
(_FlatTree): trees grow into them, route rows through them, and write and
read their nested JSON node documents from and into them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .rng import derive_seed, integers_per_seed
from .schema import Opt, Rule, read

READOUT_KINDS = ("linear", "logistic", "tree")
# a linear readout gives no class probabilities; the others need 0/1 labels
READOUT_TASKS = {"regression": ("linear",), "classification": ("logistic", "tree")}
# the hyper-parameters each kind takes, and the type each one needs
READOUT_HYPER = {
    "linear": {"ridge": float},
    "logistic": {"learning_rate": float, "max_iter": int, "grad_tol": float},
    "tree": {"max_depth": int, "min_samples_split": int},
}
# a readout_hyper object of any kind, for the document reader
HYPER_KEYS = {key: Opt(kind) for hyper in READOUT_HYPER.values() for key, kind in hyper.items()}
# a tree's split node document (_FlatTree.to_dict); a leaf is {"value": v}
SPLIT_KEYS = {"feature": int, "threshold": float, "left": {...: None}, "right": {...: None}}
# the document of each readout kind (to_dict); _FlatTree.from_dict reads a tree's nodes
READOUT_KEYS = {
    "linear": {"kind": str, "weights": [float], "intercept": float},
    "logistic": {"kind": str, "weights": [float], "intercept": float,
                 "degenerate": Opt(bool, False), "converged": Opt(bool, False)},
    "tree": {"kind": str, "task": str, "max_depth": int, "min_samples_split": int, "root": {...: None}},
}


def check_readout_task(kind: str, task: str) -> None:
    """Raise a ValidationError unless readout ``kind`` fits ``task``."""
    if kind not in READOUT_TASKS[task]:
        fits = " or ".join(READOUT_TASKS[task])
        raise ValidationError(f"readout: {kind!r} does not fit a {task} task; use {fits}")


@dataclass
class LinearReadout:
    weights: np.ndarray
    intercept: float

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.asarray(features, dtype=float) @ self.weights + self.intercept

    def to_dict(self) -> dict:
        return {
            "kind": "linear",
            "weights": [float(w) for w in self.weights],
            "intercept": float(self.intercept),
        }


@dataclass
class LogisticReadout:
    weights: np.ndarray
    intercept: float
    degenerate: bool = False
    converged: bool = False

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Row-wise [P(class 0), P(class 1)]."""
        z = np.asarray(features, dtype=float) @ self.weights + self.intercept
        p1 = 1.0 / (1.0 + np.exp(-z))
        return np.column_stack([1.0 - p1, p1])

    def predict(self, features: np.ndarray) -> np.ndarray:
        return (self.predict_proba(features)[:, 1] >= 0.5).astype(int)

    def to_dict(self) -> dict:
        return {
            "kind": "logistic",
            "weights": [float(w) for w in self.weights],
            "intercept": float(self.intercept),
            "degenerate": self.degenerate,
            "converged": self.converged,
        }


def _best_split(features: np.ndarray, targets: np.ndarray, segments: list, task: str) -> list:
    """Best (feature, threshold) of each segment of rows, or None where no
    column has two distinct values.

    A segment is a (d, n) array of row indices into ``features`` and
    ``targets``: its row j holds the segment's rows ordered by feature j,
    ties in the segment's row order.

    Score is the size-weighted child impurity: the sum of squared errors
    (SSE) for regression and the Gini impurity for classification, which on
    0/1 labels is 2/n times the SSE (Breiman et al., CART, 1984). Along a
    column the first threshold within a tolerance of the column's best score
    wins; a later column wins only if it is better by more than 1e-15.
    Zero-gain splits are allowed; they let deeper levels resolve parity
    patterns a single cut cannot.

    Segments are searched together, each padded after its last row:
    cumulative sums over a segment's own rows, and so its scores, keep the
    bits a search of the segment alone gives. A search pads at most to about
    twice its segments' rows, and holds at most about _SEARCH_CELLS entries
    per array unless one segment alone needs more.
    """
    found = [None] * len(segments)
    group, rows = [], 0
    for s in sorted(range(len(segments)), key=lambda s: -segments[s].shape[1]):
        padded_rows = (len(group) + 1) * segments[group[0]].shape[1] if group else 0
        if group and (
            padded_rows > 2 * rows + _PAD_SLACK or padded_rows * features.shape[1] > _SEARCH_CELLS
        ):
            _search(features, targets, segments, group, task, found)
            group, rows = [], 0
        group.append(s)
        rows += segments[s].shape[1]
    if group:
        _search(features, targets, segments, group, task, found)
    return found


# a search's padding rows beyond twice its segments' own rows, and its
# entries per array; the row entries of the trees grown together, whose
# orders take 8 bytes each. Enough to batch the searches of many small
# trees, few enough to keep peak memory near that of one tree at a time.
_PAD_SLACK = 256
_SEARCH_CELLS = 2048
_GROW_CELLS = 8192


def _search(features, targets, segments, group, task, found) -> None:
    """Fill in ``found`` for the segments in ``group``, longest first."""
    lengths = np.array([segments[s].shape[1] for s in group])
    m, d, width = len(group), features.shape[1], int(lengths[0])
    padded = np.zeros((m, d, width), dtype=np.intp)  # padding reads row 0
    in_segment = np.arange(width) < lengths[:, None]
    padded[np.broadcast_to(in_segment[:, None], padded.shape)] = np.concatenate(
        [segments[s].ravel() for s in group]
    )
    xs = features[padded, np.arange(d)[:, None]]
    ys = targets[padded]
    del padded
    csum = np.cumsum(ys, axis=2)
    csq = np.cumsum(np.multiply(ys, ys, out=ys), axis=2)
    del ys
    n = lengths[:, None, None]
    n_l = np.arange(1, width)
    last = (np.arange(m), slice(None), lengths - 1)
    # the scores (csq_l - sum_l**2 / n_l) + (csq_r - sum_r**2 / n_r),
    # computed in place; past a segment's last row n_r is a placeholder
    sum_r = np.subtract(csum[last][..., None], csum[..., :-1])
    scores = np.multiply(csum[..., :-1], csum[..., :-1], out=csum[..., :-1])
    scores /= n_l
    np.subtract(csq[..., :-1], scores, out=scores)
    right = np.multiply(sum_r, sum_r, out=sum_r)
    right /= np.maximum(n - n_l, 1)
    np.subtract(csq[last][..., None] - csq[..., :-1], right, out=right)
    scores += right
    del csq, right
    tol = 1e-12
    if task == "classification":
        scores *= 2.0 / n
        tol = 1e-15
    # no threshold between equal values, nor from a segment's last row on
    scores[(xs[..., :-1] == xs[..., 1:]) | ~in_segment[:, None, 1:]] = np.inf
    first = np.argmax(scores <= scores.min(axis=2, keepdims=True) + tol, axis=2)
    column_scores = np.take_along_axis(scores, first[..., None], axis=2)[..., 0]
    for k, row in enumerate(column_scores.tolist()):
        best = None
        # a running comparison, not "within 1e-15 of the minimum": column
        # scores of the same partition can differ by rounding in steps below
        # 1e-15
        for j, score in enumerate(row):
            if score < math.inf and (best is None or score < best[1] - 1e-15):
                best = (j, score)
        if best is not None:
            j, i = best[0], first[k, best[0]]
            found[group[k]] = (j, (xs[k, j, i] + xs[k, j, i + 1]) / 2.0)


class _FlatTree(NamedTuple):
    """Trees laid out as arrays, one entry per node, numbered breadth-first.
    An internal node sends a row to ``left`` when its ``feature`` value is
    <= ``threshold``; a leaf sends every row to itself, so ``depth`` steps
    take any row to its leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray  # a leaf's value; NaN on internal nodes
    depth: int

    @staticmethod
    def build(links: list, values: list) -> "_FlatTree":
        """A tree from its nodes, numbered breadth-first: an internal node's
        (feature, threshold, left, right) link and None value, or a leaf's
        None link and its value."""
        links = [link or (0, 0.0, i, i) for i, link in enumerate(links)]
        levels = [0] * len(links)
        for i, (_, _, left_child, right_child) in enumerate(links):
            if left_child != i:
                levels[left_child] = levels[right_child] = levels[i] + 1
        feature, threshold, left, right = (np.array(column) for column in zip(*links))
        leaves = [i for i, v in enumerate(values) if v is not None]
        value = np.full((len(values),) + np.shape(values[leaves[0]]), np.nan)
        value[leaves] = [values[i] for i in leaves]
        return _FlatTree(feature, threshold.astype(float), left, right, value, max(levels))

    @staticmethod
    def from_dict(root: dict, task: str, at: str = "root", n_features: int | None = None) -> "_FlatTree":
        """The tree of a nested node document, read breadth-first. Each node
        is checked as a leaf of ``task`` (a number, or a class probability
        pair) or against SPLIT_KEYS, and a split's feature must index one of
        ``n_features`` columns (None: any), so a bad node raises a
        ValidationError naming its path from ``at``."""
        limit = math.inf if n_features is None else n_features
        problem = f"must index one of the {n_features} features" if n_features else "must not be negative"
        split = dict(SPLIT_KEYS, feature=Rule(int, lambda f: 0 <= f < limit, problem))
        leaf = {"value": float if task == "regression" else (float, float)}
        nodes, links, values = [(root, at)], [], []
        for node, where in nodes:  # appends children while it walks
            if isinstance(node, dict) and "value" in node:
                links.append(None)
                values.append(read(leaf, node, where)["value"])
            else:
                node = read(split, node, where)
                child = len(nodes)
                links.append((node["feature"], node["threshold"], child, child + 1))
                values.append(None)
                nodes += ((node["left"], f"{where}.left"), (node["right"], f"{where}.right"))
        return _FlatTree.build(links, values)

    def to_dict(self, node: int = 0) -> dict:
        """The nested node document of the subtree under ``node``."""
        if self.left[node] == node:
            return {"value": self.value[node].tolist()}
        return {
            "feature": int(self.feature[node]),
            "threshold": float(self.threshold[node]),
            "left": self.to_dict(int(self.left[node])),
            "right": self.to_dict(int(self.right[node])),
        }

    def leaves(self, features: np.ndarray, roots: np.ndarray) -> np.ndarray:
        """The leaf each row reaches from each root: shape (roots, rows)."""
        rows = np.arange(len(features))
        node = np.repeat(roots[:, None], len(features), axis=1)
        for _ in range(self.depth):
            go_left = features[rows, self.feature[node]] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        return node


def _stack_trees(trees: list[_FlatTree]) -> tuple[_FlatTree, np.ndarray]:
    """One flat tree holding ``trees`` side by side, and each one's root."""
    if not trees:
        raise ValidationError("bagged trees need at least one tree")
    sizes = [len(tree.feature) for tree in trees]
    roots = np.cumsum([0] + sizes[:-1])
    shift = np.repeat(roots, sizes)
    feature, threshold, left, right, value = map(np.concatenate, zip(*(t[:5] for t in trees)))
    depth = max(tree.depth for tree in trees)
    return _FlatTree(feature, threshold, left + shift, right + shift, value, depth), roots


@dataclass
class DecisionTree:
    task: str  # "classification" | "regression"
    max_depth: int = 5
    min_samples_split: int = 2
    _flat: _FlatTree | None = field(default=None, init=False, repr=False, compare=False)

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "DecisionTree":
        (tree,) = self.fit_samples(features, targets, [np.arange(len(targets))])
        self._flat = tree._flat
        return self

    def fit_samples(self, features: np.ndarray, targets: np.ndarray, samples):
        """One tree like this one per sample of row indices (repeats
        allowed), each as ``fit(features[rows], targets[rows])`` grows it.
        They are grown together, in batches of about _GROW_CELLS row
        entries, and handed out one by one."""
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        widest = max(map(len, samples), default=1) * features.shape[1]
        batch = max(1, _GROW_CELLS // max(widest, 1))
        for start in range(0, len(samples), batch):
            for flat in self._grow_level_wise(features, targets, samples[start : start + batch]):
                tree = replace(self)
                tree._flat = flat
                yield tree

    def _leaf(self, targets: np.ndarray):
        if self.task == "classification":
            counts = np.array([(targets == 0).sum(), (targets == 1).sum()], dtype=float)
            return counts / counts.sum()
        return float(targets.mean())

    def _grow_level_wise(self, features, targets, samples) -> list[_FlatTree]:
        """One tree per sample of row indices (repeats allowed); the nodes of
        one depth are searched by one _best_split call. A tree's nodes are
        numbered as they are reached, so breadth-first."""
        # per tree, per node: an internal node's link, a leaf's value
        links = [[None] for _ in samples]
        values = [[None] for _ in samples]
        # each node's tree, number and rows, and per feature its rows in that
        # feature's order
        frontier = [
            (t, 0, rows, rows[np.argsort(features[rows], axis=0, kind="stable")].T)
            for t, rows in enumerate(samples)
        ]
        level = 0
        while frontier:
            # a variance is at least (max - min)^2 / 2n, so a node whose
            # spread puts that above 1e-20 is impure without np.var
            sizes = np.array([len(rows) for _, _, rows, _ in frontier])
            wide = np.zeros(len(frontier), dtype=bool)
            if level < self.max_depth and sizes.any():
                pooled = targets[np.concatenate([rows for _, _, rows, _ in frontier])]
                starts = (np.cumsum(sizes) - sizes)[sizes > 0]
                with np.errstate(over="ignore", invalid="ignore"):  # inf and nan decide as np.var does
                    spread = np.maximum.reduceat(pooled, starts) - np.minimum.reduceat(pooled, starts)
                    wide[sizes > 0] = spread * spread / (2 * sizes[sizes > 0]) > 1e-20
            open_nodes = []
            for (t, i, rows, order), impure in zip(frontier, wide):
                node_targets = targets[rows]
                if (
                    level >= self.max_depth
                    or len(rows) < self.min_samples_split
                    or not impure and np.var(node_targets) <= 1e-24
                ):
                    values[t][i] = self._leaf(node_targets)
                else:
                    open_nodes.append((t, i, rows, order))
            frontier = []
            splits = _best_split(features, targets, [order for *_, order in open_nodes], self.task)
            for k, split in enumerate(splits):
                (t, i, rows, order), open_nodes[k] = open_nodes[k], None  # free as we go
                if split is None:
                    values[t][i] = self._leaf(targets[rows])
                    continue
                j, threshold = split
                left = len(links[t])
                links[t][i] = (j, threshold, left, left + 1)
                links[t] += (None, None)
                values[t] += (None, None)
                go_left = features[rows, j] <= threshold
                ordered_left = features[order, j] <= threshold  # kept in order
                frontier += [
                    (t, left, rows[go_left], order[ordered_left].reshape(len(order), -1)),
                    (t, left + 1, rows[~go_left], order[~ordered_left].reshape(len(order), -1)),
                ]
            level += 1
        return [_FlatTree.build(*tree) for tree in zip(links, values)]

    def _leaf_values(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=float)
        return self._flat.value[self._flat.leaves(features, np.zeros(1, dtype=int))[0]]

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return self._leaf_values(features)

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self.task == "classification":
            return np.argmax(self._leaf_values(features), axis=1)
        return self._leaf_values(features)

    def depth(self) -> int:
        return 0 if self._flat is None else self._flat.depth

    def to_dict(self) -> dict:
        return {
            "kind": "tree",
            "task": self.task,
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "root": self._flat.to_dict(),
        }

    @staticmethod
    def from_dict(raw: dict, at: str = "", n_features: int | None = None) -> "DecisionTree":
        tree = DecisionTree(
            task=raw["task"],
            max_depth=int(raw["max_depth"]),
            min_samples_split=int(raw["min_samples_split"]),
        )
        tree._flat = _FlatTree.from_dict(raw["root"], tree.task, f"{at}.root" if at else "root", n_features)
        return tree


@dataclass
class BaggedTrees:
    """Bootstrap-aggregated regression trees with seed-derived resamples."""

    n_trees: int = 20
    max_depth: int = 6
    seed: int = 0
    trees: list[DecisionTree] = field(default_factory=list)
    _forest: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "BaggedTrees":
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        n = len(targets)
        samples = integers_per_seed([derive_seed(self.seed, "bag", i) for i in range(self.n_trees)], n, 0, n)
        tree = DecisionTree("regression", max_depth=self.max_depth)
        self.trees = list(tree.fit_samples(features, targets, samples))
        self._forest = _stack_trees([tree._flat for tree in self.trees])
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        forest, roots = self._forest
        leaves = forest.leaves(np.asarray(features, dtype=float), roots)
        acc = np.zeros(leaves.shape[1])
        for tree_values in forest.value[leaves]:  # in tree order, as one tree at a time
            acc += tree_values
        return acc / len(self.trees)

    def to_dict(self) -> dict:
        return {
            "kind": "bagged_trees",
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "seed": self.seed,
            "trees": [t.to_dict() for t in self.trees],
        }

    @staticmethod
    def from_dict(raw: dict) -> "BaggedTrees":
        model = BaggedTrees(
            n_trees=int(raw["n_trees"]), max_depth=int(raw["max_depth"]), seed=int(raw["seed"])
        )
        model.trees = [DecisionTree.from_dict(t, f"trees[{i}]") for i, t in enumerate(raw["trees"])]
        model._forest = _stack_trees([tree._flat for tree in model.trees])
        return model


def fit_linear(features: np.ndarray, targets: np.ndarray, ridge: float = 1e-8) -> LinearReadout:
    """Ridge least squares via the normal equations; the intercept column is
    not penalized."""
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    n, d = features.shape
    design = np.hstack([features, np.ones((n, 1))])
    gram = design.T @ design
    penalty = ridge * np.eye(d + 1)
    penalty[d, d] = 0.0
    coeffs = np.linalg.solve(gram + penalty, design.T @ targets)
    return LinearReadout(weights=coeffs[:d], intercept=float(coeffs[d]))


def fit_logistic(
    features: np.ndarray,
    targets: np.ndarray,
    learning_rate: float = 0.1,
    max_iter: int = 500,
    grad_tol: float = 1e-6,
) -> LogisticReadout:
    """Full-batch gradient descent on the mean log loss.

    If every target is the same class, returns a flagged constant-probability
    model instead of failing.
    """
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    n, d = features.shape
    if np.all(targets == targets[0]):
        rate = min(max(float(targets.mean()), 1e-9), 1.0 - 1e-9)
        return LogisticReadout(
            weights=np.zeros(d),
            intercept=math.log(rate / (1.0 - rate)),
            degenerate=True,
            converged=True,
        )
    weights = np.zeros(d)
    intercept = 0.0
    converged = False
    for _ in range(max_iter):
        z = features @ weights + intercept
        p = 1.0 / (1.0 + np.exp(-z))
        err = p - targets
        grad_w = features.T @ err / n
        grad_b = float(err.mean())
        if math.sqrt(float(grad_w @ grad_w) + grad_b * grad_b) < grad_tol:
            converged = True
            break
        weights -= learning_rate * grad_w
        intercept -= learning_rate * grad_b
    return LogisticReadout(weights=weights, intercept=intercept, converged=converged)


def fit_readout(features: np.ndarray, targets: np.ndarray, kind: str, hyper: dict | None = None):
    """Dispatch to one readout family: "linear", "logistic", or "tree"."""
    return next(fit_readouts(features, targets, kind, hyper, [None]))


def fit_readouts(
    features: np.ndarray, targets: np.ndarray, kind: str, hyper: dict | None, samples
):
    """One readout per sample of row indices (None: every row, as given),
    each as ``fit_readout(features[rows], targets[rows], kind, hyper)`` fits
    it, handed out one by one; the trees of all samples are grown together."""
    if kind not in READOUT_KINDS:
        raise ValidationError(f"unknown readout kind {kind!r}")
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if features.ndim != 2:
        raise ValidationError("features must be a 2-D matrix")
    if features.shape[0] != len(targets):
        raise ValidationError("feature rows must match target count")
    row_sets = [np.arange(len(targets)) if rows is None else np.asarray(rows) for rows in samples]
    if any(len(rows) < 2 for rows in row_sets):
        raise ValidationError("need at least 2 training rows")
    hyper = hyper or {}
    if kind == "tree":
        yield from DecisionTree("classification", **hyper).fit_samples(features, targets, row_sets)
        return
    fit = fit_linear if kind == "linear" else fit_logistic
    for rows in samples:
        if rows is None:
            yield fit(features, targets, **hyper)
        else:
            yield fit(features[rows], targets[rows], **hyper)


def readout_from_dict(raw: dict, at: str = "", n_features: int | None = None):
    """The readout of a document from to_dict, checked against its kind's
    READOUT_KEYS; ``at`` is the document's path in errors. A tree's splits
    must index one of ``n_features`` columns (None: any)."""
    kind = raw.get("kind") if isinstance(raw, dict) else None
    if kind not in READOUT_KINDS:
        raise ValidationError(f"{at + '.' if at else ''}kind: unknown readout kind {kind!r}")
    raw = read(READOUT_KEYS[kind], raw, at)
    if kind == "linear":
        return LinearReadout(np.asarray(raw["weights"], dtype=float), raw["intercept"])
    if kind == "logistic":
        return LogisticReadout(
            np.asarray(raw["weights"], dtype=float), raw["intercept"], raw["degenerate"], raw["converged"]
        )
    return DecisionTree.from_dict(raw, at, n_features)
