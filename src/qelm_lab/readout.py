"""Trainable readout heads: ridge linear regression, logistic regression by
full-batch gradient descent, and greedy CART trees (classification and
regression), plus a small bagged-tree ensemble used for learned error
correction. All fits are deterministic given their inputs and seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .rng import Rng, derive_seed

READOUT_KINDS = ("linear", "logistic", "tree")
# a linear readout gives no class probabilities; the others need 0/1 labels
READOUT_TASKS = {"regression": ("linear",), "classification": ("logistic", "tree")}
# the hyper-parameters each kind takes, and the type each one needs
READOUT_HYPER = {
    "linear": {"ridge": float},
    "logistic": {"learning_rate": float, "max_iter": int, "grad_tol": float},
    "tree": {"max_depth": int, "min_samples_split": int},
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


@dataclass
class TreeNode:
    # leaf nodes keep value and no children; internal nodes route on
    # x[feature] <= threshold
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: np.ndarray | float | None = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def to_dict(self) -> dict:
        if self.is_leaf:
            value = self.value
            if isinstance(value, np.ndarray):
                value = [float(v) for v in value]
            else:
                value = float(value)
            return {"value": value}
        return {
            "feature": self.feature,
            "threshold": float(self.threshold),
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
        }

    @staticmethod
    def from_dict(raw: dict) -> "TreeNode":
        if "value" in raw:
            value = raw["value"]
            if isinstance(value, list):
                value = np.asarray(value, dtype=float)
            return TreeNode(value=value)
        return TreeNode(
            feature=int(raw["feature"]),
            threshold=float(raw["threshold"]),
            left=TreeNode.from_dict(raw["left"]),
            right=TreeNode.from_dict(raw["right"]),
        )


def _best_split(features: np.ndarray, targets: np.ndarray, task: str):
    """Best (feature, threshold, score) over every column, or None when no
    column has two distinct values.

    Score is the size-weighted child impurity: the sum of squared errors
    (SSE) for regression and the Gini impurity for classification, which on
    0/1 labels is 2/n times the SSE (Breiman et al., CART, 1984). Along a
    column the first threshold within a tolerance of the column's best score
    wins; a later column wins only if it is better by more than 1e-15.
    Zero-gain splits are allowed; they let deeper levels resolve parity
    patterns a single cut cannot.
    """
    n = len(targets)
    order = np.argsort(features, axis=0, kind="stable")
    xs = np.take_along_axis(features, order, axis=0)
    ys = targets[order]
    csum = np.cumsum(ys, axis=0)
    csq = np.cumsum(ys * ys, axis=0)
    n_l = np.arange(1, n)[:, None]
    sum_l = csum[:-1]
    sum_r = csum[-1] - sum_l
    scores = (csq[:-1] - sum_l**2 / n_l) + ((csq[-1] - csq[:-1]) - sum_r**2 / (n - n_l))
    tol = 1e-12
    if task == "classification":
        scores *= 2.0 / n
        tol = 1e-15
    scores[xs[:-1] == xs[1:]] = np.inf  # no threshold between equal values
    first = np.argmax(scores <= scores.min(axis=0) + tol, axis=0)
    best = None
    # a running comparison, not "within 1e-15 of the minimum": column scores
    # of the same partition can differ by rounding in steps below 1e-15
    for j, score in enumerate(scores[first, np.arange(features.shape[1])].tolist()):
        if score < math.inf and (best is None or score < best[2] - 1e-15):
            i = first[j]
            best = (j, (xs[i, j] + xs[i + 1, j]) / 2.0, score)
    return best


@dataclass
class DecisionTree:
    task: str  # "classification" | "regression"
    max_depth: int = 5
    min_samples_split: int = 2
    root: TreeNode | None = None

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "DecisionTree":
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        self.root = self._grow(features, targets, 0)
        return self

    def _leaf(self, targets: np.ndarray) -> TreeNode:
        if self.task == "classification":
            counts = np.array([(targets == 0).sum(), (targets == 1).sum()], dtype=float)
            return TreeNode(value=counts / counts.sum())
        return TreeNode(value=float(targets.mean()))

    def _grow(self, features, targets, level) -> TreeNode:
        n = len(targets)
        if level >= self.max_depth or n < self.min_samples_split or np.var(targets) <= 1e-24:
            return self._leaf(targets)
        best = _best_split(features, targets, self.task)
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

    def _route(self, x: np.ndarray) -> TreeNode:
        node = self.root
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=float)
        return np.vstack([self._route(row).value for row in features])

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=float)
        if self.task == "classification":
            return np.argmax(self.predict_proba(features), axis=1)
        return np.array([self._route(row).value for row in features], dtype=float)

    def depth(self) -> int:
        def walk(node):
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root)

    def to_dict(self) -> dict:
        return {
            "kind": "tree",
            "task": self.task,
            "max_depth": self.max_depth,
            "min_samples_split": self.min_samples_split,
            "root": self.root.to_dict(),
        }

    @staticmethod
    def from_dict(raw: dict) -> "DecisionTree":
        tree = DecisionTree(
            task=raw["task"],
            max_depth=int(raw["max_depth"]),
            min_samples_split=int(raw["min_samples_split"]),
        )
        tree.root = TreeNode.from_dict(raw["root"])
        return tree


@dataclass
class BaggedTrees:
    """Bootstrap-aggregated regression trees with seed-derived resamples."""

    n_trees: int = 20
    max_depth: int = 6
    seed: int = 0
    trees: list[DecisionTree] = field(default_factory=list)

    def fit(self, features: np.ndarray, targets: np.ndarray) -> "BaggedTrees":
        features = np.asarray(features, dtype=float)
        targets = np.asarray(targets, dtype=float)
        n = len(targets)
        self.trees = []
        for i in range(self.n_trees):
            rng = Rng(derive_seed(self.seed, "bag", i))
            idx = rng.integers(n, 0, n)
            tree = DecisionTree("regression", max_depth=self.max_depth).fit(
                features[idx], targets[idx]
            )
            self.trees.append(tree)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        acc = np.zeros(len(features))
        for tree in self.trees:
            acc += tree.predict(features)
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
        model.trees = [DecisionTree.from_dict(t) for t in raw["trees"]]
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
    if kind not in READOUT_KINDS:
        raise ValidationError(f"unknown readout kind {kind!r}")
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if features.ndim != 2:
        raise ValidationError("features must be a 2-D matrix")
    if features.shape[0] != len(targets):
        raise ValidationError("feature rows must match target count")
    if len(targets) < 2:
        raise ValidationError("need at least 2 training rows")
    hyper = hyper or {}
    if kind == "linear":
        return fit_linear(features, targets, **hyper)
    if kind == "logistic":
        return fit_logistic(features, targets, **hyper)
    return DecisionTree("classification", **hyper).fit(features, targets)


def readout_from_dict(raw: dict):
    kind = raw.get("kind")
    if kind not in READOUT_KINDS:
        raise ValidationError(f"unknown readout kind {kind!r}")
    if kind == "linear":
        return LinearReadout(np.asarray(raw["weights"], dtype=float), float(raw["intercept"]))
    if kind == "logistic":
        return LogisticReadout(
            np.asarray(raw["weights"], dtype=float),
            float(raw["intercept"]),
            degenerate=bool(raw.get("degenerate", False)),
            converged=bool(raw.get("converged", False)),
        )
    return DecisionTree.from_dict(raw)
