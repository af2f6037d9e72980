"""Trainable readout heads: ridge linear regression, logistic regression by
full-batch gradient descent, and greedy CART trees (classification and
regression), plus a small bagged-tree ensemble used for learned error
correction. All fits are deterministic given their inputs and seeds.

A fitted tree has one form, flat node arrays numbered breadth-first
(_FlatTree): trees grow into them, route rows through them, and write and
read their nested JSON node documents from and into them. A readout's
document is part of the model document (qelm.model_to_dict). A bagged
ensemble has none: it lives only inside the corrector that trained it.

Trees of many samples (bagging, bootstrap refits) grow together, one depth
at a time, and a depth is held as pooled arrays: each node's rows are one
segment of a shared index array. So a depth costs a fixed number of numpy
calls, however many nodes it holds: one split search (_best_split), the
leaf values, a purity test, and stable partitions (_partition) of the split
nodes' rows and of the orders their open children need. Trees keep the
bits of growing each one alone. Linear refits of one sample length are
solved as one stacked normal-equation system, with the bits of one
fit_linear each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .rng import derive_seed, integers_per_seed
from .schema import Opt, Rule, at_least, one_of, read

READOUT_KINDS = ("linear", "logistic", "tree")
# the readout kind of a run config's model and of a model document
READOUT_KIND = one_of(READOUT_KINDS)
# a linear readout gives no class probabilities; the others need 0/1 labels
READOUT_TASKS = {"regression": ("linear",), "classification": ("logistic", "tree")}
TASK = one_of(tuple(READOUT_TASKS))
# the hyper-parameters each kind takes, and the type and range each one needs
_NON_NEGATIVE = Opt(at_least(0.0, float))
READOUT_HYPER = {
    "linear": {"ridge": _NON_NEGATIVE},
    "logistic": {
        "learning_rate": Opt(Rule(float, lambda value: value > 0, "must be positive")),
        "max_iter": Opt(at_least(1)),
        "grad_tol": _NON_NEGATIVE,
    },
    "tree": {"max_depth": Opt(at_least(0)), "min_samples_split": Opt(at_least(2))},
}
# a readout_hyper object of any kind, for the document reader
HYPER_KEYS = {key: slot for hyper in READOUT_HYPER.values() for key, slot in hyper.items()}
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
    """Raise a ValidationError naming ``model.readout`` unless ``kind`` fits ``task``."""
    if kind not in READOUT_TASKS[task]:
        fits = " or ".join(READOUT_TASKS[task])
        raise ValidationError(f"model.readout: {kind!r} does not fit a {task} task; use {fits}")


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


def _best_split(features: np.ndarray, targets: np.ndarray, orders: np.ndarray, sizes: np.ndarray,
                task: str, labels: bool):
    """Best (feature, threshold) of every segment of a level, in one search.

    ``orders`` holds the segments end to end, ``sizes[k]`` entries each: its
    row j holds each segment's rows ordered by feature j, ties in the
    segment's row order. Returns which segments have a column with two
    distinct values, and for those their feature and threshold.

    Score is the size-weighted child impurity: the sum of squared errors
    (SSE) for regression and the Gini impurity for classification, which on
    0/1 labels is 2/n times the SSE (Breiman et al., CART, 1984). Along a
    column the first threshold within a tolerance of the column's best score
    wins; a later column wins only if it is better by more than 1e-15.
    Zero-gain splits are allowed; they let deeper levels resolve parity
    patterns a single cut cannot.

    Every step works on all segments at once, unpadded, and each score keeps
    the bits a search of its segment alone gives: the running sums restart
    at each segment (_prefix_sums), and the rest is elementwise or a
    segmented minimum.
    """
    d, total = orders.shape
    starts = np.cumsum(sizes) - sizes
    ends = starts + sizes - 1
    # no threshold between equal values, nor from a segment's last row on
    xs = features.T.ravel().take(orders + (np.arange(d) * len(features))[:, None])
    blocked = np.empty((d, total), dtype=bool)
    np.equal(xs[:, :-1], xs[:, 1:], out=blocked[:, :-1])
    blocked[:, ends] = True
    del xs
    csum, csq = _prefix_sums(targets.take(orders), starts, sizes, labels)
    local = np.arange(total) - np.repeat(starts, sizes)
    n_l = local + 1
    # the scores (csq_l - sum_l**2 / n_l) + (csq_r - sum_r**2 / n_r), built
    # in place; at a segment's last entry n_r is a placeholder
    right = np.repeat(csum[:, ends], sizes, axis=1)
    right -= csum
    np.multiply(right, right, out=right)
    right /= np.maximum(np.repeat(sizes, sizes) - n_l, 1)
    csq_r = np.repeat(csq[:, ends], sizes, axis=1)
    csq_r -= csq
    np.subtract(csq_r, right, out=right)
    del csq_r
    scores = np.multiply(csum, csum)
    scores /= n_l
    np.subtract(csq, scores, out=scores)
    del csum, csq
    scores += right
    del right
    tol = 1e-12
    if task == "classification":
        scores *= np.repeat(2.0 / sizes, sizes)
        tol = 1e-15
    np.putmask(scores, blocked, np.inf)
    lowest = np.minimum.reduceat(scores, starts, axis=1)
    near = scores <= np.repeat(lowest + tol, sizes, axis=1)
    # the first entry within the tolerance, or the segment's first (as an
    # argmax over no hit gives) when the minimum is NaN
    first = np.minimum.reduceat(np.where(near, local, total), starts, axis=1)
    first[first == total] = 0
    pick = starts + first
    column_scores = scores[np.arange(d)[:, None], pick]
    # a running comparison, not "within 1e-15 of the minimum": column scores
    # of the same partition can differ by rounding in steps below 1e-15
    best = np.full(len(sizes), np.inf)
    feature = np.zeros(len(sizes), dtype=np.intp)
    for j, column in enumerate(column_scores):
        better = column < best - 1e-15
        best[better] = column[better]
        feature[better] = j
    found = best < np.inf
    feature = feature[found]
    at = pick[feature, np.flatnonzero(found)]
    low, high = features[orders[feature, at], feature], features[orders[feature, at + 1], feature]
    return found, feature, (low + high) / 2.0


def _prefix_sums(ys: np.ndarray, starts, sizes, labels: bool):
    """The running sums of ``ys`` and of its squares along each segment, as
    np.cumsum over the segment alone gives them.

    On 0/1 labels every partial sum is an integer below 2**53, so one cumsum
    over all segments minus each segment's base is exact, and y * y == y.
    Other targets are summed in a padded layout, segments grouped by the
    power of two their length rounds up to (padding under twice their rows),
    and gathered back.
    """
    if labels:
        base = ys[:, starts]
        csum = np.cumsum(ys, axis=1, out=ys)
        base -= csum[:, starts]
        csum += np.repeat(base, sizes, axis=1)
        return csum, csum
    total = ys.shape[1]
    csum, csq = np.empty_like(ys), np.empty_like(ys)
    bucket = np.frexp(sizes - 1)[1]
    for b in set(bucket.tolist()):
        group = np.flatnonzero(bucket == b)
        lanes = np.arange(sizes[group].max())
        inside = lanes < sizes[group][:, None]
        # padding repeats the level's last entry: sums run forward, so it
        # only reaches places past a segment's end
        at = np.minimum(starts[group][:, None] + lanes, total - 1)
        padded = ys[:, at]
        csum[:, at[inside]] = padded.cumsum(axis=2)[:, inside]
        np.multiply(padded, padded, out=padded)
        csq[:, at[inside]] = padded.cumsum(axis=2)[:, inside]
    return csum, csq


# the row entries fitted together: of the trees grown in one batch, whose
# levels hold (features + 1) index entries per row entry, or of the linear
# designs solved in one stack. Enough to batch many small fits, few enough
# to keep peak memory near that of one fit at a time.
_GROW_CELLS = 8192


def _root_level(features: np.ndarray, samples) -> np.ndarray:
    """Each sample's rows in each feature's order (ties in sample order), and
    below them its rows as given: shape (features + 1, all samples' rows),
    samples end to end.

    One stable sort of integer keys orders them all: a row's rank in a
    feature (equal values, NaN included, share a rank, and NaN ranks last,
    as numpy sorts floats) plus an offset per (feature, sample) pair. Keys of
    16 bits sort by radix."""
    (n, d), b = features.shape, len(samples)
    rows = np.concatenate([np.asarray(sample, dtype=np.intp) for sample in samples])
    order, columns = features.argsort(axis=0, kind="stable"), np.arange(d)
    ordered = features[order, columns]
    rises = np.zeros(features.shape, dtype=np.intp)
    rises[1:] = (ordered[1:] > ordered[:-1]) | (np.isnan(ordered[1:]) & ~np.isnan(ordered[:-1]))
    key_type = np.uint16 if d * b * n <= 1 << 16 else np.intp
    rank = np.empty(features.shape, dtype=key_type)
    rank[order, columns] = rises.cumsum(axis=0)
    keys = rank.T[:, rows]
    keys += np.repeat(np.arange(b) * n, [len(sample) for sample in samples]).astype(key_type)
    keys += (np.arange(d) * (b * n)).astype(key_type)[:, None]
    place = keys.ravel().argsort(kind="stable").reshape(d, -1)
    place -= (np.arange(d) * len(rows))[:, None]
    level = np.empty((d + 1, len(rows)), dtype=np.intp)
    rows.take(place, out=level[:d], mode="clip")
    level[d] = rows
    return level


def _partition(features: np.ndarray, level: np.ndarray, sizes: np.ndarray, feature, threshold):
    """Split each segment of ``level`` (a split node's rows, as given or in
    one feature's order in each row of ``level``) into its left (``feature``
    value <= ``threshold``) and right children, each keeping its entries'
    order: one stable count-based scatter, an entry's place in its child
    being the count of its side's entries before it in its segment. Returns
    the children's level and sizes, left then right per segment."""
    d, total = features.shape[1], level.shape[1]
    starts = sizes.cumsum() - sizes
    go_left = features.ravel().take(level * d + feature.repeat(sizes)) <= threshold.repeat(sizes)
    left_rank = go_left.cumsum(axis=1)
    left_rank -= go_left
    left_rank -= left_rank[:, starts].repeat(sizes, axis=1)  # left entries before each, in its segment
    n_left = left_rank[-1, starts + sizes - 1] + go_left[-1, starts + sizes - 1]
    child_sizes = np.stack([n_left, sizes - n_left], axis=1).ravel()
    child_starts = child_sizes.cumsum() - child_sizes
    # a right entry's place: the right child's start, then its own place in
    # the segment less the left entries before it
    to = (child_starts[1::2] - starts).repeat(sizes) + np.arange(total) - left_rank
    left_rank += child_starts[0::2].repeat(sizes)
    to = np.where(go_left, left_rank, to)
    del left_rank, go_left
    to += (np.arange(len(level)) * total)[:, None]
    children = np.empty_like(level)
    children.put(to, level, mode="clip")
    return children, child_sizes


def _node_values(task: str, level_targets: np.ndarray, sizes, leaf) -> np.ndarray:
    """The values of the segments flagged in ``leaf``: the class 0/1
    fractions, or the targets' np.mean."""
    starts = sizes.cumsum() - sizes
    if task == "classification":
        counts = np.zeros((len(sizes), 2))
        nonempty = sizes > 0
        for label in (0, 1):
            counts[nonempty, label] = np.add.reduceat(level_targets == label, starts[nonempty], dtype=np.intp)
        counts = counts[leaf]
        return counts / counts.sum(axis=1, keepdims=True)
    return np.array([
        level_targets[start : start + size].mean()
        for start, size in zip(starts[leaf].tolist(), sizes[leaf].tolist())
    ])


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


def forest_values(trees: list[DecisionTree], features: np.ndarray) -> np.ndarray:
    """The leaf value each fitted tree gives each row, the trees routing the
    rows together as one forest: shape (trees, rows) + a leaf value's shape."""
    forest, roots = _stack_trees([tree._flat for tree in trees])
    return forest.value[forest.leaves(np.asarray(features, dtype=float), roots)]


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
                tree = type(self)(self.task, self.max_depth, self.min_samples_split)
                tree._flat = flat
                yield tree

    def _grow_level_wise(self, features, targets, samples) -> list[_FlatTree]:
        """One tree per sample of row indices (repeats allowed), grown
        together one depth at a time.

        A level is pooled arrays: ``rows`` holds every node's rows end to end,
        one segment of ``sizes[k]`` entries per node, and ``orders`` holds the
        open nodes' rows per feature, in that feature's order; ``tree`` and
        ``node`` give each segment's tree and node number. Each level takes
        the same numpy steps however many nodes it holds: one _best_split
        call, the leaf values, a _partition of the split nodes' rows, the
        purity test of their children, and a _partition of the orders of the
        split nodes with a child left open. A tree's nodes are numbered as
        they are reached, so breadth-first."""
        d, n_trees = features.shape[1], len(samples)
        labels = bool(np.all((targets == 0) | (targets == 1)))
        level = _root_level(features, samples)
        rows, sizes = level[d], np.array([len(sample) for sample in samples])
        tree, node = np.arange(n_trees), np.zeros(n_trees, dtype=np.intp)
        count, depth = np.ones(n_trees, dtype=np.intp), np.zeros(n_trees, dtype=np.intp)
        splits, leaves = [], []  # per depth: (tree, node, feature, threshold, left), (tree, node, value)
        level_targets = targets.take(rows)
        is_open = self._open(level_targets, sizes, 0)
        orders = level[:d] if is_open.all() else level[:d].compress(is_open.repeat(sizes), axis=1)
        at_depth = 0
        while True:
            depth[tree] = at_depth
            found = np.zeros(len(sizes), dtype=bool)
            if is_open.any():
                found[is_open], feature, threshold = _best_split(
                    features, targets, orders, sizes[is_open], self.task, labels
                )
            if not found.all():
                leaf = ~found
                leaves.append((tree[leaf], node[leaf], _node_values(self.task, level_targets, sizes, leaf)))
                if not found.any():
                    break
            split_tree = tree[found]
            # the trees' nodes come in tree order, so a split's rank within its
            # tree numbers its children after those of the splits before it
            rank = np.arange(len(split_tree)) - split_tree.searchsorted(split_tree)
            left = count[split_tree] + 2 * rank
            count += 2 * np.bincount(split_tree, minlength=n_trees)
            splits.append((split_tree, node[found], feature, threshold, left))
            tree, node = split_tree.repeat(2), np.stack([left, left + 1], axis=1).ravel()
            at_depth += 1
            open_sizes, split_sizes, passing = sizes[is_open], sizes[found], found[is_open]
            split_rows = rows.compress(found.repeat(sizes))[None]
            (rows,), sizes = _partition(features, split_rows, split_sizes, feature, threshold)
            level_targets = targets.take(rows)
            is_open = self._open(level_targets, sizes, at_depth)
            # only the split nodes with a child left open pass their orders on
            pairs = is_open.reshape(-1, 2)
            parent = pairs.any(axis=1)
            if parent.any():
                passing[passing] = parent
                orders, order_sizes = _partition(
                    features, orders.compress(passing.repeat(open_sizes), axis=1),
                    split_sizes[parent], feature[parent], threshold[parent],
                )
                if not pairs[parent].all():
                    orders = orders.compress(pairs[parent].ravel().repeat(order_sizes), axis=1)
        return self._assemble(count, depth, splits, leaves)

    def _open(self, level_targets, sizes, at_depth) -> np.ndarray:
        """Which nodes of a level stay open: those shallower than max_depth
        with at least min_samples_split rows whose variance exceeds 1e-24."""
        if at_depth >= self.max_depth:
            return np.zeros(len(sizes), dtype=bool)
        starts = sizes.cumsum() - sizes
        spread, low = np.full(len(sizes), np.nan), np.full(len(sizes), np.nan)
        nonempty = sizes > 0
        # a variance is at least (max - min)^2 / 2n, so a node whose spread
        # puts that above 1e-20 is impure without np.var
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # inf and nan decide as np.var does
            if nonempty.any():
                low[nonempty] = np.minimum.reduceat(level_targets, starts[nonempty])
                spread[nonempty] = np.maximum.reduceat(level_targets, starts[nonempty]) - low[nonempty]
            wide = spread * spread / (2 * sizes) > 1e-20
        undecided = (sizes >= self.min_samples_split) & ~wide
        # n copies of 0.0 or of 1.0 sum exactly, so their np.var is exactly 0
        pure = undecided & (spread == 0) & ((low == 0) | (low == 1))
        for k in np.flatnonzero(undecided & ~pure):
            pure[k] = np.var(level_targets[starts[k] : starts[k] + sizes[k]]) <= 1e-24
        return (sizes >= self.min_samples_split) & ~pure

    def _assemble(self, count, depth, splits, leaves) -> list[_FlatTree]:
        """Each tree's flat arrays from the per-depth split and leaf records;
        a leaf links to itself, with feature 0 and threshold 0.0."""
        offsets = np.cumsum(count) - count
        total = int(count.sum())
        own = np.arange(total) - np.repeat(offsets, count)  # each node's number in its tree
        feature, threshold, left, right = np.zeros(total, dtype=np.intp), np.zeros(total), own, own.copy()
        value = np.full((total,) + ((2,) if self.task == "classification" else ()), np.nan)
        for tree, node, j, cut, child in splits:
            at = offsets[tree] + node
            feature[at], threshold[at], left[at], right[at] = j, cut, child, child + 1
        for tree, node, leaf_value in leaves:
            value[offsets[tree] + node] = leaf_value
        bounds = offsets.tolist() + [total]
        return [
            _FlatTree(feature[a:b], threshold[a:b], left[a:b], right[a:b], value[a:b], int(levels))
            for a, b, levels in zip(bounds, bounds[1:], depth.tolist())
        ]

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


def fit_linear(features: np.ndarray, targets: np.ndarray, ridge: float = 1e-8) -> LinearReadout:
    """Ridge least squares via the normal equations; the intercept column is
    not penalized."""
    features, targets = np.asarray(features, dtype=float), np.asarray(targets, dtype=float)
    if len(features) != len(targets):
        raise ValidationError("feature rows must match target count")
    return next(_fit_linears(features, targets, [np.arange(len(targets))], ridge))


def _fit_linears(features: np.ndarray, targets: np.ndarray, samples, ridge: float = 1e-8):
    """fit_linear of ``features[rows]``, ``targets[rows]`` for each sample of
    rows, all of one length, by stacked normal equations: about _GROW_CELLS
    design entries per stack, each stack solved in one call."""
    n, d = features.shape
    design = np.hstack([features, np.ones((n, 1))])
    penalty = ridge * np.eye(d + 1)
    penalty[d, d] = 0.0
    samples = np.asarray(samples)
    batch = max(1, _GROW_CELLS // max(samples.shape[1] * (d + 1), 1))
    for k in range(0, len(samples), batch):
        stacked, stacked_targets = design[samples[k : k + batch]], targets[samples[k : k + batch]]
        stacked_t = stacked.transpose(0, 2, 1)
        coeffs = np.linalg.solve(stacked_t @ stacked + penalty, stacked_t @ stacked_targets[..., None])[..., 0]
        yield from (LinearReadout(weights=c[:d], intercept=float(c[d])) for c in coeffs)


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
    return next(fit_readouts(features, targets, kind, hyper, [np.arange(len(targets))]))


def fit_readouts(
    features: np.ndarray, targets: np.ndarray, kind: str, hyper: dict | None, samples
):
    """One readout per sample of row indices, each as
    ``fit_readout(features[rows], targets[rows], kind, hyper)`` fits it,
    handed out one by one. The trees of all samples are grown together, and
    linear readouts of samples of one length are solved together."""
    read(READOUT_KIND, kind, "readout")
    features = np.asarray(features, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if features.ndim != 2:
        raise ValidationError("features must be a 2-D matrix")
    if features.shape[0] != len(targets):
        raise ValidationError("feature rows must match target count")
    row_sets = [np.asarray(rows) for rows in samples]
    if any(len(rows) < 2 for rows in row_sets):
        raise ValidationError("need at least 2 training rows")
    hyper = hyper or {}
    if kind == "tree":
        yield from DecisionTree("classification", **hyper).fit_samples(features, targets, row_sets)
        return
    if kind == "linear" and len(set(map(len, row_sets))) == 1:
        yield from _fit_linears(features, targets, row_sets, **hyper)
        return
    fit = fit_linear if kind == "linear" else fit_logistic
    for rows in row_sets:
        yield fit(features[rows], targets[rows], **hyper)


def readout_from_dict(raw: dict, at: str = "", n_features: int | None = None):
    """The readout of a document from to_dict, checked against its kind's
    READOUT_KEYS; ``at`` is the document's path in errors. A linear or
    logistic readout must hold one weight per feature and a tree's splits
    must index one of ``n_features`` columns (None: any)."""
    kind = read({"kind": READOUT_KIND, ...: None}, raw, at)["kind"]
    raw = read(READOUT_KEYS[kind], raw, at)
    if kind != "tree" and n_features is not None and len(raw["weights"]) != n_features:
        raise ValidationError(
            f"{at + '.' if at else ''}weights: expected one per feature, {n_features}, got {len(raw['weights'])}"
        )
    if kind == "linear":
        return LinearReadout(np.asarray(raw["weights"], dtype=float), raw["intercept"])
    if kind == "logistic":
        return LogisticReadout(
            np.asarray(raw["weights"], dtype=float), raw["intercept"], raw["degenerate"], raw["converged"]
        )
    return DecisionTree.from_dict(raw, at, n_features)
