"""The level-wise CART grower as it was before levels became pooled arrays:
a list of per-node (tree, node, rows, orders) tuples, one padded split search
per level, a purity test and a leaf value per node. It is the reference the
pooled grower in qelm_lab.readout must match bit for bit."""

import math

import numpy as np

from qelm_lab.readout import DecisionTree, _FlatTree

# a search's padding rows beyond twice its segments' own rows, and its
# entries per array
_PAD_SLACK = 256
_SEARCH_CELLS = 2048


def best_split(features: np.ndarray, targets: np.ndarray, segments: list, task: str) -> list:
    """Best (feature, threshold) of each segment of rows, or None where no
    column has two distinct values.

    A segment is a (d, n) array of row indices into ``features`` and
    ``targets``: its row j holds the segment's rows ordered by feature j,
    ties in the segment's row order. Segments are searched together, each
    padded after its last row.
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
    scores[(xs[..., :-1] == xs[..., 1:]) | ~in_segment[:, None, 1:]] = np.inf
    first = np.argmax(scores <= scores.min(axis=2, keepdims=True) + tol, axis=2)
    column_scores = np.take_along_axis(scores, first[..., None], axis=2)[..., 0]
    for k, row in enumerate(column_scores.tolist()):
        best = None
        for j, score in enumerate(row):
            if score < math.inf and (best is None or score < best[1] - 1e-15):
                best = (j, score)
        if best is not None:
            j, i = best[0], first[k, best[0]]
            found[group[k]] = (j, (xs[k, j, i] + xs[k, j, i + 1]) / 2.0)


class OracleGrowerTree(DecisionTree):
    """A DecisionTree grown by the per-node grower above."""

    def _leaf(self, targets: np.ndarray):
        if self.task == "classification":
            counts = np.array([(targets == 0).sum(), (targets == 1).sum()], dtype=float)
            return counts / counts.sum()
        return float(targets.mean())

    def _grow_level_wise(self, features, targets, samples) -> list:
        links = [[None] for _ in samples]
        values = [[None] for _ in samples]
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
                with np.errstate(over="ignore", invalid="ignore"):
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
