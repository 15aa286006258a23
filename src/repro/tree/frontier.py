"""Presorted columnar training frontier.

Algorithm 1/2 induction spends its time in the node-level split search,
and the naive transcription re-sorts every feature column at every node
(``O(d * n log n)`` per node).  The classic CART/sklearn remedy is to
argsort each column **once per fit** and then maintain, for every node
on the growth frontier, the per-feature *sorted index partitions*: a
stable boolean partition of the parent's order arrays yields each
child's arrays already sorted, so node-level split search (and surrogate
search) becomes an ``O(d * n)`` scan.

Two invariants make the presorted path bit-identical to the per-node
re-sorting transcription (kept as the test oracle
``tests/oracles/resort.py``):

* **Tie order.**  The root order is a *stable* argsort over rows in
  ascending-index order, and boolean-mask partitioning preserves
  relative order — so at every node, equal feature values appear in
  ascending row-index order, exactly what ``np.argsort(kind="stable")``
  produces on that node's rows (node index sets are always ascending).
* **Missing handling.**  Only rows with a *finite* value (NaN and ±inf
  both count as missing, as everywhere in this codebase) are kept in a
  column's order array, so a node's array for feature ``f`` is exactly
  its finite-``f`` rows in sorted order, mirroring the reference's
  filter-then-sort.

A fully-finite matrix gets the *dense* layout: per-node ``(d, n)``
order/value matrices instead of per-feature lists.  Every feature then
holds exactly the node's rows, so one boolean gather partitions all
features at once and the split search can run 2-D prefix sums — the
per-lane arrays (and therefore every scored float) are unchanged.

Because the sequences fed to the prefix-sum scoring are element-for-
element identical, every gain, threshold and tie-break — and therefore
every fitted tree — matches the re-sorting oracle exactly (enforced by
``tests/test_tree_frontier.py``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class TrainingFrontier:
    """Fit-wide presorted column index for one training matrix.

    Builds the per-column stable sort orders once (``O(d * n log n)``)
    and owns the scratch membership mask the per-node partitions mark
    rows in.  ``root`` is the :class:`FrontierNode` covering all rows.
    """

    def __init__(self, X: np.ndarray):
        matrix = np.asarray(X)
        n_rows, n_features = matrix.shape
        self.X = matrix
        self._scratch = np.zeros(n_rows, dtype=bool)
        if np.isfinite(matrix).all():
            # Column-wise stable argsort == the per-column sort, and with
            # no missing values every column keeps every row — store the
            # (d, n) matrices row-contiguous for the dense node layout.
            orders = np.argsort(matrix, axis=0, kind="stable")
            values = np.take_along_axis(matrix, orders, axis=0)
            self.root = FrontierNode(
                self,
                np.ascontiguousarray(orders.T),
                np.ascontiguousarray(values.T),
                dense=True,
            )
            return
        orders_list: list[np.ndarray] = []
        values_list: list[np.ndarray] = []
        for feature in range(n_features):
            column = matrix[:, feature]
            finite_rows = np.nonzero(np.isfinite(column))[0]
            order = finite_rows[np.argsort(column[finite_rows], kind="stable")]
            orders_list.append(order)
            values_list.append(column[order])
        self.root = FrontierNode(self, orders_list, values_list, dense=False)


class FrontierNode:
    """One node's per-feature sorted index partition.

    ``orders[f]`` holds the node's finite-``f`` row ids sorted by the
    feature value (ties in ascending row-id order); ``values[f]`` holds
    the matching sorted values, so split scoring needs no gather of the
    feature matrix at all.  In the dense layout (fully-finite fits)
    ``orders``/``values`` are ``(d, n)`` matrices whose rows play the
    same role; otherwise they are per-feature lists of ragged arrays.
    """

    __slots__ = ("_frontier", "orders", "values", "dense")

    def __init__(
        self,
        frontier: TrainingFrontier,
        orders,
        values,
        *,
        dense: bool,
    ):
        self._frontier = frontier
        self.orders = orders
        self.values = values
        self.dense = dense

    @property
    def n_features(self) -> int:
        """Number of feature columns with maintained sort orders."""
        return len(self.orders)

    def sorted_finite(self, feature: int) -> tuple[np.ndarray, np.ndarray]:
        """(row ids, values) of the node's finite-valued rows, sorted."""
        return self.orders[feature], self.values[feature]

    def mark(self, rows: np.ndarray) -> np.ndarray:
        """Set the fit-wide membership mask for ``rows``; returns the mask.

        Callers must :meth:`unmark` the same rows afterwards — the mask
        is shared scratch for the whole fit.
        """
        scratch = self._frontier._scratch
        scratch[rows] = True
        return scratch

    def unmark(self, rows: np.ndarray) -> None:
        """Clear the membership mask set by :meth:`mark`."""
        self._frontier._scratch[rows] = False

    def split(
        self,
        left_rows: np.ndarray,
        *,
        keep_left: bool = True,
        keep_right: bool = True,
    ) -> tuple[Optional["FrontierNode"], Optional["FrontierNode"]]:
        """Stable-partition every order array into the two children.

        ``left_rows`` are the global row ids routed to the left child.
        A side whose child can never be split (below Minsplit, at the
        depth cap) can be skipped with ``keep_* = False`` so its arrays
        are never materialised.
        """
        if self.dense:
            return self._split_dense(left_rows, keep_left, keep_right)
        scratch = self.mark(left_rows)
        left_orders: list[np.ndarray] = []
        left_values: list[np.ndarray] = []
        right_orders: list[np.ndarray] = []
        right_values: list[np.ndarray] = []
        for order, vals in zip(self.orders, self.values):
            goes_left = scratch[order]
            if keep_left:
                left_orders.append(order[goes_left])
                left_values.append(vals[goes_left])
            if keep_right:
                stays = ~goes_left
                right_orders.append(order[stays])
                right_values.append(vals[stays])
        self.unmark(left_rows)
        left = (
            FrontierNode(self._frontier, left_orders, left_values, dense=False)
            if keep_left
            else None
        )
        right = (
            FrontierNode(self._frontier, right_orders, right_values, dense=False)
            if keep_right
            else None
        )
        return left, right

    def _split_dense(
        self, left_rows: np.ndarray, keep_left: bool, keep_right: bool
    ) -> tuple[Optional["FrontierNode"], Optional["FrontierNode"]]:
        """Dense split: one boolean gather partitions every feature.

        Each row of the boolean matrix selects exactly ``len(left_rows)``
        entries (every feature holds the same row set), so the row-major
        flattened selection reshapes back into per-feature rows with the
        within-row order — and therefore every downstream float —
        unchanged from the ragged per-feature partition.
        """
        scratch = self.mark(left_rows)
        goes_left = scratch[self.orders]
        self.unmark(left_rows)
        d, n = self.orders.shape
        n_left = left_rows.size
        left = right = None
        if keep_left:
            left = FrontierNode(
                self._frontier,
                self.orders[goes_left].reshape(d, n_left),
                self.values[goes_left].reshape(d, n_left),
                dense=True,
            )
        if keep_right:
            stays = ~goes_left
            right = FrontierNode(
                self._frontier,
                self.orders[stays].reshape(d, n - n_left),
                self.values[stays].reshape(d, n - n_left),
                dense=True,
            )
        return left, right
