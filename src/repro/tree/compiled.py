"""Compiled flat-array tree inference for fleet-scale scoring.

A fitted CART is, logically, the paper's Figure-1 object graph of
:class:`~repro.tree.node.Node` instances — ideal for rendering, rule
mining and introspection, but the wrong substrate for scoring millions
of drive-hours: every prediction hops Python objects node by node.

:class:`CompiledTree` flattens a fitted tree into contiguous numpy
arrays (one slot per node, pre-order):

* ``feature`` / ``threshold`` — the split, ``feature == -1`` at leaves;
* ``children_left`` / ``children_right`` — child slot indices (-1 at
  leaves);
* ``missing_goes_left`` — NaN fallback routing per node;
* ``node_id`` / ``prediction`` — the paper's Figure-1 node numbering and
  the leaf value;
* ``values`` — an ``(n_nodes, n_outputs)`` matrix holding each node's
  class distribution (classification) or target mean (regression), so
  ``predict_proba`` is a single fancy-index;
* a packed CSR-style surrogate table (``surrogate_offset`` +
  ``surrogate_feature`` / ``surrogate_threshold`` /
  ``surrogate_less_goes_left``) reproducing rpart's missing-value
  routing without per-row Python calls.

Routing is a vectorised subset descent: an explicit stack of
(node, row-subset) pairs where each internal node costs one contiguous
column gather, one scalar compare and two boolean compressions — a few
flat numpy passes per node actually visited, never a Python frame per
row.  This is the only inference path of every tree and ensemble.  The
semantics — including NaN/inf handling and surrogate fallbacks — are
bit-identical to a walk of the Figure-1 node graph, which survives as the
test oracle ``tests/oracles/node_walk.py``; the golden-equivalence suite
(``tests/test_tree_compiled.py``) enforces the match.

:class:`CompiledForest` stacks the members of an ensemble into one flat
arena (child indices offset per member) and scores all of them against
one shared :class:`_RoutingContext` — the transposed matrix and
per-column missing masks are computed once and reused by every member —
which is what makes 50-tree forest scoring over a whole fleet's sample
matrix one call.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional, Sequence

import numpy as np

from repro.observability import get_registry, get_tracer
from repro.observability.metrics import ROW_BUCKETS
from repro.tree.node import Node
from repro.tree.surrogates import SurrogateSplit

#: Sentinel used in ``feature``/``children_*`` arrays at leaf slots.
LEAF = -1


def _observe_batch(registry, n_rows: int, n_trees: int, elapsed: float) -> None:
    """Record one compiled batch routing call (enabled registries only)."""
    registry.counter("score.batches", help="compiled batch routing calls").inc()
    registry.counter("score.rows", help="rows routed").inc(n_rows * n_trees)
    registry.histogram(
        "score.batch_rows", ROW_BUCKETS, unit="rows", help="rows per batch call"
    ).observe(n_rows)
    registry.histogram(
        "score.batch_seconds", unit="seconds", help="batch routing wall time"
    ).observe(elapsed)


class _RoutingContext:
    """Per-matrix precomputation shared by every tree in a batch call.

    Columns are transposed once into contiguous layout (descent gathers
    one column at a time), and each column's missing mask is computed
    lazily on first use — ``None`` marks an all-finite column so clean
    columns never pay a missing pass.  A forest builds one context and
    routes all members through it.
    """

    def __init__(self, X: np.ndarray):
        self.X = X
        self.columns = np.ascontiguousarray(X.T)
        self._missing: dict[int, Optional[np.ndarray]] = {}

    def missing_mask(self, feature: int) -> Optional[np.ndarray]:
        """Cached non-finite mask for a column, ``None`` when all finite."""
        mask = self._missing.get(feature, False)
        if mask is False:
            column_missing = ~np.isfinite(self.columns[feature])
            mask = column_missing if column_missing.any() else None
            self._missing[feature] = mask
        return mask


class _FlatArrays:
    """The shared flat representation + vectorised subset router.

    Routing partitions a row subset down the tree with an explicit
    (node, rows) stack; each internal node visited costs one contiguous
    column gather and two boolean compressions, with missing-value
    handling hoisted out entirely for columns that contain no NaN/inf.
    """

    feature: np.ndarray
    threshold: np.ndarray
    children_left: np.ndarray
    children_right: np.ndarray
    missing_goes_left: np.ndarray
    node_id: np.ndarray
    prediction: np.ndarray
    values: np.ndarray
    surrogate_offset: np.ndarray
    surrogate_feature: np.ndarray
    surrogate_threshold: np.ndarray
    surrogate_less_goes_left: np.ndarray
    is_leaf: np.ndarray
    depth: int

    @property
    def n_nodes(self) -> int:
        """Total slot count (internal nodes plus leaves)."""
        return int(self.feature.shape[0])

    def _finalize(self, depth: Optional[int] = None) -> None:
        """Derive the routing-only fields from the canonical arrays.

        ``is_leaf`` masks leaf slots; ``depth`` is the number of levels
        below the deepest root (0 for a stump).  Pre-order guarantees
        parents precede children, so one forward pass computes levels.
        """
        self.is_leaf = self.feature < 0
        if depth is None:
            level = np.zeros(self.n_nodes, dtype=np.int64)
            for slot in np.nonzero(~self.is_leaf)[0]:
                level[self.children_left[slot]] = level[slot] + 1
                level[self.children_right[slot]] = level[slot] + 1
            depth = int(level.max()) if self.n_nodes else 0
        self.depth = depth

    # -- routing -------------------------------------------------------------

    def _route_subtree(
        self,
        ctx: _RoutingContext,
        root: int,
        rows: np.ndarray,
        out: np.ndarray,
    ) -> None:
        """Route ``rows`` from ``root`` down to leaves, writing leaf slots to ``out``.

        Iterative subset descent: each internal node partitions the row
        subset that reached it with its scalar threshold — one contiguous
        column gather, one compare, two compressions — so a batch costs
        ``O(sum of per-level rows)`` flat passes with no per-row Python.
        Rows whose split value is missing take the surrogate/fallback
        path of :meth:`_route_missing_lanes`.
        """
        if self.is_leaf[root]:
            out[rows] = root
            return
        feature = self.feature
        threshold = self.threshold
        children_left = self.children_left
        children_right = self.children_right
        is_leaf = self.is_leaf
        stack = [(root, rows)]
        while stack:
            slot, rows = stack.pop()
            f = int(feature[slot])
            column = ctx.columns[f].take(rows)
            goes_left = column < threshold[slot]
            column_missing = ctx.missing_mask(f)
            if column_missing is not None:
                missing = column_missing.take(rows)
                if missing.any():
                    lanes = np.nonzero(missing)[0]
                    goes_left[lanes] = self._route_missing_lanes(
                        ctx.X,
                        rows[lanes],
                        np.full(lanes.size, slot, dtype=np.int64),
                    )
            for child, child_rows in (
                (int(children_left[slot]), rows[goes_left]),
                (int(children_right[slot]), rows[~goes_left]),
            ):
                if not child_rows.size:
                    continue
                if is_leaf[child]:
                    out[child_rows] = child
                else:
                    stack.append((child, child_rows))

    def _route_missing_lanes(
        self, X: np.ndarray, rows: np.ndarray, nodes: np.ndarray
    ) -> np.ndarray:
        """Surrogate-then-fallback routing for lanes whose primary value is missing.

        Mirrors :func:`repro.tree.surrogates.route_left_with_surrogates`:
        the highest-ranked surrogate with a finite value decides; rows no
        surrogate can place follow ``missing_goes_left``.
        """
        goes_left = self.missing_goes_left[nodes].copy()
        counts = self.surrogate_offset[nodes + 1] - self.surrogate_offset[nodes]
        undecided = np.ones(rows.size, dtype=bool)
        for rank in range(int(counts.max()) if counts.size else 0):
            trying = np.nonzero(undecided & (counts > rank))[0]
            if trying.size == 0:
                break
            slots = self.surrogate_offset[nodes[trying]] + rank
            candidate = X[rows[trying], self.surrogate_feature[slots]]
            finite = np.isfinite(candidate)
            if not finite.any():
                continue
            decided = trying[finite]
            slots = slots[finite]
            goes_less = candidate[finite] < self.surrogate_threshold[slots]
            goes_left[decided] = np.where(
                self.surrogate_less_goes_left[slots], goes_less, ~goes_less
            )
            undecided[decided] = False
        return goes_left

    def _route_row(self, row: np.ndarray, slot: int) -> int:
        """Advance a single row one level from internal node ``slot``."""
        value = row[self.feature[slot]]
        if np.isfinite(value):
            goes_left = bool(value < self.threshold[slot])
        else:
            goes_left = bool(self.missing_goes_left[slot])
            for rank in range(
                int(self.surrogate_offset[slot]), int(self.surrogate_offset[slot + 1])
            ):
                candidate = row[self.surrogate_feature[rank]]
                if np.isfinite(candidate):
                    goes_less = bool(candidate < self.surrogate_threshold[rank])
                    goes_left = (
                        goes_less if self.surrogate_less_goes_left[rank] else not goes_less
                    )
                    break
        return int(self.children_left[slot] if goes_left else self.children_right[slot])


class CompiledTree(_FlatArrays):
    """A fitted tree flattened into contiguous arrays (see module docs).

    Build with :meth:`from_node`; all inference methods take an already
    validated ``(n_rows, n_features)`` float matrix.
    """

    def __init__(
        self,
        *,
        feature: np.ndarray,
        threshold: np.ndarray,
        children_left: np.ndarray,
        children_right: np.ndarray,
        missing_goes_left: np.ndarray,
        node_id: np.ndarray,
        prediction: np.ndarray,
        values: np.ndarray,
        surrogate_offset: np.ndarray,
        surrogate_feature: np.ndarray,
        surrogate_threshold: np.ndarray,
        surrogate_less_goes_left: np.ndarray,
    ):
        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=float)
        self.children_left = np.asarray(children_left, dtype=np.int64)
        self.children_right = np.asarray(children_right, dtype=np.int64)
        self.missing_goes_left = np.asarray(missing_goes_left, dtype=bool)
        self.node_id = np.asarray(node_id, dtype=np.int64)
        self.prediction = np.asarray(prediction, dtype=float)
        self.values = np.asarray(values, dtype=float)
        self.surrogate_offset = np.asarray(surrogate_offset, dtype=np.int64)
        self.surrogate_feature = np.asarray(surrogate_feature, dtype=np.int64)
        self.surrogate_threshold = np.asarray(surrogate_threshold, dtype=float)
        self.surrogate_less_goes_left = np.asarray(surrogate_less_goes_left, dtype=bool)
        self._validate()
        self._finalize()

    def _validate(self) -> None:
        n = self.n_nodes
        if n == 0:
            raise ValueError("a compiled tree needs at least one node")
        for name in ("threshold", "children_left", "children_right",
                     "missing_goes_left", "node_id", "prediction"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")
        if self.values.ndim != 2 or self.values.shape[0] != n:
            raise ValueError(f"values must be 2-D with {n} rows")
        if self.surrogate_offset.shape != (n + 1,):
            raise ValueError(f"surrogate_offset must have shape ({n + 1},)")
        internal = self.feature >= 0
        children = np.concatenate(
            [self.children_left[internal], self.children_right[internal]]
        )
        if internal.any() and (children.min() < 0 or children.max() >= n):
            raise ValueError("child indices out of range")

    # -- construction --------------------------------------------------------

    @classmethod
    def from_node(cls, root: Node) -> "CompiledTree":
        """Flatten a fitted :class:`Node` graph (pre-order)."""
        nodes: list[Node] = list(root.iter_nodes())
        n = len(nodes)
        slot_of = {id(node): slot for slot, node in enumerate(nodes)}
        n_outputs = (
            len(root.class_distribution) if root.class_distribution is not None else 1
        )

        feature = np.full(n, LEAF, dtype=np.int64)
        threshold = np.full(n, np.nan)
        children_left = np.full(n, LEAF, dtype=np.int64)
        children_right = np.full(n, LEAF, dtype=np.int64)
        missing_goes_left = np.zeros(n, dtype=bool)
        node_id = np.empty(n, dtype=np.int64)
        prediction = np.empty(n)
        values = np.empty((n, n_outputs))
        surrogate_counts = np.zeros(n, dtype=np.int64)
        surrogate_rows: list[SurrogateSplit] = []

        for slot, node in enumerate(nodes):
            node_id[slot] = node.node_id
            prediction[slot] = node.prediction
            if node.class_distribution is not None:
                values[slot] = node.class_distribution
            else:
                values[slot] = node.prediction
            missing_goes_left[slot] = node.missing_goes_left
            if node.is_leaf:
                continue
            feature[slot] = node.feature
            threshold[slot] = node.threshold
            children_left[slot] = slot_of[id(node.left)]
            children_right[slot] = slot_of[id(node.right)]
            surrogate_counts[slot] = len(node.surrogates)
            surrogate_rows.extend(node.surrogates)

        surrogate_offset = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(surrogate_counts, out=surrogate_offset[1:])
        return cls(
            feature=feature,
            threshold=threshold,
            children_left=children_left,
            children_right=children_right,
            missing_goes_left=missing_goes_left,
            node_id=node_id,
            prediction=prediction,
            values=values,
            surrogate_offset=surrogate_offset,
            surrogate_feature=np.array(
                [s.feature for s in surrogate_rows], dtype=np.int64
            ),
            surrogate_threshold=np.array(
                [s.threshold for s in surrogate_rows], dtype=float
            ),
            surrogate_less_goes_left=np.array(
                [s.less_goes_left for s in surrogate_rows], dtype=bool
            ),
        )

    # -- inference -----------------------------------------------------------

    def apply_slots(self, X: np.ndarray) -> np.ndarray:
        """Flat leaf slot (array index) each row lands in."""
        registry = get_registry()
        tracer = get_tracer()
        if not registry.enabled and not tracer.enabled:
            return self._apply_slots_impl(X)
        start = perf_counter()
        with tracer.span(
            "score.batch", category="score", n_rows=int(X.shape[0]), n_trees=1
        ):
            out = self._apply_slots_impl(X)
        if registry.enabled:
            _observe_batch(registry, X.shape[0], 1, perf_counter() - start)
        return out

    def _apply_slots_impl(self, X: np.ndarray) -> np.ndarray:
        n_rows = X.shape[0]
        out = np.empty(n_rows, dtype=np.int64)
        self._route_subtree(
            _RoutingContext(X), 0, np.arange(n_rows, dtype=np.intp), out
        )
        return out

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Figure-1 ``node_id`` of the leaf each row lands in."""
        return self.node_id[self.apply_slots(X)]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf ``prediction`` for each row (labels or target means)."""
        return self.prediction[self.apply_slots(X)]

    def predict_values(self, X: np.ndarray) -> np.ndarray:
        """Leaf value rows — class distributions or ``(n, 1)`` means."""
        return self.values[self.apply_slots(X)]

    def decision_path_slots(self, row: np.ndarray) -> list[int]:
        """Root-to-leaf flat slot sequence for one 1-D sample."""
        slot = 0
        path = [0]
        while self.feature[slot] >= 0:
            slot = self._route_row(row, slot)
            path.append(slot)
        return path

    def decision_path_ids(self, row: np.ndarray) -> list[int]:
        """Root-to-leaf Figure-1 ``node_id`` sequence for one 1-D sample."""
        return [int(self.node_id[slot]) for slot in self.decision_path_slots(row)]

    # -- persistence ---------------------------------------------------------

    _ARRAY_FIELDS = (
        "feature",
        "threshold",
        "children_left",
        "children_right",
        "missing_goes_left",
        "node_id",
        "prediction",
        "values",
        "surrogate_offset",
        "surrogate_feature",
        "surrogate_threshold",
        "surrogate_less_goes_left",
    )

    def to_dict(self) -> dict:
        """JSON-able dict of the flat arrays (lossless round trip)."""
        return {name: getattr(self, name).tolist() for name in self._ARRAY_FIELDS}

    @classmethod
    def from_dict(cls, payload: dict) -> "CompiledTree":
        """Rebuild from :meth:`to_dict` output."""
        values = np.asarray(payload["values"], dtype=float)
        if values.ndim == 1:  # a single-node tree serialises to a flat list
            values = values.reshape(len(values), 1)
        kwargs = {name: np.asarray(payload[name]) for name in cls._ARRAY_FIELDS}
        kwargs["values"] = values
        return cls(**kwargs)


class CompiledForest(_FlatArrays):
    """Ensemble members stacked into one flat arena for batch scoring.

    Child and surrogate indices of each member are offset into the
    shared arrays; ``roots`` holds each member's root slot.  One
    :meth:`predict_matrix` call routes all ``n_trees * n_rows`` lanes
    through the vectorised level loop.
    """

    def __init__(self, trees: Sequence[CompiledTree]):
        if not trees:
            raise ValueError("CompiledForest needs at least one member tree")
        self.n_trees = len(trees)
        bases = np.cumsum([0] + [t.n_nodes for t in trees])[:-1]
        self.roots = bases.astype(np.int64)
        surrogate_bases = np.cumsum(
            [0] + [t.surrogate_feature.shape[0] for t in trees]
        )[:-1]

        def offset_children(tree: CompiledTree, base: int) -> tuple[np.ndarray, np.ndarray]:
            internal = tree.feature >= 0
            left = np.where(internal, tree.children_left + base, LEAF)
            right = np.where(internal, tree.children_right + base, LEAF)
            return left, right

        lefts, rights = zip(
            *(offset_children(t, b) for t, b in zip(trees, bases))
        )
        self.feature = np.concatenate([t.feature for t in trees])
        self.threshold = np.concatenate([t.threshold for t in trees])
        self.children_left = np.concatenate(lefts)
        self.children_right = np.concatenate(rights)
        self.missing_goes_left = np.concatenate([t.missing_goes_left for t in trees])
        self.node_id = np.concatenate([t.node_id for t in trees])
        self.prediction = np.concatenate([t.prediction for t in trees])
        n_outputs = max(t.values.shape[1] for t in trees)
        if any(t.values.shape[1] != n_outputs for t in trees):
            raise ValueError("member trees disagree on the number of outputs")
        self.values = np.concatenate([t.values for t in trees])
        self.surrogate_offset = np.concatenate(
            [np.asarray([0], dtype=np.int64)]
            + [t.surrogate_offset[1:] + b for t, b in zip(trees, surrogate_bases)]
        )
        self.surrogate_feature = np.concatenate([t.surrogate_feature for t in trees])
        self.surrogate_threshold = np.concatenate(
            [t.surrogate_threshold for t in trees]
        )
        self.surrogate_less_goes_left = np.concatenate(
            [t.surrogate_less_goes_left for t in trees]
        )
        self._finalize(depth=max(t.depth for t in trees))

    def apply_slots(self, X: np.ndarray) -> np.ndarray:
        """Flat leaf slots, shape ``(n_trees, n_rows)``.

        One routing context (transpose + missing masks) is shared by all
        members, so the per-matrix setup is paid once per call rather
        than once per tree.
        """
        registry = get_registry()
        tracer = get_tracer()
        if not registry.enabled and not tracer.enabled:
            return self._apply_slots_impl(X)
        start = perf_counter()
        with tracer.span(
            "score.batch", category="score",
            n_rows=int(X.shape[0]), n_trees=self.n_trees,
        ):
            out = self._apply_slots_impl(X)
        if registry.enabled:
            _observe_batch(registry, X.shape[0], self.n_trees, perf_counter() - start)
        return out

    def _apply_slots_impl(self, X: np.ndarray) -> np.ndarray:
        n_rows = X.shape[0]
        out = np.empty((self.n_trees, n_rows), dtype=np.int64)
        ctx = _RoutingContext(X)
        rows = np.arange(n_rows, dtype=np.intp)
        for member, root in enumerate(self.roots):
            self._route_subtree(ctx, int(root), rows, out[member])
        return out

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        """Per-member predictions, shape ``(n_trees, n_rows)``.

        Row ``t`` equals ``trees[t].predict(X)`` exactly, so consumers
        aggregate (vote, average, weight) without re-scoring.
        """
        return self.prediction[self.apply_slots(X)]


def compile_tree(root: Optional[Node]) -> Optional[CompiledTree]:
    """Compile a fitted root, or pass ``None`` through (unfitted trees)."""
    return None if root is None else CompiledTree.from_node(root)
