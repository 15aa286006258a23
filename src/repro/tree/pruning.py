"""Cost-complexity (weakest-link) pruning.

The paper prunes with a flat CP threshold (Algorithm 1/2 lines 18-22,
implemented inside :mod:`repro.tree.base`).  This module adds the full
Breiman et al. cost-complexity pruning *path* as an extension: the nested
sequence of subtrees indexed by the complexity penalty alpha, which the
ablation benchmark uses to study how tree size trades off against
detection performance.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.tree.base import BaseDecisionTree
from repro.tree.node import Node
from repro.tree.validation import Scorer, accuracy_score, stratified_kfold_indices
from repro.utils.parallel import run_tasks
from repro.utils.rng import RandomState


def _node_risk(node: Node) -> float:
    """Training risk of collapsing ``node`` into a leaf.

    Classification nodes use weight-scaled impurity; regression impurity
    (SSE) is already weight-aggregated.
    """
    if node.class_distribution is not None:
        return node.impurity * node.weight
    return node.impurity


def _subtree_risk(node: Node) -> float:
    """Sum of leaf risks over the subtree rooted at ``node``."""
    return sum(_node_risk(leaf) for leaf in node.iter_nodes() if leaf.is_leaf)


def _weakest_link(root: Node) -> tuple[float, Node] | None:
    """The internal node with the smallest alpha = (R(t) - R(T_t)) / (|T_t| - 1)."""
    best: tuple[float, Node] | None = None
    for node in root.iter_nodes():
        if node.is_leaf:
            continue
        leaves = node.count_leaves()
        alpha = (_node_risk(node) - _subtree_risk(node)) / (leaves - 1)
        if best is None or alpha < best[0]:
            best = (alpha, node)
    return best


@dataclass(frozen=True)
class PruningStep:
    """One entry of the cost-complexity path."""

    alpha: float
    n_leaves: int


def cost_complexity_path(tree: BaseDecisionTree) -> list[PruningStep]:
    """The sequence of (alpha, leaf-count) steps from the full tree to a stump.

    The first step always has ``alpha = 0`` (the unpruned tree); each
    following step records the penalty at which the next weakest link
    collapses.  Alphas are non-decreasing along the path.
    """
    root = copy.deepcopy(tree._check_fitted())
    path = [PruningStep(0.0, root.count_leaves())]
    while not root.is_leaf:
        found = _weakest_link(root)
        if found is None:
            break
        alpha, node = found
        node.make_leaf()
        path.append(PruningStep(max(alpha, path[-1].alpha), root.count_leaves()))
    return path


def prune_to_alpha(tree: BaseDecisionTree, alpha: float) -> BaseDecisionTree:
    """Return a copy of ``tree`` pruned with complexity penalty ``alpha``.

    Repeatedly collapses the weakest link while its alpha is at most the
    requested penalty, producing the optimal subtree for that penalty.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    tree._check_fitted()
    pruned = copy.deepcopy(tree)
    root = pruned.root_
    while not root.is_leaf:
        found = _weakest_link(root)
        if found is None or found[0] > alpha:
            break
        found[1].make_leaf()
    # The deep copy carries the original's compiled arrays; rebuild them
    # so the flat arrays reflect the pruned graph.
    pruned.recompile()
    return pruned


@dataclass(frozen=True)
class AlphaSearchResult:
    """Cross-validated alpha selection over a cost-complexity path.

    ``fold_scores[i][j]`` is fold ``i``'s score at ``alphas[j]``;
    ``mean_scores`` averages over folds; ``best_alpha`` is the winner
    (ties break toward the larger alpha, i.e. the smaller tree —
    rpart's preference).
    """

    best_alpha: float
    alphas: tuple[float, ...]
    mean_scores: tuple[float, ...]
    fold_scores: tuple[tuple[float, ...], ...]


def _score_fold_path(context, task):
    """Score one CV fold along every candidate alpha (module-level so
    worker processes can call it)."""
    model_factory, matrix, labels, weights, alphas, scorer = context
    train_idx, test_idx = task
    model = model_factory()
    if weights is None:
        model.fit(matrix[train_idx], labels[train_idx])
    else:
        model.fit(
            matrix[train_idx], labels[train_idx],
            sample_weight=weights[train_idx],
        )
    return tuple(
        scorer(prune_to_alpha(model, alpha), matrix[test_idx], labels[test_idx])
        for alpha in alphas
    )


def cross_validated_alpha(
    model_factory: Callable[[], BaseDecisionTree],
    X: object,
    y: Sequence[object],
    *,
    n_folds: int = 5,
    scorer: Scorer = accuracy_score,
    sample_weight: Optional[Sequence[float]] = None,
    seed: RandomState = 0,
    n_jobs: Optional[int] = None,
) -> AlphaSearchResult:
    """Select the pruning penalty by k-fold cross-validation.

    The rpart ``xval`` analogue for the cost-complexity path: the
    candidate alphas come from the path of a tree fitted on the full
    data, then each fold fits its own tree, prunes it at every
    candidate, and scores on the held-out fold.  The alpha with the best
    mean score wins; exact ties go to the larger alpha (smaller tree).

    Folds are independent, so ``n_jobs`` fans them out across worker
    processes (``None`` defers to ``REPRO_N_JOBS``).  The selected
    alpha is identical at any setting — each fold's rows are fixed up
    front, and unpicklable factories fall back to the serial loop.
    """
    matrix = np.asarray(X, dtype=float)
    labels = np.asarray(y)
    weights = None if sample_weight is None else np.asarray(sample_weight, dtype=float)

    master = model_factory()
    if weights is None:
        master.fit(matrix, labels)
    else:
        master.fit(matrix, labels, sample_weight=weights)
    alphas = tuple(dict.fromkeys(step.alpha for step in cost_complexity_path(master)))

    folds = list(stratified_kfold_indices(labels, n_folds, seed))
    if not folds:
        raise ValueError("cross-validation produced no usable folds")
    fold_scores = run_tasks(
        _score_fold_path,
        folds,
        n_jobs=n_jobs,
        context=(model_factory, matrix, labels, weights, alphas, scorer),
    )
    mean_scores = tuple(float(np.mean(column)) for column in zip(*fold_scores))
    best_index = 0
    for index, mean in enumerate(mean_scores):
        if mean >= mean_scores[best_index]:
            best_index = index
    return AlphaSearchResult(
        best_alpha=alphas[best_index],
        alphas=alphas,
        mean_scores=mean_scores,
        fold_scores=tuple(fold_scores),
    )
