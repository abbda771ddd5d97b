"""Soft-margin SVM trained by sequential minimal optimization.

Each step optimizes two Lagrange multipliers jointly, chosen by the
second-order working-set selection of Fan, Chen & Lin (JMLR 6, 2005): the
maximal violator `i`, then the partner `j` with the largest guaranteed
gain of the dual objective. The solver stops once the gap between the
largest and smallest admissible bias falls below the tolerance (Keerthi
et al., Neural Computation 13, 2001). Box and equality constraints stay
exact by construction.

Kernel rows are computed from each example's nonzero columns. Sparse
training data is kept column-wise (for each feature, the examples that hold
it), denser data as a dense column-major copy; both give the same rows bit
for bit. Rows are kept in an LRU cache, a row with few entries other than
+0.0 as just those entries and the pair curvature there (Joachims, 1999;
Fan, Chen & Lin, 2005).
"""

from __future__ import annotations

import logging
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .features import SparseVector

logger = logging.getLogger(__name__)

_TAU = 1e-12  # curvature floor for a pair with K_ii + K_jj - 2 K_ij <= 0
_ROW_CACHE_FLOATS = 1 << 25  # kernel-row cache budget, roughly 256 MB
# Data with fewer nonzeros than this share of dim * n is kept column-wise.
# Scattering an example's columns from the store costs what gathering them
# from a dense copy costs at a few hundred column entries, but three times
# as much at several thousand, where the dense copy pays for itself.
_COLUMN_STORE_SHARE = 1 / 16
# A kernel row with fewer entries other than +0.0 than this share of n is
# cached as those entries.
_SPARSE_ROW_SHARE = 0.5
ALPHA_EPSILON = 1e-8  # a multiplier above this makes its example a support vector

KERNELS = ("linear", "rbf")


class SvmError(Exception):
    """Raised for invalid training inputs or model misuse."""


@dataclass(frozen=True)
class TrainConfig:
    C: float = 1.0
    kernel: str = "linear"  # one of KERNELS
    gamma: float | None = None
    kkt_tolerance: float = 1e-3
    max_passes: int = 10_000

    def __post_init__(self):
        if not 0.0 < self.C < math.inf:
            raise SvmError(f"C must be finite and positive, got {self.C}")
        if not 0.0 < self.kkt_tolerance < math.inf:
            raise SvmError(
                f"kkt_tolerance must be finite and positive, got {self.kkt_tolerance}"
            )
        if type(self.max_passes) is not int or self.max_passes < 1:
            raise SvmError(f"max_passes must be an int >= 1, got {self.max_passes!r}")
        if self.kernel not in KERNELS:
            raise SvmError(f"unsupported kernel: {self.kernel!r}")
        if self.kernel == "rbf" and self.gamma is None:
            raise SvmError("rbf kernel requires a finite gamma > 0, got None")
        if self.gamma is not None and not 0.0 < self.gamma < math.inf:
            raise SvmError(f"gamma must be finite and positive, got {self.gamma}")


@dataclass(frozen=True)
class SvmModel:
    """Support vectors with their dual coefficients and the bias term.

    Document ids ride along so the incremental loop can re-vectorize the
    support vectors after the feature space changes.
    """

    alphas: tuple[float, ...]
    sv_labels: tuple[int, ...]
    sv_vectors: tuple[SparseVector, ...]
    sv_doc_ids: tuple[str, ...]
    bias: float
    config: TrainConfig
    dim: int
    feature_tag: str | None
    converged: bool
    passes: int
    objective: float


def _rbf(gamma: float, sq_x, sq_y, dot):
    """exp(-gamma * ||x - y||^2) from the squared norms and the dot product."""
    return np.exp(-gamma * (sq_x + sq_y - 2.0 * dot))


def _flat_entries(vectors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(owner, position, weight) arrays over every entry, in vector order."""
    owner = np.repeat(np.arange(len(vectors)), [len(vec.positions) for vec in vectors])
    position = np.concatenate([np.zeros(0, np.intp)] + [vec.positions for vec in vectors])
    weight = np.concatenate([np.zeros(0)] + [vec.weights for vec in vectors])
    return owner, position, weight


class _KernelTable:
    """Training kernel rows in an LRU cache, each computed from one
    example's nonzero columns.

    The data is a dense column-major copy `XT`, or for sparse data a column
    store, with `XT` None: `columns[f]` holds the ids, in order, of the
    examples that hold feature f and their weights. Row i is cached as
    `(positions, values, nonpositive, curvature)`: the positions of its
    entries other than +0.0, their values, the positions t where the pair
    curvature `diag[t] + diag[i] - 2 row[t]` is at most 0, and the curvature
    at `positions`; or None, the whole row, `nonpositive` and None.
    """

    def __init__(self, vectors, dim: int, config: TrainConfig):
        n = len(vectors)
        owner, position, weight = _flat_entries(vectors)
        if len(weight) < _COLUMN_STORE_SHARE * dim * n:
            self.XT = None
            order = np.argsort(position, kind="stable")
            cuts = np.cumsum(np.bincount(position, minlength=dim))[:-1]
            self.columns = list(zip(np.split(owner[order], cuts),
                                    np.split(weight[order], cuts)))
        else:
            self.XT = np.zeros((dim, n))
            self.XT[position, owner] = weight
        self.n = n
        self.cols = [vec.positions for vec in vectors]
        self.vals = [vec.weights for vec in vectors]
        self.config = config
        self.sq = np.bincount(owner, weights=weight * weight, minlength=n)
        self.diag = np.ones(n) if config.kernel == "rbf" else self.sq
        self.cache: OrderedDict[int, tuple] = OrderedDict()
        self.limit = max(16, _ROW_CACHE_FLOATS // max(n, 1))

    def _block(self, cols) -> np.ndarray:
        """`XT[cols]`: the data's columns `cols` as a (len(cols), n) array."""
        if self.XT is not None:
            return self.XT[cols]
        block = np.zeros((len(cols), self.n))
        for row, col in zip(block, cols.tolist()):
            ids, weights = self.columns[col]
            row[ids] = weights
        return block

    def against(self, cols, vals, sq) -> np.ndarray:
        """Kernel values of every stored example with the vector that has
        weights `vals` at columns `cols` (all below `dim`) and squared norm
        `sq`; they depend on that vector and the stored data only."""
        row = vals @ self._block(cols)
        if self.config.kernel == "rbf":
            row = _rbf(self.config.gamma, self.sq, sq, row)
        return row

    def row(self, i: int) -> tuple:
        """Kernel row i in its cached form (see the class docstring)."""
        entry = self.cache.get(i)
        if entry is not None:
            self.cache.move_to_end(i)
            return entry
        row = self.against(self.cols[i], self.vals[i], self.sq[i])
        diag_i = self.diag[i]
        # The int64 view is 0 exactly at +0.0, so -0.0 entries are kept.
        positions = np.flatnonzero(row.view(np.int64) != 0)
        if len(positions) < _SPARSE_ROW_SHARE * self.n:
            values = row[positions]
            curvature = (self.diag[positions] + diag_i) - 2.0 * values
        else:
            positions, values, curvature = None, row, None
        if positions is not None and diag_i > 0.0:
            # Elsewhere the row is +0.0 and the curvature diag + diag_i > 0,
            # since the diagonal is nonnegative.
            nonpositive = positions[curvature <= 0.0]
        else:
            nonpositive = np.flatnonzero((self.diag + diag_i) - 2.0 * row <= 0.0)
        entry = (positions, values, nonpositive, curvature)
        if len(self.cache) >= self.limit:
            self.cache.popitem(last=False)
        self.cache[i] = entry
        return entry


def _solve(kernel: _KernelTable, y: np.ndarray, config: TrainConfig):
    """Second-order working-set SMO: pair steps until the gap closes or
    max_passes * n steps are taken. Returns (alpha, bias, objective,
    converged, passes) with one pass = n steps.

    `score[t] = y_t - u_t`, with `u` the decision value without bias, is
    minus `y_t` times the gradient of the dual objective, and the bias that
    would put example t exactly on the margin. I_up holds the examples whose
    multiplier may move in the direction of their label (y=+1 below C, or
    y=-1 above 0), I_low those that may move against it. The KKT conditions
    hold within the tolerance once max(score over I_up) - min(score over
    I_low) drops below it and the bias lies between the two.

    The scores are kept only as `masked`: row 0 holds them over I_up and
    -inf elsewhere, row 1 over I_low and +inf elsewhere. Every example lies
    in at least one set, so one subtraction updates every score a step
    changes, and only i and j can change sets. Each step works on buffers
    allocated here: a row cached sparse is scattered into a zeroed one,
    which is zeroed again after the step, and its cached curvature is put in
    place. Multipliers, labels, the kernel diagonal and the objective are
    Python floats.
    """
    C, n = config.C, len(y)
    inf = math.inf
    masked = np.array([np.where(y > 0, y, -inf), np.where(y > 0, inf, y)])
    y, diag, alpha = y.tolist(), kernel.diag.tolist(), [0.0] * n
    up_scores, low_scores = masked
    curvature, gain, diff = np.empty(n), np.empty(n), np.empty(n)
    scratch_i, scratch_j = np.zeros((2, n))
    cap = config.max_passes * n
    # The tracked scores carry rounding errors of a few ulps, so a gap that
    # equals the tolerance in real arithmetic can read just below it.
    # Closing the gap below the tolerance by a relative 1e-9 makes the
    # returned model meet the tolerance, not only to rounding.
    stop = config.kkt_tolerance * (1.0 - 1e-9)
    objective = 0.0
    steps = 0
    while True:
        i = int(up_scores.argmax())
        m = float(up_scores[i])
        M = float(low_scores.min())
        converged = m - M < stop
        if converged or steps >= cap:
            break
        positions_i, row_i, nonpositive, curvature_i = kernel.row(i)
        diag_i = diag[i]
        # j maximizes the guaranteed gain b^2 / a over the I_low examples
        # with b = m - score_j > 0; the others score 0 and never win,
        # because the gap is at least the tolerance.
        np.add(kernel.diag, diag_i, out=curvature)
        if positions_i is None:
            np.multiply(row_i, 2.0, out=diff)
            np.subtract(curvature, diff, out=curvature)
        else:
            # Off its positions the row is +0.0, and x - 2.0 * 0.0 is x.
            curvature[positions_i] = curvature_i
            scratch_i[positions_i] = row_i
            row_i = scratch_i
        curvature[nonpositive] = _TAU
        np.subtract(m, low_scores, out=gain)
        np.maximum(gain, 0.0, out=gain)
        np.multiply(gain, gain, out=gain)
        np.divide(gain, curvature, out=gain)
        j = int(gain.argmax())

        # Move alpha along (+y_i, -y_j) as far as the dual objective rises.
        b = m - float(low_scores[j])
        a = diag_i + diag[j] - 2.0 * float(row_i[j])
        room_i = C - alpha[i] if y[i] > 0 else alpha[i]
        room_j = alpha[j] if y[j] > 0 else C - alpha[j]
        t = min(b / (a if a > 0.0 else _TAU), room_i, room_j)
        delta_obj = t * b - 0.5 * a * t * t
        if delta_obj < -1e-9 * max(1.0, abs(objective)):
            raise SvmError(f"dual objective decreased by {delta_obj} at step ({i},{j})")
        objective += delta_obj
        # A multiplier that reaches its bound is put exactly on it.
        alpha[i] = (C if y[i] > 0 else 0.0) if t == room_i else alpha[i] + y[i] * t
        alpha[j] = (0.0 if y[j] > 0 else C) if t == room_j else alpha[j] - y[j] * t
        positions_j, row_j, _, _ = kernel.row(j)
        if positions_j is not None:
            scratch_j[positions_j] = row_j
            row_j = scratch_j
        np.subtract(row_i, row_j, out=diff)
        diff *= t
        masked -= diff
        if positions_i is not None:
            scratch_i[positions_i] = 0.0
        if positions_j is not None:
            scratch_j[positions_j] = 0.0
        for k, score in ((i, float(up_scores[i])), (j, float(low_scores[j]))):
            below = alpha[k] < C
            above = alpha[k] > 0.0
            up_scores[k] = score if (below if y[k] > 0 else above) else -inf
            low_scores[k] = score if (above if y[k] > 0 else below) else inf
        steps += 1
    alpha = np.array(alpha)
    # A free multiplier puts its example in both sets.
    free = (alpha > 0.0) & (alpha < C)
    bias = float(up_scores[free].mean()) if free.any() else (m + M) / 2.0
    return alpha, bias, objective, converged, -(-steps // n)


def train_smo(vectors, labels, config: TrainConfig, doc_ids=None) -> SvmModel:
    """Train on sparse vectors with +1/-1 labels.

    Raises for empty or single-class input. The returned model reports
    whether training converged (the bias gap closed below kkt_tolerance)
    or hit max_passes * len(vectors) pair steps.
    """
    vectors = list(vectors)
    labels = list(labels)
    if len(vectors) != len(labels):
        raise SvmError("vectors and labels length mismatch")
    if len(vectors) < 2:
        raise SvmError("training requires at least two examples")
    if any(label not in (-1, 1) for label in labels):
        raise SvmError("labels must be -1 or +1")
    if len(set(labels)) < 2:
        raise SvmError("training requires both classes")
    if doc_ids is None:
        doc_ids = [str(i) for i in range(len(vectors))]
    else:
        doc_ids = [str(d) for d in doc_ids]
        if len(doc_ids) != len(vectors):
            raise SvmError("doc_ids and vectors length mismatch")
    tags = {v.feature_tag for v in vectors if v.feature_tag is not None}
    if len(tags) > 1:
        raise SvmError("training vectors come from different feature sets")
    feature_tag = tags.pop() if tags else None

    dim = max((int(vec.positions[-1]) + 1 for vec in vectors if len(vec.positions)),
              default=0)
    y = np.array(labels, dtype=float)
    alpha, bias, objective, converged, passes = _solve(
        _KernelTable(vectors, dim, config), y, config
    )
    if not converged:
        logger.warning("SMO hit max_passes=%d before converging", config.max_passes)

    keep = [i for i in range(len(vectors)) if alpha[i] > ALPHA_EPSILON]
    return SvmModel(
        alphas=tuple(float(alpha[i]) for i in keep),
        sv_labels=tuple(int(labels[i]) for i in keep),
        sv_vectors=tuple(vectors[i] for i in keep),
        sv_doc_ids=tuple(doc_ids[i] for i in keep),
        bias=bias,
        config=config,
        dim=dim,
        feature_tag=feature_tag,
        converged=converged,
        passes=passes,
        objective=objective,
    )


def weight_vector(model: SvmModel) -> np.ndarray:
    """Explicit normal vector of the separating plane (linear kernel only)."""
    if model.config.kernel != "linear":
        raise SvmError("weight_vector is defined for the linear kernel only")
    owner, position, weight = _flat_entries(model.sv_vectors)
    coef = np.array(model.alphas, dtype=float) * np.array(model.sv_labels)
    return np.bincount(position, weights=coef[owner] * weight, minlength=model.dim)


def decision_scores(model: SvmModel, vectors) -> list[float]:
    """Decision values bias + sum over SVs of alpha*y*K(sv, x), for many
    vectors; a positive value classifies as spam.

    Each score depends on its vector and the model only, not on the batch:
    linear models sum bias + w.x per vector, and RBF models compute each
    vector's kernel row against the support vectors as training computes a
    kernel row, over the vector's columns below the model's dimension and
    its full squared norm.
    """
    vectors = list(vectors)
    if model.feature_tag is not None and any(
        vec.feature_tag not in (None, model.feature_tag) for vec in vectors
    ):
        raise SvmError("vector was built against a different feature set")
    if model.config.kernel != "linear":
        table = _KernelTable(model.sv_vectors, model.dim, model.config)
        coef = np.array(model.alphas, dtype=float) * np.array(model.sv_labels)
        owner, _, weight = _flat_entries(vectors)
        sq_x = np.bincount(owner, weights=weight * weight, minlength=len(vectors))
        scores = []
        for vec, sq in zip(vectors, sq_x):
            known = vec.positions < model.dim
            row = table.against(vec.positions[known], vec.weights[known], sq)
            scores.append(float(model.bias + row @ coef))
        return scores
    w = weight_vector(model)
    owner, position, weight = _flat_entries(vectors)
    known = position < model.dim
    k = len(vectors)
    # The bias goes first, so each score sums in the order bias + w.x.
    bins = np.concatenate((np.arange(k), owner[known]))
    terms = np.concatenate((np.full(k, model.bias), w[position[known]] * weight[known]))
    return np.bincount(bins, weights=terms, minlength=k).tolist()
