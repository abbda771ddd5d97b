"""Soft-margin SVM trained by sequential minimal optimization.

The trainer jointly optimizes two Lagrange multipliers per step (second
choice by largest error difference, with deterministic sweep fallbacks),
keeps the box constraints and the equality constraint exact by
construction, and stops once a full pass over the data changes nothing.
Kernel rows are served from a precomputed Gram matrix for small problems
and an LRU row cache for large ones.
"""

from __future__ import annotations

import json
import logging
import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .features import SparseVector

logger = logging.getLogger(__name__)

_GRAM_LIMIT = 2048  # precompute the full Gram matrix up to this many examples
_STEP_EPS = 1e-10   # minimum relative multiplier movement that counts as progress


class SvmError(Exception):
    """Raised for invalid training inputs or model misuse."""


@dataclass(frozen=True)
class TrainConfig:
    C: float = 1.0
    kernel: str = "linear"  # "linear" or "rbf"
    gamma: float | None = None
    kkt_tolerance: float = 1e-3
    alpha_epsilon: float = 1e-8
    max_passes: int = 10_000

    def __post_init__(self):
        if not 0.0 < self.C < math.inf:
            raise SvmError(f"C must be finite and positive, got {self.C}")
        if self.kkt_tolerance <= 0 or self.alpha_epsilon <= 0:
            raise SvmError("tolerances must be positive")
        if self.kernel not in ("linear", "rbf"):
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


@dataclass(frozen=True)
class Prediction:
    score: float
    label: int  # +1 spam, -1 legitimate; a zero score maps to legitimate


def _sparse_dot(x: SparseVector, y: SparseVector) -> float:
    total = 0.0
    xs, ys = x.entries, y.entries
    i = j = 0
    while i < len(xs) and j < len(ys):
        px, wx = xs[i]
        py, wy = ys[j]
        if px == py:
            total += wx * wy
            i += 1
            j += 1
        elif px < py:
            i += 1
        else:
            j += 1
    return total


def kernel_eval(config: TrainConfig, x: SparseVector, y: SparseVector) -> float:
    """Kernel value between two sparse vectors."""
    dot = _sparse_dot(x, y)
    if config.kernel == "linear":
        return dot
    sq = sum(w * w for _, w in x.entries) + sum(w * w for _, w in y.entries)
    return math.exp(-config.gamma * (sq - 2.0 * dot))


def _to_dense(vectors, dim: int) -> np.ndarray:
    X = np.zeros((len(vectors), dim))
    for i, vec in enumerate(vectors):
        for position, weight in vec.entries:
            X[i, position] = weight
    return X


class _KernelTable:
    """Gram rows for training: full matrix when small, LRU rows when large."""

    def __init__(self, X: np.ndarray, config: TrainConfig):
        self.X = X
        self.config = config
        self.sq = np.einsum("ij,ij->i", X, X)
        n = X.shape[0]
        self.full: np.ndarray | None = None
        self.cache: OrderedDict[int, np.ndarray] = OrderedDict()
        if n <= _GRAM_LIMIT:
            gram = X @ X.T
            if config.kernel == "rbf":
                gram = np.exp(
                    -config.gamma * (self.sq[:, None] + self.sq[None, :] - 2 * gram)
                )
            self.full = gram
        else:
            # Keep roughly 256 MB of rows.
            self.limit = max(16, (1 << 25) // n)
        if config.kernel == "rbf":
            self.diag = np.ones(n)
        else:
            self.diag = self.sq

    def row(self, i: int) -> np.ndarray:
        if self.full is not None:
            return self.full[i]
        row = self.cache.get(i)
        if row is not None:
            self.cache.move_to_end(i)
            return row
        row = self.X @ self.X[i]
        if self.config.kernel == "rbf":
            row = np.exp(-self.config.gamma * (self.sq + self.sq[i] - 2 * row))
        if len(self.cache) >= self.limit:
            self.cache.popitem(last=False)
        self.cache[i] = row
        return row


class _SmoSolver:
    def __init__(self, X, y, config: TrainConfig):
        self.config = config
        self.n = X.shape[0]
        self.y = y
        self.kernel = _KernelTable(X, config)
        self.alpha = np.zeros(self.n)
        self.bias = 0.0
        self.errors = -y.astype(float)  # f(x) = 0 everywhere at the start
        self.objective = 0.0

    def _objective_at(self, i1, i2, a1, a2, k11, k12, k22, v1, v2):
        # Dual objective restricted to the pair, dropping terms constant in it.
        y1, y2 = self.y[i1], self.y[i2]
        return (
            a1 + a2
            - 0.5 * k11 * a1 * a1
            - 0.5 * k22 * a2 * a2
            - y1 * y2 * k12 * a1 * a2
            - y1 * a1 * v1
            - y2 * a2 * v2
        )

    def take_step(self, i1: int, i2: int) -> bool:
        if i1 == i2:
            return False
        C = self.config.C
        a1, a2 = self.alpha[i1], self.alpha[i2]
        y1, y2 = self.y[i1], self.y[i2]
        E1, E2 = self.errors[i1], self.errors[i2]
        s = y1 * y2
        if s > 0:
            L, H = max(0.0, a1 + a2 - C), min(C, a1 + a2)
        else:
            L, H = max(0.0, a2 - a1), min(C, C + a2 - a1)
        if L >= H:
            return False
        row1 = self.kernel.row(i1)
        row2 = self.kernel.row(i2)
        k11, k22 = self.kernel.diag[i1], self.kernel.diag[i2]
        k12 = row1[i2]
        eta = k11 + k22 - 2.0 * k12
        # u_i excludes the bias; needed for end-point objective evaluation.
        u1 = E1 - self.bias + y1
        u2 = E2 - self.bias + y2
        if eta > 0:
            a2_new = a2 + y2 * (E1 - E2) / eta
            a2_new = min(max(a2_new, L), H)
        else:
            v1 = u1 - y1 * a1 * k11 - y2 * a2 * k12
            v2 = u2 - y1 * a1 * k12 - y2 * a2 * k22
            obj_l = self._objective_at(
                i1, i2, a1 + s * (a2 - L), L, k11, k12, k22, v1, v2
            )
            obj_h = self._objective_at(
                i1, i2, a1 + s * (a2 - H), H, k11, k12, k22, v1, v2
            )
            if obj_l > obj_h + _STEP_EPS:
                a2_new = L
            elif obj_h > obj_l + _STEP_EPS:
                a2_new = H
            else:
                a2_new = a2
        if abs(a2_new - a2) < _STEP_EPS * (a2_new + a2 + _STEP_EPS):
            return False
        a1_new = a1 + s * (a2 - a2_new)
        a1_new = min(max(a1_new, 0.0), C)

        d1 = y1 * (a1_new - a1)
        d2 = y2 * (a2_new - a2)
        delta_obj = (
            (a1_new - a1) + (a2_new - a2)
            - d1 * u1 - d2 * u2
            - 0.5 * (d1 * d1 * k11 + d2 * d2 * k22 + 2.0 * d1 * d2 * k12)
        )
        if delta_obj < -1e-9 * max(1.0, abs(self.objective)):
            raise SvmError(
                f"dual objective decreased by {delta_obj} at step ({i1},{i2})"
            )
        self.objective += delta_obj

        b1 = self.bias - E1 - d1 * k11 - d2 * k12
        b2 = self.bias - E2 - d1 * k12 - d2 * k22
        if 0.0 < a1_new < C:
            b_new = b1
        elif 0.0 < a2_new < C:
            b_new = b2
        else:
            b_new = (b1 + b2) / 2.0
        self.errors += d1 * row1 + d2 * row2 + (b_new - self.bias)
        self.alpha[i1] = a1_new
        self.alpha[i2] = a2_new
        self.bias = b_new
        return True

    def _non_bound(self) -> np.ndarray:
        eps = self.config.alpha_epsilon
        return np.nonzero(
            (self.alpha > eps) & (self.alpha < self.config.C - eps)
        )[0]

    def _rotated(self, indices: np.ndarray, start: int) -> np.ndarray:
        pos = int(np.searchsorted(indices, start))
        return np.concatenate((indices[pos:], indices[:pos]))

    def examine(self, i2: int) -> int:
        y2 = self.y[i2]
        a2 = self.alpha[i2]
        E2 = self.errors[i2]
        r2 = E2 * y2
        tol = self.config.kkt_tolerance
        C = self.config.C
        if not ((r2 < -tol and a2 < C) or (r2 > tol and a2 > 0)):
            return 0
        non_bound = self._non_bound()
        if len(non_bound) > 1:
            i1 = int(non_bound[np.argmax(np.abs(self.errors[non_bound] - E2))])
            if self.take_step(i1, i2):
                return 1
        start = (i2 + 1) % self.n
        for i1 in self._rotated(non_bound, start):
            if self.take_step(int(i1), i2):
                return 1
        for i1 in self._rotated(np.arange(self.n), start):
            if self.take_step(int(i1), i2):
                return 1
        return 0

    def solve(self) -> tuple[bool, int]:
        examine_all = True
        passes = 0
        while passes < self.config.max_passes:
            passes += 1
            if examine_all:
                targets = range(self.n)
            else:
                targets = self._non_bound()
            changed = 0
            for i in targets:
                changed += self.examine(int(i))
            if examine_all:
                if changed == 0:
                    self._finalize_bias()
                    return True, passes
                examine_all = False
            elif changed == 0:
                examine_all = True
        self._finalize_bias()
        return False, passes

    def _finalize_bias(self):
        # The running bias comes from the last joint step; when every support
        # vector sits at the box bound it can fall outside the interval the
        # KKT conditions allow. Recompute it from that interval: the mean
        # over free support vectors when any exist, else the midpoint.
        eps = self.config.alpha_epsilon
        C = self.config.C
        u = self.errors - self.bias + self.y  # decision values without bias
        on_margin_bias = self.y - u
        free = (self.alpha > eps) & (self.alpha < C - eps)
        if free.any():
            self.bias = float(on_margin_bias[free].mean())
            return
        at_zero = self.alpha <= eps
        at_c = self.alpha >= C - eps
        lower = (at_zero & (self.y > 0)) | (at_c & (self.y < 0))
        upper = (at_zero & (self.y < 0)) | (at_c & (self.y > 0))
        b_lo = float(on_margin_bias[lower].max()) if lower.any() else None
        b_hi = float(on_margin_bias[upper].min()) if upper.any() else None
        if b_lo is not None and b_hi is not None:
            self.bias = (b_lo + b_hi) / 2.0
        elif b_lo is not None:
            self.bias = b_lo
        elif b_hi is not None:
            self.bias = b_hi


def train_smo(vectors, labels, config: TrainConfig, doc_ids=None) -> SvmModel:
    """Train on sparse vectors with +1/-1 labels.

    Raises for empty or single-class input. The returned model reports
    whether training converged (a full pass with zero multiplier changes)
    or hit max_passes.
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

    dim = 0
    for vec in vectors:
        if vec.entries:
            dim = max(dim, vec.entries[-1][0] + 1)
    X = _to_dense(vectors, dim)
    y = np.array(labels, dtype=float)
    solver = _SmoSolver(X, y, config)
    converged, passes = solver.solve()
    if not converged:
        logger.warning("SMO hit max_passes=%d before converging", config.max_passes)

    keep = [i for i in range(len(vectors)) if solver.alpha[i] > config.alpha_epsilon]
    return SvmModel(
        alphas=tuple(float(solver.alpha[i]) for i in keep),
        sv_labels=tuple(int(labels[i]) for i in keep),
        sv_vectors=tuple(vectors[i] for i in keep),
        sv_doc_ids=tuple(doc_ids[i] for i in keep),
        bias=float(solver.bias),
        config=config,
        dim=dim,
        feature_tag=feature_tag,
        converged=converged,
        passes=passes,
        objective=float(solver.objective),
    )


def predict(model: SvmModel, x: SparseVector) -> Prediction:
    """Signed decision value and label for one vector."""
    if (
        model.feature_tag is not None
        and x.feature_tag is not None
        and model.feature_tag != x.feature_tag
    ):
        raise SvmError("vector was built against a different feature set")
    score = model.bias
    for alpha, label, sv in zip(model.alphas, model.sv_labels, model.sv_vectors):
        score += alpha * label * kernel_eval(model.config, x, sv)
    return Prediction(score=score, label=1 if score > 0 else -1)


def weight_vector(model: SvmModel) -> np.ndarray:
    """Explicit normal vector of the separating plane (linear kernel only)."""
    if model.config.kernel != "linear":
        raise SvmError("weight_vector is defined for the linear kernel only")
    w = np.zeros(model.dim)
    for alpha, label, sv in zip(model.alphas, model.sv_labels, model.sv_vectors):
        for position, weight in sv.entries:
            w[position] += alpha * label * weight
    return w


def decision_scores(model: SvmModel, vectors) -> list[float]:
    """Decision values for many vectors; linear models use the weight vector."""
    if model.config.kernel == "linear":
        w = weight_vector(model)
        scores = []
        for vec in vectors:
            if (
                model.feature_tag is not None
                and vec.feature_tag is not None
                and model.feature_tag != vec.feature_tag
            ):
                raise SvmError("vector was built against a different feature set")
            total = model.bias
            for position, weight in vec.entries:
                if position < model.dim:
                    total += w[position] * weight
            scores.append(total)
        return scores
    return [predict(model, vec).score for vec in vectors]


def support_vectors(model: SvmModel) -> list[tuple[str, float, int]]:
    """(doc_id, alpha, label) for every stored support vector."""
    return list(zip(model.sv_doc_ids, model.alphas, model.sv_labels))


def kkt_violations(vectors, labels, model: SvmModel, doc_ids=None) -> list[float]:
    """Per-example KKT violation magnitudes of a trained model.

    Examples with alpha == 0 must reach margin >= 1, bound examples
    (alpha == C) must not exceed margin 1, and interior ones must sit on
    the margin.
    """
    vectors = list(vectors)
    if doc_ids is None:
        doc_ids = [str(i) for i in range(len(vectors))]
    alpha_by_id = dict(zip(model.sv_doc_ids, model.alphas))
    scores = decision_scores(model, vectors)
    eps = model.config.alpha_epsilon
    C = model.config.C
    violations = []
    for doc_id, label, score in zip(doc_ids, labels, scores):
        alpha = alpha_by_id.get(str(doc_id), 0.0)
        margin = label * score
        if alpha <= eps:
            violations.append(max(0.0, 1.0 - margin))
        elif alpha >= C - eps:
            violations.append(max(0.0, margin - 1.0))
        else:
            violations.append(abs(margin - 1.0))
    return violations


def dual_objective(vectors, labels, alphas, config: TrainConfig) -> float:
    """Value of the dual objective for given multipliers (direct evaluation)."""
    vectors = list(vectors)
    n = len(vectors)
    total = float(sum(alphas))
    for i in range(n):
        if alphas[i] == 0.0:
            continue
        for j in range(n):
            if alphas[j] == 0.0:
                continue
            total -= 0.5 * (
                alphas[i] * alphas[j] * labels[i] * labels[j]
                * kernel_eval(config, vectors[i], vectors[j])
            )
    return total


def model_to_json(model: SvmModel) -> str:
    """Deterministic text dump; round-trips bit-exactly through json."""
    payload = {
        "format": "driftfilter-svm-1",
        "config": {
            "C": model.config.C,
            "kernel": model.config.kernel,
            "gamma": model.config.gamma,
            "kkt_tolerance": model.config.kkt_tolerance,
            "alpha_epsilon": model.config.alpha_epsilon,
            "max_passes": model.config.max_passes,
        },
        "bias": model.bias,
        "dim": model.dim,
        "feature_tag": model.feature_tag,
        "converged": model.converged,
        "passes": model.passes,
        "objective": model.objective,
        "support_vectors": [
            {
                "doc_id": doc_id,
                "label": label,
                "alpha": alpha,
                "entries": [[p, w] for p, w in vec.entries],
                "vector_tag": vec.feature_tag,
            }
            for doc_id, label, alpha, vec in zip(
                model.sv_doc_ids, model.sv_labels, model.alphas, model.sv_vectors
            )
        ],
    }
    return json.dumps(payload, sort_keys=True)


def model_from_json(text: str) -> SvmModel:
    payload = json.loads(text)
    if payload.get("format") != "driftfilter-svm-1":
        raise SvmError(f"unrecognized model dump format: {payload.get('format')!r}")
    config = TrainConfig(**payload["config"])
    svs = payload["support_vectors"]
    return SvmModel(
        alphas=tuple(sv["alpha"] for sv in svs),
        sv_labels=tuple(sv["label"] for sv in svs),
        sv_vectors=tuple(
            SparseVector(
                tuple((int(p), float(w)) for p, w in sv["entries"]),
                sv["vector_tag"],
            )
            for sv in svs
        ),
        sv_doc_ids=tuple(sv["doc_id"] for sv in svs),
        bias=payload["bias"],
        config=config,
        dim=payload["dim"],
        feature_tag=payload["feature_tag"],
        converged=payload["converged"],
        passes=payload["passes"],
        objective=payload["objective"],
    )


def save_model(model: SvmModel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(model_to_json(model))
        handle.write("\n")


def load_model(path) -> SvmModel:
    with open(path, encoding="utf-8") as handle:
        return model_from_json(handle.read())
