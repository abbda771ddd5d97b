"""Independent reference implementations used to check the real ones.

Everything here recomputes results from first principles (plain loops,
direct formula transliterations, generic solvers) without reusing the
library's code paths.
"""

from __future__ import annotations

import math
import re

import numpy as np

from driftfilter.svm import ALPHA_EPSILON


# ---------------------------------------------------------------------------
# Brute-force feature statistics and discriminative-weight ranking


def naive_stats(labeled_docs):
    """Recount term/document occurrences with plain loops.

    `labeled_docs` is a list of (label, tokens) with label "spam"/"legit".
    Returns (per_term, n_spam, n_legit) where per_term maps
    term -> [tf_spam, tf_legit, df_spam, df_legit].
    """
    per_term: dict[str, list[int]] = {}
    n_spam = n_legit = 0
    for label, tokens in labeled_docs:
        if label == "spam":
            n_spam += 1
        else:
            n_legit += 1
        seen = set()
        for token in tokens:
            cell = per_term.setdefault(token, [0, 0, 0, 0])
            if label == "spam":
                cell[0] += 1
            else:
                cell[1] += 1
            if token not in seen:
                if label == "spam":
                    cell[2] += 1
                else:
                    cell[3] += 1
                seen.add(token)
    return per_term, n_spam, n_legit


def naive_dmw(tf_s, tf_l, df_s, df_l, n_s, n_l):
    """Direct transliteration of the discriminative-weight formula."""
    if df_s / n_s > df_l / n_l:
        product = (df_s / n_s) * (n_l / (df_l if df_l > 0 else 0.5))
    else:
        product = (df_l / n_l) * (n_s / (df_s if df_s > 0 else 0.5))
    return abs(tf_s - tf_l) * product


def naive_top_n(labeled_docs, n):
    """Full scoring and sort; returns [(term, weight)] of the top n."""
    per_term, n_s, n_l = naive_stats(labeled_docs)
    scored = [
        (term, naive_dmw(*cell, n_s, n_l)) for term, cell in per_term.items()
    ]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:n]


# ---------------------------------------------------------------------------
# Contingency-table scores for the baseline selectors


def naive_contingency(labeled_docs, term):
    a = b = c = d = 0
    for label, tokens in labeled_docs:
        present = term in tokens
        if label == "spam":
            if present:
                a += 1
            else:
                c += 1
        else:
            if present:
                b += 1
            else:
                d += 1
    return a, b, c, d


def _h(probs):
    return -sum(p * math.log2(p) for p in probs if p > 0)


def naive_baseline(labeled_docs, term, method):
    a, b, c, d = naive_contingency(labeled_docs, term)
    n = a + b + c + d
    ig = 0.0
    for joint, row, col in (
        (a, a + b, a + c), (b, a + b, b + d),
        (c, c + d, a + c), (d, c + d, b + d),
    ):
        if joint > 0:
            ig += (joint / n) * math.log2(joint * n / (row * col))
    if method == "ig":
        return ig
    if method == "chi":
        denom = (a + b) * (c + d) * (a + c) * (b + d)
        return n * (a * d - c * b) ** 2 / denom if denom else 0.0
    if method == "gini":
        ns, nl, present = a + c, b + d, a + b
        value = 0.0
        if ns and present:
            value += (a / ns) ** 2 * (a / present) ** 2
        if nl and present:
            value += (b / nl) ** 2 * (b / present) ** 2
        return value
    if method == "igr":
        h_term = _h(((a + b) / n, (c + d) / n))
        return ig / h_term if h_term > 0 else 0.0
    if method == "cfs":
        denom = _h(((a + c) / n, (b + d) / n)) + _h(((a + b) / n, (c + d) / n))
        return 2 * ig / denom if denom > 0 else 0.0
    raise ValueError(method)


# ---------------------------------------------------------------------------
# Projected-gradient ascent on the SVM dual


def _project(v, y, C):
    """Project onto {0 <= a <= C, y.a = 0}.

    The shifted point clip(v - lam*y, 0, C) has a piecewise-linear,
    nonincreasing constraint value g(lam) = y.a(lam); the exact root is
    found by evaluating g at every kink and interpolating the crossing
    segment.
    """
    pos, neg = v[y > 0], v[y < 0]
    breaks = np.unique(np.concatenate((pos, pos - C, -neg, C - neg)))
    clipped = np.clip(v[None, :] - breaks[:, None] * y[None, :], 0.0, C)
    g = clipped @ y
    if g[0] <= 0.0:
        lam = breaks[0]
    elif g[-1] >= 0.0:
        lam = breaks[-1]
    else:
        idx = int(np.argmax(g <= 0.0))
        g0, g1 = g[idx - 1], g[idx]
        b0, b1 = breaks[idx - 1], breaks[idx]
        lam = b0 if g0 == g1 else b0 + (b1 - b0) * g0 / (g0 - g1)
    return np.clip(v - lam * y, 0.0, C)


def qp_dual_solve(K, y, C, iters=60000, tol=1e-12):
    """Maximize sum(a) - 0.5 a'Qa over the box and equality constraint.

    Plain projected-gradient ascent with a fixed 1/L step; iterates until
    the objective stalls or the budget runs out. Returns (alpha, objective).
    """
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    Q = K * np.outer(y, y)
    eigs = np.linalg.eigvalsh(Q)
    step = 1.0 / max(float(eigs[-1]), 1e-12)
    alpha = np.zeros(len(y))

    def objective(a):
        return float(a.sum() - 0.5 * a @ Q @ a)

    best = objective(alpha)
    stall = 0
    for _ in range(iters):
        grad = 1.0 - Q @ alpha
        alpha = _project(alpha + step * grad, y, C)
        value = objective(alpha)
        if value - best < tol:
            stall += 1
            if stall >= 50:
                break
        else:
            stall = 0
        best = max(best, value)
    return alpha, objective(alpha)


def qp_bias(K, y, alpha, C, eps=1e-6):
    """Bias from the margin condition of free support vectors."""
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    u = K @ (alpha * y)
    free = (alpha > eps) & (alpha < C - eps)
    if free.any():
        return float(np.mean(y[free] - u[free]))
    # no free SVs: take the midpoint of the feasible interval for b
    values = y - u
    return float((values.max() + values.min()) / 2.0)


def qp_scores(X_train, y, alpha, bias, X_eval):
    """Linear-kernel decision values of the oracle solution."""
    w = (alpha * y) @ X_train
    return X_eval @ w + bias


# ---------------------------------------------------------------------------
# The SMO pair-step loop, one numpy pass per quantity


def wss2_reference(row, diag, y, config):
    """Second-order working-set SMO in its plain form: the full score vector,
    `np.where` masks of I_up and I_low rebuilt every step, numpy scalars
    throughout. `svm.train_smo` must give the same model bit for bit.

    `row(i)` returns kernel row i, `diag` the kernel diagonal and `y` the
    +1/-1 labels as floats. Returns (alpha, bias, objective, passes,
    converged) for the same stop rule and step cap as `svm.train_smo`.
    """
    C, n, tau = config.C, len(y), 1e-12
    alpha = np.zeros(n)
    score = y.copy()
    objective = 0.0
    up = y > 0
    low = ~up
    stop = config.kkt_tolerance * (1.0 - 1e-9)
    steps = 0
    while True:
        up_scores = np.where(up, score, -np.inf)
        i = int(up_scores.argmax())
        m = up_scores[i]
        low_scores = np.where(low, score, np.inf)
        M = low_scores.min()
        converged = m - M < stop
        if converged or steps >= config.max_passes * n:
            break
        row_i = row(i)
        gain = m - low_scores
        curvature = diag[i] + diag - 2.0 * row_i
        curvature[curvature <= 0.0] = tau
        j = int(np.where(gain > 0.0, gain * gain / curvature, -np.inf).argmax())
        b = m - score[j]
        a = diag[i] + diag[j] - 2.0 * row_i[j]
        room_i = C - alpha[i] if y[i] > 0 else alpha[i]
        room_j = alpha[j] if y[j] > 0 else C - alpha[j]
        t = min(b / (a if a > 0.0 else tau), room_i, room_j)
        objective += t * b - 0.5 * a * t * t
        alpha[i] = (C if y[i] > 0 else 0.0) if t == room_i else alpha[i] + y[i] * t
        alpha[j] = (0.0 if y[j] > 0 else C) if t == room_j else alpha[j] - y[j] * t
        score -= t * (row_i - row(j))
        for k in (i, j):
            up[k] = alpha[k] < C if y[k] > 0 else alpha[k] > 0.0
            low[k] = alpha[k] > 0.0 if y[k] > 0 else alpha[k] < C
        steps += 1
    free = (alpha > 0.0) & (alpha < C)
    bias = float(score[free].mean()) if free.any() else float(m + M) / 2.0
    return alpha, bias, float(objective), -(-steps // n), bool(converged)


# ---------------------------------------------------------------------------
# SVM kernel, dual objective and KKT conditions, one pair at a time


def entries(vector):
    """(position, weight) pairs of a sparse vector, as Python numbers."""
    return tuple(zip(vector.positions.tolist(), vector.weights.tolist()))


def kernel_eval(config, x, y):
    """Kernel value of two sparse vectors from their (position, weight) pairs:
    the dot product, or exp(-gamma * squared distance) for rbf."""
    xs, ys = dict(entries(x)), dict(entries(y))
    if config.kernel == "linear":
        return sum(w * ys[p] for p, w in xs.items() if p in ys)
    distance = sum(
        (xs.get(p, 0.0) - ys.get(p, 0.0)) ** 2 for p in set(xs) | set(ys)
    )
    return math.exp(-config.gamma * distance)


def dual_objective(vectors, labels, alphas, config):
    """sum(a) - 1/2 sum_ij a_i a_j y_i y_j K(x_i, x_j), term by term."""
    total = float(sum(alphas))
    for a_i, y_i, x_i in zip(alphas, labels, vectors):
        for a_j, y_j, x_j in zip(alphas, labels, vectors):
            if a_i and a_j:
                total -= 0.5 * a_i * a_j * y_i * y_j * kernel_eval(config, x_i, x_j)
    return total


def svm_score(model, x):
    """bias + sum over support vectors of alpha * y * K(sv, x)."""
    score = model.bias
    for alpha, label, sv in zip(model.alphas, model.sv_labels, model.sv_vectors):
        score += alpha * label * kernel_eval(model.config, sv, x)
    return score


def kkt_violations(vectors, labels, model):
    """Per-example KKT violation of a model trained on `vectors`.

    An example with alpha == 0 must reach margin >= 1, a bound one
    (alpha == C) must not exceed margin 1, and a free one must sit on it.
    Multipliers are looked up by position in the training input.
    """
    alpha_by_index = dict(zip(model.sv_indices, model.alphas))
    eps, C = ALPHA_EPSILON, model.config.C
    violations = []
    for i, (label, x) in enumerate(zip(labels, vectors)):
        alpha = alpha_by_index.get(i, 0.0)
        margin = label * svm_score(model, x)
        if alpha <= eps:
            violations.append(max(0.0, 1.0 - margin))
        elif alpha >= C - eps:
            violations.append(max(0.0, margin - 1.0))
        else:
            violations.append(abs(margin - 1.0))
    return violations


# ---------------------------------------------------------------------------
# Trapezoidal and pairwise-comparison AUC


def auc(points):
    """Trapezoidal area under a (fpr, tpr) point sequence."""
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def wilcoxon_auc(scores, truths):
    pos = [s for s, t in zip(scores, truths) if t == 1]
    neg = [s for s, t in zip(scores, truths) if t != 1]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# Porter's stemmer, one character test and one suffix test at a time

_PORTER_VOWELS = "aeiou"

# (suffix, replacement) pairs, longest suffix first within each step; the
# first suffix a word ends with consumes the step, whether or not its
# measure condition lets the rewrite fire.
_PORTER_STEP2 = (
    ("ational", "ate"), ("ization", "ize"), ("iveness", "ive"),
    ("fulness", "ful"), ("ousness", "ous"),
    ("tional", "tion"), ("biliti", "ble"),
    ("ation", "ate"), ("alism", "al"), ("aliti", "al"),
    ("iviti", "ive"), ("ousli", "ous"), ("entli", "ent"),
    ("enci", "ence"), ("anci", "ance"), ("izer", "ize"),
    ("abli", "able"), ("alli", "al"), ("ator", "ate"),
    ("eli", "e"),
)
_PORTER_STEP3 = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ness", ""), ("ful", ""),
)
_PORTER_STEP4 = (
    "ement",
    "ance", "ence", "able", "ible", "ment",
    "ant", "ent", "ion", "ism", "ate", "iti", "ous", "ive", "ize",
    "al", "er", "ic", "ou",
)


def _porter_consonant(word, i):
    ch = word[i]
    if ch in _PORTER_VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _porter_consonant(word, i - 1)
    return True


def _porter_measure(stem):
    """Count VC sequences: the m of [C](VC){m}[V]."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        vowel = not _porter_consonant(stem, i)
        if prev_vowel and not vowel:
            m += 1
        prev_vowel = vowel
    return m


def _porter_has_vowel(stem):
    return any(not _porter_consonant(stem, i) for i in range(len(stem)))


def _porter_ends_double_consonant(word):
    return (len(word) >= 2 and word[-1] == word[-2]
            and _porter_consonant(word, len(word) - 1))


def _porter_ends_cvc(word):
    """The *o condition: ends consonant-vowel-consonant, last not w/x/y."""
    if len(word) < 3:
        return False
    return (_porter_consonant(word, len(word) - 3)
            and not _porter_consonant(word, len(word) - 2)
            and _porter_consonant(word, len(word) - 1)
            and word[-1] not in "wxy")


def _porter_replace_if(word, suffix, replacement, min_measure):
    stem = word[: len(word) - len(suffix)]
    if _porter_measure(stem) > min_measure:
        return stem + replacement
    return word


def _porter_step1b(word):
    if word.endswith("eed"):
        return _porter_replace_if(word, "eed", "ee", 0)
    if word.endswith("ed") and _porter_has_vowel(word[:-2]):
        word = word[:-2]
    elif word.endswith("ing") and _porter_has_vowel(word[:-3]):
        word = word[:-3]
    else:
        return word
    if word.endswith(("at", "bl", "iz")):
        return word + "e"
    if _porter_ends_double_consonant(word) and word[-1] not in "lsz":
        return word[:-1]
    if _porter_measure(word) == 1 and _porter_ends_cvc(word):
        return word + "e"
    return word


def _porter_step2or3(rules, word):
    for suffix, replacement in rules:
        if word.endswith(suffix):
            return _porter_replace_if(word, suffix, replacement, 0)
    return word


def _porter_step4(word):
    for suffix in _PORTER_STEP4:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if suffix == "ion" and (not stem or stem[-1] not in "st"):
                return word
            return stem if _porter_measure(stem) > 1 else word
    return word


def porter_reference(word):
    """Porter's five steps (Program 14, 1980) as published: every condition
    tested character by character, every suffix by a scan of its step's
    rules. `porter.stem` must return the same string for every input."""
    if len(word) <= 2:
        return word
    if word.endswith(("sses", "ies")):
        word = word[:-2]
    elif word.endswith("s") and not word.endswith("ss"):
        word = word[:-1]
    word = _porter_step1b(word)
    if word.endswith("y") and _porter_has_vowel(word[:-1]):
        word = word[:-1] + "i"
    word = _porter_step2or3(_PORTER_STEP2, word)
    word = _porter_step2or3(_PORTER_STEP3, word)
    word = _porter_step4(word)
    if word.endswith("e"):
        m = _porter_measure(word[:-1])
        if m > 1 or (m == 1 and not _porter_ends_cvc(word[:-1])):
            word = word[:-1]
    if word.endswith("ll") and _porter_measure(word) > 1:
        word = word[:-1]
    return word


# ---------------------------------------------------------------------------
# Text preprocessing, one word at a time and without memos


def tokenize_reference(text):
    """Runs of at least two ASCII letters or digits in the lowercased text,
    found by a regex; all-digit runs are dropped."""
    return [t for t in re.findall(r"[a-z0-9]{2,}", text.lower()) if not t.isdigit()]


def preprocess_reference(text, stoplist):
    """Tokenize, drop stop words, apply Porter until a fixed point, and drop
    stems that are short, all digits or stop words."""
    out = []
    for word in tokenize_reference(text):
        if word in stoplist:
            continue
        while (stem := porter_reference(word)) != word:
            word = stem
        if len(word) >= 2 and not word.isdigit() and word not in stoplist:
            out.append(word)
    return out
