"""Independent brute-force oracles for the test suite.

Everything here is written straight from definitions with plain loops and no
code shared with the package implementations, so agreement between the two
is meaningful.
"""

import numpy as np


# --- multi-label metrics, naive loops ----------------------------------------


def ranking_loss_oracle(scores, labels):
    losses = []
    for s, y in zip(scores, labels):
        rel = [j for j in range(len(y)) if y[j] == 1]
        irr = [j for j in range(len(y)) if y[j] == 0]
        if not rel or not irr:
            continue
        bad = 0.0
        for r in rel:
            for i in irr:
                if s[i] > s[r]:
                    bad += 1.0
                elif s[i] == s[r]:
                    bad += 0.5
        losses.append(bad / (len(rel) * len(irr)))
    if not losses:
        raise ValueError("no valid rows")
    return sum(losses) / len(losses)


def hamming_loss_oracle(scores, labels, threshold=0.5):
    wrong = total = 0
    for s, y in zip(scores, labels):
        for sj, yj in zip(s, y):
            total += 1
            if (1.0 if sj > threshold else 0.0) != yj:
                wrong += 1
    return wrong / total


def coverage_oracle(scores, labels):
    depths = []
    for s, y in zip(scores, labels):
        rel = [j for j in range(len(y)) if y[j] == 1]
        if not rel:
            continue
        worst = 0
        for r in rel:
            rank = sum(1 for v in s if v > s[r]) + sum(1 for v in s if v == s[r])
            worst = max(worst, rank)
        depths.append(worst)
    if not depths:
        raise ValueError("no valid rows")
    return sum(depths) / len(depths)


def map_oracle(scores, labels):
    aps = []
    n, c = np.asarray(scores).shape
    for col in range(c):
        s = [scores[i][col] for i in range(n)]
        y = [labels[i][col] for i in range(n)]
        pos = [i for i in range(n) if y[i] == 1]
        if not pos:
            continue
        precs = []
        for i in pos:
            rank = sum(1 for v in s if v > s[i]) + sum(1 for v in s if v == s[i])
            hits = sum(1 for j in pos if s[j] > s[i]) + sum(1 for j in pos if s[j] == s[i])
            precs.append(hits / rank)
        aps.append(sum(precs) / len(precs))
    if not aps:
        raise ValueError("no valid classes")
    return sum(aps) / len(aps)


def macro_auc_oracle(scores, labels):
    aucs = []
    n, c = np.asarray(scores).shape
    for col in range(c):
        pos = [scores[i][col] for i in range(n) if labels[i][col] == 1]
        neg = [scores[i][col] for i in range(n) if labels[i][col] == 0]
        if not pos or not neg:
            continue
        good = 0.0
        for p in pos:
            for q in neg:
                if p > q:
                    good += 1.0
                elif p == q:
                    good += 0.5
        aucs.append(good / (len(pos) * len(neg)))
    if not aucs:
        raise ValueError("no valid classes")
    return sum(aucs) / len(aucs)


def macro_gbeta_oracle(scores, labels, beta=2.0, threshold=0.5):
    values = []
    n, c = np.asarray(scores).shape
    for col in range(c):
        tp = fp = fn = 0
        for i in range(n):
            pred = scores[i][col] > threshold
            truth = labels[i][col] == 1
            if pred and truth:
                tp += 1
            elif pred and not truth:
                fp += 1
            elif not pred and truth:
                fn += 1
        denom = tp + fn + beta * fp
        values.append(tp / denom if denom > 0 else 0.0)
    return sum(values) / len(values)


METRIC_ORACLES = {
    "ranking_loss": ranking_loss_oracle,
    "hamming_loss": hamming_loss_oracle,
    "coverage": coverage_oracle,
    "map": map_oracle,
    "macro_auc": macro_auc_oracle,
    "macro_gbeta": macro_gbeta_oracle,
}


# --- rank statistics ----------------------------------------------------------


def rank_models_oracle(values, higher_is_better):
    """Tie-averaged ranks per row, 1 = best: (#strictly better + #at least as good + 1) / 2."""
    ranks = []
    for row in values:
        out = []
        for v in row:
            if higher_is_better:
                better = sum(1 for w in row if w > v)
                as_good = sum(1 for w in row if w >= v)
            else:
                better = sum(1 for w in row if w < v)
                as_good = sum(1 for w in row if w <= v)
            out.append((better + as_good + 1) / 2)
        ranks.append(out)
    return np.array(ranks, dtype=float)


# --- network forward, straight-line re-evaluation -----------------------------


def forward_oracle(cfg, params, batch):
    """Re-evaluates the network with explicit loops over layers."""
    a = np.asarray(batch, dtype=float)
    ne = len(cfg.hidden_dims) + 1
    features = None
    for idx, (w, b) in enumerate(params):
        z = np.dot(a, w) + b
        if idx < ne - 1:
            a = np.tanh(z) if cfg.activation == "tanh" else np.where(z > 0, z, 0.0)
        elif idx == ne - 1:
            features = z
            a = z
        elif idx < len(params.layers) - 1:
            a = np.tanh(z) if cfg.activation == "tanh" else np.where(z > 0, z, 0.0)
        else:
            a = z
    probs = 1.0 / (1.0 + np.exp(-a))
    return features, probs


# --- finite differences --------------------------------------------------------


def finite_difference_grads(loss_fn, params, h=1e-5):
    """Central differences of a scalar loss over every parameter entry."""
    grads = params.zeros_like()
    for li in range(len(params.layers)):
        for gi in (0, 1):
            arr = params.layers[li][gi]
            out = grads.layers[li][gi]
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                plus = params.copy()
                minus = params.copy()
                plus.layers[li][gi][idx] += h
                minus.layers[li][gi][idx] -= h
                out[idx] = (loss_fn(plus) - loss_fn(minus)) / (2.0 * h)
    return grads


def max_relative_error(analytic, numeric, floor=1e-8):
    worst = 0.0
    for (aw, ab), (nw, nb) in zip(analytic, numeric):
        for a, n in ((aw, nw), (ab, nb)):
            denom = np.maximum(floor, np.abs(a) + np.abs(n))
            worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


# --- knn -----------------------------------------------------------------------


def knn_oracle(bank_features, bank_predictions, query, k, distance):
    """Exhaustive sort with explicit per-row distances; lower index wins ties."""
    dists = []
    for i, row in enumerate(bank_features):
        if distance == "euclidean":
            d = float(np.sqrt(np.sum((row - query) ** 2)))
        else:
            nr = np.linalg.norm(row)
            nq = np.linalg.norm(query)
            r = row / nr if nr > 0 else row
            q = query / nq if nq > 0 else query
            d = 1.0 - float(np.dot(r, q))
        dists.append((d, i))
    dists.sort(key=lambda t: (t[0], t[1]))
    return [(i, bank_predictions[i]) for _, i in dists[:k]]


# --- conditional co-occurrence from counts --------------------------------------


def conditional_cooccurrence_oracle(labels, c1, c2):
    n1 = n2 = both = 0
    for row in labels:
        if row[c1] == 1:
            n1 += 1
        if row[c2] == 1:
            n2 += 1
        if row[c1] == 1 and row[c2] == 1:
            both += 1
    if n1 == 0 or n2 == 0:
        return 0.0
    return float(np.sqrt((both / n2) * (both / n1)))
