"""Independent brute-force implementations used as test oracles.

Everything here is deliberately naive (plain loops, sets, Counters) and kept
separate from the library code paths it checks.
"""

import math
from collections import Counter, deque
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------- k-NN


def oracle_knn(positions, q, k):
    """Query point first, then ascending (squared distance, id)."""
    n = len(positions)
    d2 = []
    for j in range(n):
        dx = positions[q][0] - positions[j][0]
        dy = positions[q][1] - positions[j][1]
        dz = positions[q][2] - positions[j][2]
        d2.append((dx * dx + dy * dy) + dz * dz)
    order = sorted(range(n), key=lambda j: (j != q, d2[j], j))
    return order[:k]


def oracle_knn_table(positions, k, rows=None):
    """The k-NN rows of `rows` (default: every point) by ranking all points,
    the brute-force rule the grid index must reproduce: per row, np.lexsort
    on (id, squared distance) with the query point forced first. Quadratic
    in time and memory, so keep `rows` small on large clouds."""
    pos = np.asarray(positions, dtype=np.float64)
    n = pos.shape[0]
    rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.int64)
    with np.errstate(over="ignore"):
        d = pos[rows, None, :] - pos[None, :, :]
        d2 = (d[:, :, 0] * d[:, :, 0] + d[:, :, 1] * d[:, :, 1]) + d[:, :, 2] * d[:, :, 2]
    d2[np.arange(rows.size), rows] = -1.0
    ids = np.broadcast_to(np.arange(n), d2.shape)
    return np.lexsort((ids, d2), axis=-1)[:, :k]


# ------------------------------------------------------- 3x3 eigensolver


def oracle_eig3(a):
    """Eigenvalues (ascending) of a symmetric 3x3 via the trigonometric
    closed form of the characteristic polynomial."""
    a = np.asarray(a, dtype=np.float64)
    p1 = a[0, 1] ** 2 + a[0, 2] ** 2 + a[1, 2] ** 2
    q = (a[0, 0] + a[1, 1] + a[2, 2]) / 3.0
    if p1 == 0.0:
        return sorted([a[0, 0], a[1, 1], a[2, 2]])
    p2 = (a[0, 0] - q) ** 2 + (a[1, 1] - q) ** 2 + (a[2, 2] - q) ** 2 + 2.0 * p1
    p = math.sqrt(p2 / 6.0)
    b = (a - q * np.eye(3)) / p
    detb = (
        b[0, 0] * (b[1, 1] * b[2, 2] - b[1, 2] * b[2, 1])
        - b[0, 1] * (b[1, 0] * b[2, 2] - b[1, 2] * b[2, 0])
        + b[0, 2] * (b[1, 0] * b[2, 1] - b[1, 1] * b[2, 0])
    )
    r = min(1.0, max(-1.0, detb / 2.0))
    phi = math.acos(r) / 3.0
    lam_max = q + 2.0 * p * math.cos(phi)
    lam_min = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    lam_mid = 3.0 * q - lam_max - lam_min
    return sorted([lam_min, lam_mid, lam_max])


def oracle_nullspace_vector(a, lam):
    """Unit vector v with (a - lam I) v ~ 0, via the largest row cross product."""
    m = np.asarray(a, dtype=np.float64) - lam * np.eye(3)
    best = None
    best_norm = -1.0
    for i in range(3):
        for j in range(i + 1, 3):
            v = np.cross(m[i], m[j])
            nv = float(np.linalg.norm(v))
            if nv > best_norm:
                best_norm = nv
                best = v
    if best_norm <= 0:
        return np.array([0.0, 0.0, 1.0])
    return best / best_norm


def oracle_point_covariance(positions, neighbor_ids):
    pts = [positions[j] for j in neighbor_ids]
    k = len(pts)
    mean = [sum(p[c] for p in pts) / k for c in range(3)]
    cov = np.zeros((3, 3))
    for p in pts:
        d = [p[c] - mean[c] for c in range(3)]
        for i in range(3):
            for j in range(3):
                cov[i, j] += d[i] * d[j]
    return cov / k


# -------------------------------------------------------- region growing


def oracle_grow_geometric(positions, normals, curvatures, cfg):
    """Returns (groups, unclustered) as sorted lists, mirroring the documented
    growth rules with plain python data structures."""
    n = len(positions)
    knn = [oracle_knn(positions, i, cfg.k_grow) for i in range(n)]
    cos_t = math.cos(cfg.t_ang)
    membership = [-1] * n
    raw_groups = []
    while True:
        seed = None
        for i in range(n):
            if membership[i] == -1 and (seed is None or curvatures[i] < curvatures[seed]):
                seed = i
        if seed is None or curvatures[seed] >= cfg.t_cvt:
            break
        gid = len(raw_groups)
        members = [seed]
        membership[seed] = gid
        queue = deque([seed])
        while queue:
            s = queue.popleft()
            for nb in knn[s]:
                if membership[nb] != -1:
                    continue
                dot = abs(
                    normals[s][0] * normals[nb][0]
                    + normals[s][1] * normals[nb][1]
                    + normals[s][2] * normals[nb][2]
                )
                if dot > cos_t:
                    membership[nb] = gid
                    members.append(nb)
                    if curvatures[nb] < cfg.t_cvt:
                        queue.append(nb)
        raw_groups.append(members)
    groups = [sorted(g) for g in raw_groups if len(g) >= cfg.min_cluster]
    clustered = set()
    for g in groups:
        clustered.update(g)
    unclustered = sorted(set(range(n)) - clustered)
    return groups, unclustered


def oracle_grow_color(positions, colors255, cfg):
    """Growth vs the admitting seed's color, mean-color merge to fixpoint
    (first ascending pair each round), then the small-cluster fold."""
    n = len(positions)
    knn = [oracle_knn(positions, i, cfg.k_grow) for i in range(n)]
    membership = [-1] * n
    gid = 0
    for start in range(n):
        if membership[start] != -1:
            continue
        membership[start] = gid
        queue = deque([start])
        while queue:
            s = queue.popleft()
            for nb in knn[s]:
                if membership[nb] != -1:
                    continue
                d = math.sqrt(
                    (colors255[s][0] - colors255[nb][0]) ** 2
                    + (colors255[s][1] - colors255[nb][1]) ** 2
                    + (colors255[s][2] - colors255[nb][2]) ** 2
                )
                if d < cfg.t_clr:
                    membership[nb] = gid
                    queue.append(nb)
        gid += 1

    clusters = {}
    for i in range(n):
        clusters.setdefault(membership[i], []).append(i)

    def adjacency():
        pairs = set()
        for i in range(n):
            for j in knn[i]:
                a, b = membership[i], membership[j]
                if a != b:
                    pairs.add((min(a, b), max(a, b)))
        return sorted(pairs)

    def mean(g):
        pts = clusters[g]
        return [sum(colors255[i][c] for i in pts) / len(pts) for c in range(3)]

    def absorb(src, dst):
        for i in clusters[src]:
            membership[i] = dst
        clusters[dst].extend(clusters[src])
        del clusters[src]

    while True:
        merged = False
        for a, b in adjacency():
            ma, mb = mean(a), mean(b)
            if math.sqrt(sum((ma[c] - mb[c]) ** 2 for c in range(3))) < cfg.t_merge:
                absorb(b, a)
                merged = True
                break
        if not merged:
            break

    while True:
        adj = {}
        for a, b in adjacency():
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        small = [g for g in clusters if len(clusters[g]) < cfg.min_cluster and g in adj]
        if not small:
            break
        g = min(small, key=lambda g: (len(clusters[g]), g))
        mg = mean(g)
        target = min(
            sorted(adj[g]),
            key=lambda h: (sum((mean(h)[c] - mg[c]) ** 2 for c in range(3)), h),
        )
        absorb(g, target)

    groups = sorted((sorted(v) for v in clusters.values()), key=lambda g: g[0])
    return groups


def oracle_merge_partitions(geo_groups, geo_unclustered, color_groups):
    inter = []
    for ga in geo_groups:
        sa = set(ga)
        for gb in color_groups:
            s = sorted(sa & set(gb))
            if s:
                inter.append(s)
    inter.sort(key=lambda g: g[0])
    return inter, sorted(geo_unclustered)


# ---------------------------------------------------------------- labels


def oracle_plo(groups, n, labels, num_classes, t_plo):
    ratio = Fraction(t_plo)
    out = [-1] * n
    for members in groups:
        cnt = Counter(labels[i] for i in members if labels[i] >= 0)
        if not cnt:
            continue
        winner = min(cnt, key=lambda c: (-cnt[c], c))
        if cnt[winner] * ratio.denominator > ratio.numerator * len(members):
            for i in members:
                out[i] = winner
    return out


def oracle_edge_labels(positions, geo_membership, color_membership, k_edge):
    n = len(positions)
    out = []
    for i in range(n):
        if geo_membership[i] == -1:
            out.append(True)
            continue
        nbrs = oracle_knn(positions, i, k_edge)
        out.append(any(color_membership[j] != color_membership[i] for j in nbrs))
    return out


# --------------------------------------------------------------- sampler


def oracle_sampler(groups, membership, k, seed):
    n = len(membership)
    raw = np.random.default_rng(seed).integers(0, 2**63, size=(n, k), dtype=np.int64)
    members = {gid: sorted(g) for gid, g in enumerate(groups)}
    out = []
    for i in range(n):
        gid = membership[i]
        if gid < 0:
            out.append([i] * k)
        else:
            mem = members[gid]
            out.append([mem[int(raw[i, j]) % len(mem)] for j in range(k)])
    return np.array(out, dtype=np.int64)


# ---------------------------------------------------------------- losses


def oracle_cross_entropy(x, class_of, mask):
    total = 0.0
    for i in range(len(class_of)):
        if not mask[i]:
            continue
        row = x[i]
        m = max(row)
        lse = m + math.log(sum(math.exp(v - m) for v in row))
        total += lse - row[class_of[i]]
    return total


def oracle_edge_bce(e, is_edge, floor=1e-12):
    total = 0.0
    for i in range(len(is_edge)):
        t = 1.0 if is_edge[i] else 0.0
        for c in range(2):
            total -= t * math.log(max(e[i][c], floor))
            total -= (1.0 - t) * math.log(max(1.0 - e[i][c], floor))
    return total


def oracle_consistency(x, samples, clustered, k):
    total = 0.0
    n, channels = x.shape
    for i in range(n):
        if not clustered[i]:
            continue
        for c in range(channels):
            mean = sum(x[j][c] for j in samples[i]) / k
            total += (x[i][c] - mean) ** 2
    return total


def oracle_matmul(a, b):
    n, k = a.shape
    k2, m = b.shape
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            s = 0.0
            for t in range(k):
                s += a[i, t] * b[t, j]
            out[i, j] = s
    return out


# --------------------------------------------------------------- metrics


def oracle_metrics(truth, pred, num_classes):
    conf = [[0] * num_classes for _ in range(num_classes)]
    for t, p in zip(truth, pred):
        conf[t][p] += 1
    total = sum(sum(row) for row in conf)
    oa = sum(conf[c][c] for c in range(num_classes)) / total * 100.0
    ious, recalls = [], []
    for c in range(num_classes):
        tp = conf[c][c]
        fn = sum(conf[c]) - tp
        fp = sum(conf[r][c] for r in range(num_classes)) - tp
        if tp + fp + fn > 0:
            ious.append(tp / (tp + fp + fn))
        if tp + fn > 0:
            recalls.append(tp / (tp + fn))
    return (
        sum(ious) / len(ious) * 100.0,
        sum(recalls) / len(recalls) * 100.0,
        oa,
    )


# ----------------------------------------------------- finite differences


def finite_difference(fn, vec, h=1e-5):
    vec = np.asarray(vec, dtype=np.float64)
    grad = np.zeros_like(vec)
    for i in range(vec.size):
        up = vec.copy()
        up[i] += h
        down = vec.copy()
        down[i] -= h
        grad[i] = (fn(up) - fn(down)) / (2.0 * h)
    return grad


def relative_errors(analytic, numeric, atol=1e-8):
    """Elementwise relative error, zeroed where the absolute difference is
    below the central-difference noise floor (cancellation on parameters
    whose true gradient is zero would otherwise dominate the ratio)."""
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    numeric = np.asarray(numeric, dtype=np.float64).ravel()
    diff = np.abs(analytic - numeric)
    rel = diff / (np.abs(analytic) + 1e-8)
    rel[diff < atol] = 0.0
    return rel
