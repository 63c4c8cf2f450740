"""Independent reference implementations used to check the library.

Everything here is deliberately naive: explicit loops, textbook normal
equations, subspace iteration.  None of it shares code with the package
paths it validates.
"""

import numpy as np


def naive_weighted_cost(A, W, U, V):
    """Two-loop evaluation of sum_ij W_ij^2 (U V^T - A)_ij^2."""
    n, m = A.shape
    total = 0.0
    for i in range(n):
        for j in range(m):
            pred = float(np.dot(U[i], V[j]))
            total += (W[i, j] * (pred - A[i, j])) ** 2
    return total


def brute_force_groups(M, axis="rows", tolerance=0.0):
    """First-match representative scan, quadratic and explicit."""
    vecs = M if axis == "rows" else M.T
    reps = []
    group_of = []
    for i in range(vecs.shape[0]):
        hit = -1
        for g, rep in enumerate(reps):
            if np.all(np.abs(vecs[rep] - vecs[i]) <= tolerance):
                hit = g
                break
        if hit < 0:
            hit = len(reps)
            reps.append(i)
        group_of.append(hit)
    return np.asarray(group_of), np.asarray(reps)


def brute_force_instance(A, W):
    """The four partitions {name: (group_of, representatives)} and two grids of (A, W).

    A row (column) of W*A is grouped together with its row (column) of W,
    so the refined partitions refine the weight ones.
    """
    WA = W * A
    parts = {"w_rows": brute_force_groups(W, "rows"),
             "w_cols": brute_force_groups(W, "cols"),
             "wa_rows": brute_force_groups(np.hstack([W, WA]), "rows"),
             "wa_cols": brute_force_groups(np.vstack([W, WA]), "cols")}
    weights = W[np.ix_(parts["w_rows"][1], parts["w_cols"][1])]
    targets = WA[np.ix_(parts["wa_rows"][1], parts["wa_cols"][1])]
    return parts, weights, targets


def rowwise_weighted_lstsq(A, W, V):
    """Per-row weighted least squares via explicit normal equations.

    Row i of the result minimizes sum_j W_ij^2 (u . V_j - A_ij)^2.
    """
    n, k = A.shape[0], V.shape[1]
    U = np.zeros((n, k))
    for i in range(n):
        w2 = W[i] ** 2
        gram = V.T @ (w2[:, None] * V)
        rhs = V.T @ (w2 * A[i])
        U[i] = np.linalg.solve(gram, rhs)
    return U


def lstsq_grid_rows(system, gv, S, rcond):
    """A row half-sweep on a grid system by np.linalg.lstsq, one refined row at a time.

    Member i of the system, refined row group system.order[i], solves
    min || design^T x - target ||_2 with design the k x Gc matrix gv.rows.T
    scaled by the weight row of its parent group, and target row i of
    system.targets, both times S^T when S is given.  Returns the rows in
    wa_rows order.
    """
    Z = gv.rows.T
    out = np.empty((system.wa_rows.num_groups, Z.shape[0]))
    for g, parent, target in zip(system.order, system.parents, system.targets):
        design = Z * system.weights[parent]
        if S is not None:
            design, target = design @ S.T, S @ target
        out[g] = np.linalg.lstsq(design.T, target, rcond=rcond)[0]
    return out


def min_norm_solve(design, target, rcond):
    """Minimum-norm x minimizing || design^T x - target ||_2 by np.linalg.pinv.

    Singular values of design at or below rcond times its largest count as
    zero, so an all-zero design gives x = 0.
    """
    return np.linalg.pinv(design.T, rcond=rcond) @ target


def triple_loop_matmul(X, Y):
    """Explicit O(n^3) matrix product."""
    n, m = X.shape
    m2, q = Y.shape
    assert m == m2
    out = np.zeros((n, q))
    for i in range(n):
        for j in range(q):
            s = 0.0
            for t in range(m):
                s += X[i, t] * Y[t, j]
            out[i, j] = s
    return out


def power_iteration_rank_k_residual(A, k, iters=500, seed=0, tol=1e-13):
    """Squared Frobenius distance from A to its best rank-k approximation.

    Subspace iteration on A A^T with QR re-orthonormalization; returns
    ||A||_F^2 - ||Q^T A||_F^2 once the captured energy stabilizes.  The
    estimate can only overshoot the true residual (Q spans at most the
    dominant subspace), never undershoot it.
    """
    n = A.shape[0]
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((n, k)))[0]
    total = float(np.sum(A * A))
    prev = -np.inf
    for _ in range(iters):
        Q = np.linalg.qr(A @ (A.T @ Q))[0]
        B = Q.T @ A
        captured = float(np.sum(B * B))
        if captured - prev <= tol * max(1.0, captured):
            prev = captured
            break
        prev = captured
    return total - prev
