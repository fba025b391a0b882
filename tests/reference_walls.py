"""The nested-pair rows built the long way, as the tests' reference.

The projection of ``a_B`` onto ``a_P`` along the span of P's simple
coroots is the ``Fraction`` matrix Id - C . A_P^-1 . R, with R the rows
alpha_i and C the columns alpha_i^vee, i in P, and A_P the Cartan block of
P.  The relative root alpha_j o proj_P is the row alpha_j times it, and the
Q-relative fundamental weight of j inverts the Cartan block of Q afresh for
each j.  None of it shares code with ``TruncationContext``.
"""

from fractions import Fraction

from trunca.linalg import dot, mat_inverse, matvec


def _block_inverse(datum, subset):
    return mat_inverse(tuple(tuple(datum.cartan[a][b] for b in subset) for a in subset))


def projector(datum, subset):
    """The matrix of proj_P = Id - C . A_P^-1 . R."""
    subset = sorted(subset)
    a_inv = _block_inverse(datum, subset) if subset else ()
    rows_r = [datum.simple_roots[i] for i in subset]
    cols_c = [datum.simple_coroots[i] for i in subset]
    m, n = len(subset), datum.dim
    return tuple(
        tuple(Fraction(int(a == b))
              - sum((cols_c[k][a] * a_inv[k][l] * rows_r[l][b]
                     for k in range(m) for l in range(m)), Fraction(0))
              for b in range(n))
        for a in range(n))


def project(datum, subset, v):
    """proj_P(v)."""
    return matvec(projector(datum, subset), v)


def relative_root(datum, p_subset, j):
    """alpha_j o proj_P: the row alpha_j times the projector."""
    return tuple(dot(datum.simple_roots[j], col)
                 for col in zip(*projector(datum, p_subset)))


def relative_weight(datum, q_subset, j):
    """varpi_j^Q: row j of Q's inverse Cartan block, on the coordinates in
    Q, zero elsewhere."""
    q = sorted(q_subset)
    row = _block_inverse(datum, q)[q.index(j)]
    cov = [Fraction(0)] * datum.dim
    for pos, k in enumerate(q):
        cov[k] = row[pos]
    return tuple(cov)


def walls(datum, p_subset, q_subset):
    """``(roots, weights)`` of the nested pair, as ``walls`` orders them."""
    between = [j for j in sorted(q_subset) if j not in p_subset]
    return (tuple(relative_root(datum, p_subset, j) for j in between),
            tuple(relative_weight(datum, q_subset, j) for j in between))


def lattice_basis(datum, subset):
    """proj_P(alpha_j^vee) for j outside P: the standard lattice's basis."""
    return tuple(project(datum, subset, datum.simple_coroots[j])
                 for j in range(datum.rank_ss) if j not in subset)


def adapted_basis(datum, p_subset, q_subset):
    """For j in Q - P the Q-relative coweight sum over i in Q of
    (A_Q^-1)[i][j] alpha_i^vee, then proj_Q(alpha_j^vee) for j outside Q."""
    q = sorted(q_subset)
    inv = _block_inverse(datum, q) if q else ()
    vectors = []
    for pos, j in enumerate(q):
        if j not in p_subset:
            vectors.append(tuple(
                sum((inv[i][pos] * datum.simple_coroots[a][k] for i, a in enumerate(q)),
                    Fraction(0))
                for k in range(datum.dim)))
    vectors.extend(project(datum, q, datum.simple_coroots[j])
                   for j in range(datum.rank_ss) if j not in q)
    return tuple(vectors)
