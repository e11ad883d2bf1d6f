"""Dense test oracles shared by the test modules."""

import numpy as np

from whsic.dims import PhasePermutation, tau_table


def reference_check(G, dim, U, D):
    """`clifford.conjugation_check_batched` for any unitary U (dense or a
    `PhasePermutation`), one displacement at a time, by dense products and
    without blocks: max over k of |U D_k U^dag - tau^c D_{G(k)}|, with c
    the tau power nearest <D_{G(k)}, U D_k U^dag> / N. A non-finite entry
    makes the result NaN or inf."""
    N, U = dim.N, np.asarray(U)
    table, worst = tau_table(dim), 0.0
    for k in range(N * N):
        conj = U @ D[k] @ U.conj().T
        ip, jp = G.apply(*divmod(k, N), N)
        tgt = D[ip * N + jp]
        ph = np.vdot(tgt, conj) / N
        snapped = table[np.argmin(np.abs(table - ph))]
        worst = np.maximum(worst, np.abs(conj - snapped * tgt).max())
    return float(worst)


def iterated_powers(P):
    """P^0, ..., P^{N-1} of a `PhasePermutation`, stacked along a leading
    axis, by N - 1 single products: the plain recursion P^{m+1} = P^m P
    that `weyl._powers` shortcuts by doubling."""
    N = P.dim.N
    powers = [PhasePermutation(P.dim, np.arange(N), np.zeros(N, dtype=int))]
    for _ in range(N - 1):
        powers.append(powers[-1] @ P)
    return PhasePermutation(P.dim, np.stack([Q.image for Q in powers]),
                            np.stack([Q.expo for Q in powers]))
