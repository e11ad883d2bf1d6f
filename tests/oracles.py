"""Dense test oracles shared by the test modules."""

import numpy as np

from whsic.dims import tau_table


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
