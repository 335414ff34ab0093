"""Reference for the stacked ``pyramid.signed_cones``.

``signed_cones`` below is the one-set cone test as it stood before the
stacked form: it takes one normal set (m, d) and a sign matrix (C, m).  The
stacked primitive must give each set of a stack the ``nonempty``,
``boundary_only`` and ``witness`` bits this gives that set alone.
"""
import numpy as np

from fuzzyblock.kernel.pyramid import _CROSS_TOL, _TOL, SignedCones, _candidates


def signed_cones(normals: np.ndarray, signs: np.ndarray) -> SignedCones:
    """Decide {v != 0 : signs[c, i] * n_i . v >= 0} for every sign row c at once.

    Signs are +-1.  A candidate ray fails row c when it violates a constraint
    of either sign, so counting violations is one matrix product of 0/1
    matrices and no temporary grows past (rows x candidates).
    """
    normals = np.asarray(normals, dtype=float)
    signs = np.asarray(signs, dtype=float)
    if len(normals) == 0:  # the whole space
        witness = np.zeros((len(signs), normals.shape[1]))
        witness[:, -1] = 1.0
        return SignedCones(np.ones(len(signs), bool), np.zeros(len(signs), bool), witness)
    k = _candidates(normals)
    k = k[~np.isnan(k[:, 0])]
    margins = k @ normals.T
    # ray k violates +n_i when its margin is below -tol, -n_i when above +tol
    breaks = np.hstack([margins < -_TOL, margins > _TOL]).T.astype(float)
    feasible = np.hstack([signs > 0, signs < 0]) @ breaks == 0
    nonempty = feasible.any(axis=1)
    total = feasible.astype(float) @ k
    norms = np.linalg.norm(total, axis=1)
    interior = norms > _CROSS_TOL
    total[interior] /= norms[interior, None]
    interior &= (signs * (total @ normals.T)).min(axis=1) > _TOL
    witness = np.where(interior[:, None], total, k[feasible.argmax(axis=1)])
    witness[~nonempty] = np.nan
    return SignedCones(nonempty, nonempty & ~interior, witness)
