"""Hand-checked reference instance used across the test suite.

A 5x5 / k=2 trace-fractional problem that is known to carry two distinct
local maximizers, found independently with a general-purpose NLP solver
and certified here by gradient norms and exact second-order margins.
The one at objective ~10.16 is the global maximizer; the one at ~2.303
is local only, and its cross product G^T D is symmetric but indefinite,
so it is not a fixed point of the aligned SCF map (see
test_scf.test_low_maximizer_escapes_upward).
"""

import numpy as np

REF_A = np.array(
    [
        [4.0, 0.0, -5.0, -5.0, -1.0],
        [0.0, 2.0, 1.0, -1.0, 1.0],
        [-5.0, 1.0, 9.0, 5.0, 1.0],
        [-5.0, -1.0, 5.0, 18.0, 4.0],
        [-1.0, 1.0, 1.0, 4.0, 2.0],
    ]
)

REF_D = np.array(
    [
        [-1.0, 1.0],
        [0.0, 0.0],
        [0.0, 2.0],
        [0.0, 0.0],
        [1.0, 0.0],
    ]
)

# global maximizer, eta ~ 10.160027
MAXIMIZER_HIGH = np.array(
    [
        [-0.358041496119094, 0.770164268103322],
        [-0.453284095949462, -0.326431512218038],
        [-0.091335437376569, 0.497561512998402],
        [-0.269574025133855, 0.008593213179154],
        [0.765066989399257, 0.229451880441015],
    ]
)

# local, non-global maximizer, eta ~ 2.303359
MAXIMIZER_LOW = np.array(
    [
        [-0.506648923972689, 0.664385053189626],
        [0.619602876311725, 0.312889763321350],
        [-0.337893503149209, 0.384494340924914],
        [0.103073503143856, 0.210902556071053],
        [-0.484358314662567, -0.518050876600301],
    ]
)

ETA_HIGH = 10.16
ETA_LOW = 2.303


def ref_spec():
    """The reference instance (REF_A, REF_D) as a validated spec."""
    from occakit import SubproblemSpec

    return SubproblemSpec(REF_A, REF_D)


def random_spec(rng, n, k, ridge=0.1):
    """A validated spec with A = M M^T + ridge I and D standard normal,
    drawn from ``rng`` in that order (M, then D)."""
    from occakit import SubproblemSpec

    M = rng.standard_normal((n, n))
    A = M @ M.T + ridge * np.eye(n)
    D = rng.standard_normal((n, k))
    return SubproblemSpec(A, D)


def random_stiefel(n, k, rng):
    """An n x k matrix with orthonormal columns drawn from ``rng``."""
    from occakit import orthonormalize

    return orthonormalize(rng.standard_normal((n, k)))


def rounded_start(G, decimals=2):
    """Round a maximizer and re-orthonormalize it, the way solver runs
    are seeded from printed tables."""
    from occakit import orthonormalize

    return orthonormalize(np.round(G, decimals))


def rank_tail_views(seed, q=60):
    """Two centered views, 8 x q and 7 x q, with singular values
    [1, .5, .3, 1e-9, 1e-10] and [1, .6, .2, 1e-9] on random orthonormal
    factors.  The thin-SVD rank rule (sigma above max(n_i, q) eps sigma_1)
    keeps ranks 5 and 4; a rule on the eigenvalues sigma^2 of the
    covariance at the same threshold would keep only 3 and 3."""
    from occakit import orthonormalize

    rng = np.random.default_rng(seed)
    ones = np.full((q, 1), 1.0 / np.sqrt(q))

    def view(n, sv):
        U = orthonormalize(rng.standard_normal((n, len(sv))))
        B = rng.standard_normal((q, len(sv)))
        V = orthonormalize(B - ones @ (ones.T @ B))  # rows of U sv V^T sum to 0
        return (U * np.array(sv)) @ V.T

    return view(8, [1.0, 0.5, 0.3, 1e-9, 1e-10]), view(7, [1.0, 0.6, 0.2, 1e-9])


def correlated_views(sizes, q, seed, shared=3, noise=0.05):
    """Centered views of ``sizes`` features by ``q`` samples sharing a
    ``shared``-dimensional latent factor, with Gaussian noise."""
    from occakit import center

    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((shared, q))
    return [
        center(rng.standard_normal((n_i, shared)) @ Z + noise * rng.standard_normal((n_i, q)))
        for n_i in sizes
    ]
