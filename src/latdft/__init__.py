"""latdft: exact-arithmetic lattice toolkit with a lattice DFT and quantum-circuit simulator.

The package is organized around six areas:

- ``intlat``   exact integer/rational lattice linear algebra (HNF, LLL, Babai,
  brute-force CVP/SVP oracles)
- ``sysnf``    systematic-normal-form bases, the quotient/dual bijection, and
  the reduction of an arbitrary integer basis to a nearby SysNF lattice
- ``dft``      the lattice discrete Fourier transform as a dense unitary
- ``qcirc``    statevector simulation of the circuit that implements that DFT
- ``sampler``  exact-amplitude simulation of the lattice sampling algorithm
- ``cli``      command-line front end (``latdft <subcommand>``)
"""

from .intlat import (
    ExactMatrix,
    brute_force_cvp,
    coefficients_in_basis,
    determinant,
    dual_basis,
    hnf,
    lll_reduce,
    membership,
    nearest_plane,
)
from .sysnf import (
    ReductionCertificate,
    SysNFBasis,
    enumerate_scaled_dual,
    ln_membership,
    phi3,
    reduce_to_sysnf,
    validate,
)
from .dft import (
    CharacterMatrix,
    LatticeFunction,
    apply_dft,
    character,
    check_fourth_power,
    check_shift_phase,
    dft_matrix,
    eigen_explore,
    smoothness_estimate,
)
from .qcirc import (
    Statevector,
    qft_mod_n,
    simulate_sysnf_qft,
    step_apply_basis,
    step_shear,
    step_uncompute_first,
)
from .sampler import (
    DiscreteDistribution,
    QESSpec,
    brute_force_target,
    gaussian_spec,
    pac_distance,
    sample,
    sample_gaussian,
)

__version__ = "0.1.0"
