"""The lattice discrete Fourier transform as a dense unitary.

Builds the character matrix for a small SysNF lattice, verifies unitarity,
shows the shift/phase conjugacy and the fourth-power structure, and prints
the eigenvalue multiplicity table.
"""

import numpy as np

from latdft import check_fourth_power, check_shift_phase, dft_matrix, eigen_explore
from latdft.sysnf import SysNFBasis, ln_points

s = SysNFBasis(7, (2, 5))
cm = dft_matrix(s)
print(f"N = {s.N}, n = {s.n}, |L_N| = {cm.order}")

dev = np.abs(cm.matrix.conj().T @ cm.matrix - np.eye(cm.order)).max()
print(f"unitarity deviation ||F*F - I||_max = {dev:.2e}")

# Shifting by a lattice vector before the transform equals phasing after it.
worst = check_shift_phase(s, ln_points(s)[:10])
print(f"shift-phase conjugacy deviation (10 shifts) = {worst:.2e}")

# F^2 permutes x to -x and F^4 is the identity, like the classical DFT.
d2, d4 = check_fourth_power(s)
print(f"||F^2 - negation|| = {d2:.2e},  ||F^4 - I|| = {d4:.2e}")

# Exact, from four traces: F^4 = I, and tr F is a Gauss sum over L_N.
print("eigenvalue multiplicities:", eigen_explore(s))

# A condition-violating basis produces a visibly degenerate transform.
bad = SysNFBasis(4, (1,))
bad_cm = dft_matrix(bad)
bad_dev = np.abs(bad_cm.matrix.conj().T @ bad_cm.matrix - np.eye(4)).max()
print(f"negative control N=4, b=(1): deviation = {bad_dev:.3f} (rows 0 and 2 coincide)")
