"""Spectral convergence of the boundary solver.

Tabulates, against the node count, the error of the Dirichlet-to-Neumann
map on the unit circle (symbol n/R on Fourier modes), the Dirichlet energy
of cos(m theta) (exact value m pi), and the energy J of the centered
critical configuration (closed form known).  Everything should decay
root-exponentially until it hits roundoff, which is the point of the
Nystrom discretization.

Usage: python scripts/dtn_convergence.py
"""

import numpy as np

from critical_disk import closed_form_J
from quadshape.bem import BoundaryOperators
from quadshape.geometry import Curve
from quadshape.potential import Disk, SourceTerm
from quadshape.shape import evaluate_J, solve_state


def main():
    source = SourceTerm([Disk(0.0, 0.0, 0.1, 2 * np.pi)])
    J_exact = closed_form_J(1.0, 0.1, 2 * np.pi, 1.0)

    print(f"{'n':>5} {'dtn mode 5':>12} {'energy m=3':>12} "
          f"{'J error':>12} {'ellipse sym':>12}")
    for n in (16, 32, 64, 128, 256, 512):
        circle = Curve.circle(1.0, n=n)
        ops = BoundaryOperators(circle)

        mode = np.cos(5 * circle.theta)
        dtn_err = float(np.max(np.abs(ops.dtn_matrix @ mode - 5 * mode)))

        # integral |grad u|^2 = integral u L u ds for the harmonic extension
        m3 = np.cos(3 * circle.theta)
        energy = float(np.sum(m3 * (ops.dtn_matrix @ m3) * circle.weights))
        energy_err = abs(energy - 3 * np.pi)

        J = evaluate_J(solve_state(circle, source, 1.0))
        J_err = abs(J - J_exact)

        # DtN symmetry in the weighted inner product on a generic shape
        ellipse = Curve.ellipse(1.3, 0.7, n=n)
        eops = BoundaryOperators(ellipse)
        wl = ellipse.weights[:, None] * eops.dtn_matrix
        sym = float(np.max(np.abs(wl - wl.T)))

        print(f"{n:>5} {dtn_err:>12.3e} {energy_err:>12.3e} "
              f"{J_err:>12.3e} {sym:>12.3e}")


if __name__ == "__main__":
    main()
