"""Critical-disk study.

For a centered source of mass 2 pi k R the disk of radius R is a critical
shape: the boundary flux is constant, the first variation vanishes, and the
energy has the closed form

    J = -(m^2 / 4 pi) log(R / rho) - m^2 / 16 pi + k^2 pi R^2 / 2.

This driver checks all of that numerically across resolutions and prints
the quadratic-form values on the Fourier modes.  The Hessian route table on
the same disk comes from the CLI: ``quadshape hessian
scripts/critical_disk.cfg``.

Usage: python scripts/critical_disk.py [--radius R] [--rho RHO] [--k K]
"""

import argparse

import numpy as np

from quadshape.geometry import Curve, NormalField
from quadshape.potential import Disk, SourceTerm
from quadshape.shape import (evaluate_J, hadamard_derivative, solve_state,
                             steklov_form)


def closed_form_J(R, rho, mass, k):
    return (-mass**2 / (4 * np.pi) * np.log(R / rho)
            - mass**2 / (16 * np.pi) + k**2 * np.pi * R**2 / 2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--radius", type=float, default=1.0)
    parser.add_argument("--rho", type=float, default=0.1)
    parser.add_argument("--k", type=float, default=1.0)
    args = parser.parse_args()

    R, rho, k = args.radius, args.rho, args.k
    mass = 2 * np.pi * k * R
    source = SourceTerm([Disk(0.0, 0.0, rho, mass)])
    J_exact = closed_form_J(R, rho, mass, k)

    print(f"critical disk: R={R} rho={rho} k={k} mass={mass:.6f}")
    print(f"closed-form J = {J_exact:.12f}\n")

    print(f"{'n':>5} {'|J - J_exact|':>14} {'max|u_nu+k|':>14} "
          f"{'max|dJ[a]|':>14}")
    for n in (32, 64, 128, 256, 512):
        state = solve_state(Curve.circle(R, n=n), source, k)
        J = evaluate_J(state)
        flux = float(np.max(np.abs(state.u_nu + k)))
        grad = max(
            abs(hadamard_derivative(state, NormalField.from_mode(m, n)))
            for m in ("const", "cos1", "cos3", "sin2"))
        print(f"{n:>5} {abs(J - J_exact):>14.3e} {flux:>14.3e} "
              f"{grad:>14.3e}")

    state = solve_state(Curve.circle(R, n=256), source, k)
    print("\nquadratic boundary form on Fourier modes (expect (n-1) |a|^2 "
          "at R = k = 1;\nfinite differences of J give (n+1) |a|^2):")
    for n_mode in range(0, 6):
        field = (NormalField.constant(1.0, state.curve.n) if n_mode == 0
                 else NormalField.from_mode(f"cos{n_mode}", state.curve.n))
        print(f"  mode {n_mode}: {steklov_form(state, field):>12.6f}")


if __name__ == "__main__":
    main()
