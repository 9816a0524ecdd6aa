"""From splitting to decoherence: prediction, simulation, and time scales.

A perturbation of unknown magnitude turns the stored state into a mixture
over evolutions. In the large-gap limit the code dephases in the eigenbasis
of the compressed perturbation, at a rate set by the characteristic
function of the magnitude distribution and the splitting.
"""

import numpy as np

from splitlab.code_space import ground_subspace
from splitlab.dynamics import (
    NoiseDistribution,
    coherence_time,
    evolve_mixture_grid,
    fidelity_bound_check,
    gap_bound_check,
    predict_dephasing,
    worst_code_state,
)
from splitlab.models import pauli_string_matrix, repetition_model
from splitlab.splitting import ids

model = repetition_model(3)
h = model.hamiltonian()   # held once: the model hands it over and keeps no copy
code = ground_subspace(h)
z1 = pauli_string_matrix("ZII")
dist = NoiseDistribution.gaussian(0.0, 0.1)

# 1. the state that decoheres fastest: equal superposition of the extremal
#    eigenvectors of the compressed perturbation

split = ids(code, z1)   # the compressed perturbation's eigensystem, computed once
psi = worst_code_state(split)
rho0 = psi.density()
spread = split.delta_e
print(f"splitting {spread}, magnitude std 0.1")

# 2. prediction vs a finite-gap simulation of the mixture

print("\n   t   predicted |rho_01|   simulated |rho_01| (gap factor 1e3)")
basis = code.basis
times = (0.0, 1.0, 2.0, 4.0)
sims = evolve_mixture_grid(h, z1, dist, rho0, times, gap_factor=1e3)
for t, sim in zip(times, sims):
    pred = predict_dephasing(split, dist, rho0, t).matrix
    pc = abs((basis.conj().T @ pred @ basis)[0, 1])
    sc = abs((basis.conj().T @ sim.matrix @ basis)[0, 1])
    print(f"  {t:4.1f}        {pc:.6f}            {sc:.6f}")

# the off-diagonal follows exp(-(0.1 * spread * t)^2 / 2) exactly here

# 3. how long until the worst coherence drops by 1 percent

rep = coherence_time(dist, spread, epsilon=0.01)
print(f"\ncoherence time at eps=0.01: tau = {rep.tau_eps:.4f} "
      f"(crossing {rep.c_eps:.4f} / splitting {rep.delta_e})")
rep2 = coherence_time(dist, 2 * spread, epsilon=0.01)
print(f"doubling the splitting halves it: {rep2.tau_eps:.4f}")

# 4. the two closed-form bounds: distance to the projected evolution, and
#    the quadratic fidelity floor

# X + Z on site 0 is given on that site alone; the bound places it into
# the generator g h + v without forming a full-size perturbation
xz = pauli_string_matrix("X") + pauli_string_matrix("Z")
rows = gap_bound_check(h, ids(code, xz, [0]), xz, 100.0, np.linspace(0.0, 2.0, 5), sites=[0])
print("\nprojected-evolution bound at gap factor 100:")
for r in rows:
    print(f"  t={r.t:3.1f}  lhs {r.lhs:.5f} <= rhs {r.rhs:.5f}")

frows = fidelity_bound_check(split, dist, [0.5, 1.0, 2.0])
print("fidelity floor:")
for r in frows:
    print(f"  t={r.t:3.1f}  F {r.lhs:.6f} >= 1 - t^2<l^2>D^2/8 = {r.rhs:.6f}")
