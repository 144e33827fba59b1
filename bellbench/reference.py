"""Final values of the six Lyapunov runs of preset ``figure4``.

Recorded from ``bellsteer`` at the commit that introduced this benchmark
(DP5(4) density-matrix integrator, default tolerances, t_max = 300). A correct
change to the integrator moves these by about 5.5e-7 at most; the benchmark
compares with an absolute tolerance of ``workloads.TOL``.
"""

FINAL = {
    # label: (final_V, final_concurrence)
    "figure4_local_k0.5": (6.137902565284671e-06, 0.9999876432942902),
    "figure4_local_k1": (3.7581261468899614e-11, 0.999999905120343),
    "figure4_local_k2": (5.809158592065548e-16, 0.9999999517956094),
    "figure4_interaction_k0.5": (0.33071158430085096, 0.9999999866661725),
    "figure4_interaction_k1": (0.3802451115102691, 0.9999999975989343),
    "figure4_interaction_k2": (0.4152832168967515, 0.9999999905346428),
}
