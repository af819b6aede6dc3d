"""End-to-end acceptance gate.

Nine criteria, one test each, covering: exact per-realization trace
identities, closed-form transform consistency, agreement of the two
resolvent assembly routes, the determinant characterization of the
spectrum, density and quantile calibration, finite-size decay of the
resolvent deviations, edge-statistic universality against the GOE
reference, the rigidity scaling exponent, and invariance of the spectrum
under invertible coordinate changes.  Every test prints a PASS or FAIL
line with the measured quantity next to its threshold.
"""

import math

import numpy as np

from scclab import (
    DataPair,
    ExperimentConfig,
    PairMeta,
    blocks_via_schur,
    ccc_eigenvalues,
    classical_locations,
    derived_seed,
    det_characterization_residual,
    local_law_errors,
    make_model,
    resolvent,
    rigidity_experiment,
    sample_bounded,
    sample_gaussian,
    sample_heavy_tail,
    sc_residuals,
    stieltjes,
    support_mass,
    tw_experiment,
)

Z_GRID_10 = [
    complex(0.30, 0.50), complex(0.70, 0.10), complex(0.50, 1.00),
    complex(0.90, 0.05), complex(0.10, 0.30), complex(0.44, 0.25),
    complex(0.20, 2.00), complex(0.85, 0.70), complex(0.60, 0.05),
    complex(0.05, 0.15),
]

RATIO_GRID_20 = [
    (0.10, 0.05), (0.15, 0.10), (0.20, 0.10), (0.20, 0.20), (0.25, 0.15),
    (0.30, 0.10), (0.30, 0.20), (0.30, 0.30), (0.35, 0.25), (0.40, 0.10),
    (0.40, 0.20), (0.40, 0.30), (0.45, 0.15), (0.45, 0.45), (0.50, 0.20),
    (0.50, 0.40), (0.55, 0.25), (0.60, 0.15), (0.60, 0.35), (0.70, 0.25),
]


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{name}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


def _mixed_pairs(p, q, n, per_law=5):
    pairs = []
    for i in range(per_law):
        pairs.append(sample_gaussian(p, q, n, seed=1000 + i))
        pairs.append(sample_bounded(p, q, n, seed=2000 + i, law="rademacher"))
        pairs.append(sample_bounded(p, q, n, seed=3000 + i, law="uniform"))
        pairs.append(sample_heavy_tail(p, q, n, seed=4000 + i, beta=4.5))
    return pairs


def test_criterion_1_trace_identities():
    """Both per-realization trace identities hold to 1e-10 on a mixed grid."""
    worst = 0.0
    for pair in _mixed_pairs(18, 12, 60, per_law=5):        # 20 pairs
        c1, c2 = pair.p / pair.n, pair.q / pair.n
        for z in Z_GRID_10:
            b = resolvent(pair, z)
            r1 = abs(b.m3 - b.m4 - (1 - b.z) * (c1 - c2))
            r2 = abs(b.m3 - (c2 * b.z * (1 - b.z) * b.m + (1 - c1 - c2) * b.z))
            worst = max(worst, r1, r2)
    _verdict("criterion-1 trace-identities", worst <= 1e-10,
             f"worst residual {worst:.3e} vs 1e-10 over 20 pairs x 10 points")


def test_criterion_2_transform_system():
    """The closed-form transforms satisfy their full equation system to 1e-10."""
    worst = 0.0
    for c1, c2 in RATIO_GRID_20:
        model = make_model(c1, c2)
        for z in Z_GRID_10:
            quad = stieltjes(model, z)
            worst = max(worst, float(sc_residuals(model, quad, z).max()))
    _verdict("criterion-2 transform-system", worst <= 1e-10,
             f"worst residual {worst:.3e} vs 1e-10 over 20 ratios x 10 points")


def test_criterion_3_route_agreement():
    """Schur assembly and dense inversion agree to 1e-8 in relative terms."""
    zs = Z_GRID_10[:5]
    worst = 0.0
    for seed in range(5):
        pair = sample_gaussian(18, 12, 60, seed=500 + seed)
        for z in zs:
            direct = resolvent(pair, z)
            schur = blocks_via_schur(pair, z)
            scale = float(np.abs(direct.G).max())
            rel = float(np.abs(schur.G - direct.G).max()) / scale
            rel = max(rel, abs(schur.m - direct.m) / max(abs(direct.m), 1.0))
            worst = max(worst, rel)
    _verdict("criterion-3 route-agreement", worst <= 1e-8,
             f"worst relative difference {worst:.3e} vs 1e-8 over 5 seeds x 5 points")


def test_criterion_4_determinant_characterization():
    """The linearization is singular exactly at the sample spectrum."""
    worst = 0.0
    for seed in range(5):
        pair = sample_gaussian(30, 20, 100, seed=600 + seed)
        lam = ccc_eigenvalues(pair).eigenvalues
        for value in lam:
            worst = max(worst, det_characterization_residual(pair, float(value)))
    _verdict("criterion-4 determinant-characterization", worst <= 1e-8,
             f"worst relative smallest singular value {worst:.3e} vs 1e-8 "
             f"at all 100 spectrum points")


def test_criterion_5_density_and_quantiles():
    """Unit mass, the top quantile at the edge, and strict monotonicity."""
    worst_mass = 0.0
    monotone = True
    edge_exact = True
    for c1, c2 in RATIO_GRID_20:
        model = make_model(c1, c2)
        worst_mass = max(worst_mass, abs(support_mass(model) - 1.0))
        gamma = classical_locations(model, 60)
        edge_exact &= gamma[0] == model.lambda_plus
        monotone &= bool(np.all(np.diff(gamma) < 0))
        monotone &= bool(gamma[-1] > model.lambda_minus)
    ok = worst_mass <= 1e-6 and monotone and edge_exact
    _verdict("criterion-5 density-quantiles", ok,
             f"worst |mass - 1| {worst_mass:.3e} vs 1e-6, top quantile at edge: "
             f"{edge_exact}, strictly decreasing: {monotone}")


def test_criterion_6_deviation_decay():
    """Entrywise deviations shrink with n and sit below 8x the benchmark."""
    etas = (0.5, 0.25, 0.125)
    medians = {}
    bench400 = {}
    for n in (100, 200, 400):
        p, q = round(0.3 * n), round(0.2 * n)
        model = make_model(p / n, q / n)
        lp = model.lambda_plus

        reports = []
        for seed in range(20):
            pair = sample_gaussian(p, q, n, derived_seed(5, 4, seed))
            reports.append([local_law_errors(pair, model, complex(lp, eta)) for eta in etas])
        for j, eta in enumerate(etas):
            medians[(n, eta)] = float(np.median([r[j].entrywise_err for r in reports]))
            if n == 400:
                bench400[eta] = reports[0][j].benchmarks["entrywise"]

    decreasing = all(
        medians[(100, eta)] > medians[(200, eta)] > medians[(400, eta)] for eta in etas
    )
    ratios = {eta: medians[(400, eta)] / bench400[eta] for eta in etas}
    bounded = all(r <= 8.0 for r in ratios.values())
    _verdict("criterion-6 deviation-decay", decreasing and bounded,
             f"medians decreasing in n: {decreasing}; n=400 error over benchmark "
             + ", ".join(f"{r:.2f}" for r in ratios.values()) + " vs 8.0")


def test_criterion_7_edge_universality():
    """Top edge statistic matches the GOE reference for light and heavy tails."""
    gaussian = tw_experiment(ExperimentConfig(
        "tw-edge", n=400, c1=0.3, c2=0.2, trials=2000, law="gaussian", seed=5))
    ks_gauss = gaussian.metrics["ks"][0]
    heavy = tw_experiment(ExperimentConfig(
        "tw-edge", n=400, c1=0.3, c2=0.2, trials=2000, law="pareto", beta=4.5, seed=5))
    ks_heavy = heavy.metrics["ks"][0]
    ok = ks_gauss <= 0.08 and ks_heavy <= 0.10
    _verdict("criterion-7 edge-universality", ok,
             f"KS(top) gaussian {ks_gauss:.4f} vs 0.08, "
             f"tail exponent 4.5 {ks_heavy:.4f} vs 0.10, 2000 trials each")


def test_criterion_8_rigidity_scaling():
    """Fixed-index and edge deviations decay with fitted exponent near -2/3."""
    report = rigidity_experiment(ExperimentConfig(
        "rigidity-scaling", n0=200, c1=0.3, c2=0.2, trials=50, law="gaussian",
        factors=(1, 2, 4), seed=17))
    bulk = report.metrics["bulk_exponent"]
    edge = report.metrics["edge_exponent"]
    ok = -0.8 <= bulk <= -0.55 and -0.8 <= edge <= -0.55
    _verdict("criterion-8 rigidity-scaling", ok,
             f"fitted exponents bulk {bulk:.3f}, edge {edge:.3f} vs [-0.8, -0.55] "
             f"over n in {report.metrics['ns']}")


def test_criterion_9_transform_invariance():
    """The spectrum ignores invertible per-block coordinate changes."""
    base = sample_gaussian(40, 20, 100, seed=900)
    reference = ccc_eigenvalues(base).eigenvalues
    rng = np.random.Generator(np.random.Philox(key=901))
    worst = 0.0
    for _ in range(100):
        qa, _r = np.linalg.qr(rng.standard_normal((40, 40)))
        qb, _r = np.linalg.qr(rng.standard_normal((20, 20)))
        da = rng.uniform(0.2, 5.0, 40)
        db = rng.uniform(0.2, 5.0, 20)
        mapped = DataPair(
            X=(qa * da) @ base.X,
            Y=(qb * db) @ base.Y,
            meta=PairMeta(distribution="fixed", seed=0, phi_n=None),
        )
        moved = ccc_eigenvalues(mapped).eigenvalues
        worst = max(worst, float(np.abs(moved - reference).max()))
    _verdict("criterion-9 transform-invariance", worst <= 1e-8,
             f"worst spectrum displacement {worst:.3e} vs 1e-8 over 100 maps")
