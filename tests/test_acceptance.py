"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s tests/test_acceptance.py`` to see them).
"""

import json
import math
import time

import numpy as np
import pytest

from tcsim.canonical import build_canonical_cluster
from tcsim.cli import main
from tcsim.gaussian import (
    append_modes,
    apply_cz,
    apply_phase_rotation,
    check_physicality,
    cz_matrix,
    db_to_r,
    measure_quadrature,
    p_squeezed_state,
    rotation_matrix,
    symplectic_defect,
    vacuum_state,
)
from tcsim.graphs import (
    delete_nodes,
    nullifier_variances,
    sheared_cylinder_graph,
    unfolds_to_grid,
    wire_graph,
)
from tcsim.pipeline import PipelineConfig, equivalence_check, run_pipeline


def report(number, name, ok, detail):
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_symplecticity_and_physicality():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    min_eig = math.inf
    max_defect = 0.0
    # max |applied cov - S cov S^T| / max(1, max |cov|) over every CZ and
    # rotation, against the dense cz_matrix / rotation_matrix route
    max_gap = 0.0

    def dense_gap(applied, before, s_mat):
        dense = s_mat @ before.cov @ s_mat.T
        scale = max(1.0, float(np.max(np.abs(dense))))
        return float(np.max(np.abs(applied.cov - dense))) / scale

    fresh = 0
    for _ in range(1000):
        state = p_squeezed_state(float(rng.uniform(0, 1.2)), label=fresh)
        fresh += 1
        for _ in range(int(rng.integers(4, 8))):
            n = state.n_modes
            # draw only the steps that act at this size: append below 8
            # modes, CZ and measurement from 2 modes up, rotation always
            valid = [c for c, ok in ((0, n < 8), (1, n >= 2), (2, True), (3, n >= 2)) if ok]
            choice = valid[int(rng.integers(len(valid)))]
            if choice == 0:
                state = append_modes(
                    state, p_squeezed_state(float(rng.uniform(0, 1.2)), label=fresh)
                )
                fresh += 1
            elif choice == 1:
                i, j = map(int, rng.choice(n, size=2, replace=False))
                s_mat = cz_matrix(n, i, j)
                max_defect = max(max_defect, symplectic_defect(s_mat))
                before, state = state, apply_cz(state, state.labels[i], state.labels[j])
                max_gap = max(max_gap, dense_gap(state, before, s_mat))
            elif choice == 2:
                i = int(rng.integers(n))
                theta = float(rng.uniform(0, 2 * math.pi))
                s_mat = rotation_matrix(n, i, theta)
                max_defect = max(max_defect, symplectic_defect(s_mat))
                before, state = state, apply_phase_rotation(state, state.labels[i], theta)
                max_gap = max(max_gap, dense_gap(state, before, s_mat))
            elif choice == 3:
                mode = state.labels[int(rng.integers(n))]
                theta = float(rng.uniform(0, math.pi))
                state, _ = measure_quadrature(state, mode, theta, rng=rng)
            min_eig = min(min_eig, check_physicality(state))
    elapsed = time.perf_counter() - t0
    ok = (
        min_eig >= 0.5 - 1e-9
        and max_defect < 1e-10
        and max_gap <= 1e-12
        and elapsed < 10.0
    )
    report(
        1,
        "symplecticity & physicality",
        ok,
        f"min sympl eig {min_eig:.12f}, max defect {max_defect:.2e}, "
        f"max gap to S cov S^T {max_gap:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_nullifier_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for graph in (wire_graph(10), sheared_cylinder_graph(40, 4)):
        for r in (0.0, db_to_r(5.0), db_to_r(10.0)):
            target = 0.5 * math.exp(-2 * r)
            variances = nullifier_variances(build_canonical_cluster(graph, r), graph)
            for variance in variances.values():
                worst = max(worst, abs(variance - target))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    report(2, "canonical nullifier exactness", ok, f"max |err| {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_pipeline_equals_canonical():
    t0 = time.perf_counter()
    worst = 0.0
    for r in (0.0, 1.0):
        config = PipelineConfig("wire", 20, squeezing_r=r, seed=11)
        worst = max(worst, equivalence_check(config, (5, 10)))
        for m in (3, 4, 5):
            config = PipelineConfig(
                "lattice", 10 * m, width=m, squeezing_r=r, seed=11
            )
            worst = max(worst, equivalence_check(config, (2 * m + 1, 4 * m)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 5.0
    report(3, "pipeline == canonical", ok, f"max discrepancy {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_bounded_memory_and_linear_time():
    def timed_run(n):
        config = PipelineConfig("lattice", n, width=4, squeezing_r=1.0, seed=0)
        t0 = time.perf_counter()
        result = run_pipeline(config)
        return result.high_water, time.perf_counter() - t0

    high = {}
    times = {}
    for n in (100, 1000, 10_000):
        high[n], times[n] = timed_run(n)
    ratio = times[10_000] / times[1000]
    ok = (
        len(set(high.values())) == 1
        and high[100] == 6
        and times[10_000] < 10.0
        and ratio <= 20.0
    )
    report(
        4,
        "bounded memory / streaming",
        ok,
        f"high_water {sorted(set(high.values()))}, t(1e4)={times[10_000]:.2f}s, "
        f"scaling ratio {ratio:.1f}",
    )


def test_criterion_5_deletion_and_unfolding():
    unfold_ok = True
    for m in range(2, 7):
        for k in range(1, 9):
            graph = sheared_cylinder_graph(m * k, m)
            reduced = delete_nodes(graph, [j for j in graph.nodes if j % m == 0])
            result = unfolds_to_grid(reduced.nodes, reduced.sorted_edges(), m)
            unfold_ok = unfold_ok and result.unfolds and result.grid_shape == (m - 1, k)

    m, k, r = 4, 4, 1.0
    graph = sheared_cylinder_graph(m * k, m)
    state = build_canonical_cluster(graph, r)
    deleted = [j for j in graph.nodes if j % m == 0]
    for i, node in enumerate(deleted):
        state, _ = measure_quadrature(state, node, 0.0, outcome=0.3 * (i + 1))
    reduced_graph = delete_nodes(graph, deleted)
    variances = nullifier_variances(state, reduced_graph)
    bound = 0.5 * math.exp(-2 * r) + 1e-9
    worst = max(variances.values())
    ok = unfold_ok and worst <= bound
    report(
        5,
        "deletion & unfolding",
        ok,
        f"all grids exact: {unfold_ok}, max reduced nullifier {worst:.6f} <= {bound:.6f}",
    )


def test_criterion_6_measurement_update_vs_monte_carlo():
    # hand-derived cz(vac,vac) case, exact
    state = apply_cz(vacuum_state(2, labels=("a", "b")), "a", "b")
    reduced, rec = measure_quadrature(state, "b", 0.0, outcome=1.7)
    exact_ok = (
        np.max(np.abs(reduced.cov - 0.5 * np.eye(2))) < 1e-12
        and abs(-rec.feedforward[1] - 1.7) < 1e-12
    )

    def mc_conditional_cov(state, mode, theta, samples=1_000_000, seed=0):
        """Independent oracle: regression residual covariance of the
        survivors against the measured quadrature, from joint samples."""
        rng = np.random.default_rng(seed)
        x = rng.multivariate_normal(np.zeros(2 * state.n_modes), state.cov, size=samples)
        n = state.n_modes
        k = state.index(mode)
        y = math.cos(theta) * x[:, k] + math.sin(theta) * x[:, n + k]
        keep = [i for i in range(n) if i != k]
        cols = [*keep, *(n + i for i in keep)]
        z = x[:, cols]
        joint = np.cov(np.column_stack([z, y]).T)
        czz, czy, vy = joint[:-1, :-1], joint[:-1, -1], joint[-1, -1]
        return czz - np.outer(czy, czy) / vy

    cases = [
        (apply_cz(vacuum_state(2, labels=("a", "b")), "a", "b"), "b", 0.0),
        (
            apply_cz(
                append_modes(p_squeezed_state(1.0, "s"), vacuum_state(1, labels=("v",))),
                "s",
                "v",
            ),
            "v",
            math.pi / 3,
        ),
        (build_canonical_cluster(wire_graph(3), 0.5), 2, math.pi / 2),
    ]
    mc_ok = True
    detail = []
    for i, (state, mode, theta) in enumerate(cases):
        expected, _ = measure_quadrature(state, mode, theta, outcome=0.0)
        mc = mc_conditional_cov(state, mode, theta, seed=100 + i)
        # 1% entrywise, with the vacuum variance as the scale floor for
        # entries that are exactly zero
        tol = 0.01 * np.maximum(np.abs(expected.cov), 0.5)
        err = np.max(np.abs(mc - expected.cov) / np.maximum(np.abs(expected.cov), 0.5))
        detail.append(f"{err:.4f}")
        mc_ok = mc_ok and np.all(np.abs(mc - expected.cov) <= tol)
    ok = exact_ok and mc_ok
    report(
        6,
        "measurement update vs Monte Carlo",
        ok,
        f"exact case {exact_ok}, MC relative errors {detail} (tol 0.01)",
    )


def test_criterion_7_cli_determinism(tmp_path):
    base = [
        "lattice", "--nodes", "400", "--width", "4",
        "--squeezing-db", "10", "--seed", "7", "--emit-records",
    ]
    code_a = main(base + ["--out", str(tmp_path / "a.json")])
    code_b = main(base + ["--out", str(tmp_path / "b.json")])
    bytes_a = (tmp_path / "a.json").read_bytes()
    bytes_b = (tmp_path / "b.json").read_bytes()
    parsed = json.loads(bytes_a)
    ok = code_a == code_b == 0 and bytes_a == bytes_b and parsed["high_water"] == 6
    report(
        7,
        "CLI determinism",
        ok,
        f"byte-identical: {bytes_a == bytes_b}, high_water {parsed['high_water']}",
    )
