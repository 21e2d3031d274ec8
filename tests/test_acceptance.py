"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see them).
All tolerances and budgets are pinned here, not configurable."""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

import approxdiag as ad
from approxdiag.diagnosis import synthesize_diagnoser, validate_witness
from approxdiag.errors import InitialStateInBallError
from approxdiag.fixtures import random_finite_system
from approxdiag.lattice import cell_of, lattice_points_in, quantize
from approxdiag.regions import Box, BoxUnion, ball_in_union
from examples import CONFIGS, D1_FAULTS, ND1_FAULTS, d1, e1, nd1
from reference import build_unchecked, deterministic, monte_carlo_contract

SUITE_SEED = 20260810


def _report(n, name, ok, detail=""):
    print(f"ACCEPTANCE {n} ({name}): {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {n} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def random_suite():
    rng = np.random.default_rng(SUITE_SEED)
    return [random_finite_system(rng) for _ in range(200)]


def test_criterion_1_quantizer_partition():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    total = 0
    for n in (1, 2, 3):
        for theta in (0.05, 0.5):
            pts = rng.uniform(-8.0, 8.0, size=(16_700, n))
            for row in pts:
                x = tuple(float(v) for v in row)
                q = quantize(x, theta)
                assert cell_of(q, theta).contains(x), (x, theta)
                for axis in range(n):
                    for d in (-1, 1):
                        other = list(q)
                        other[axis] += d
                        assert not cell_of(other, theta).contains(x)
                total += 1
    # Boundary probes: exact odd multiples land in the upper cell.
    for theta in (0.05, 0.5):
        t = Fraction(str(theta))
        for k in range(-999, 1000, 2):
            assert quantize((theta * k,), theta) == ((k + 1) // 2,)
            assert quantize((t * k,), theta) == ((k + 1) // 2,)
    elapsed = time.perf_counter() - t0
    _report(1, "quantizer-partition", total >= 100_000 and elapsed < 5.0,
            f"{total} points, {elapsed:.2f}s")


def test_criterion_2_accuracy_solver():
    _, cert = e1()
    eps = ad.solve_epsilon(cert, 0.1, 0.05)
    exact = eps == 1.0 and abs(eps - 1.0) <= 1e-9
    rejected = not ad.check_params(cert, ad.AbstractionParams(0.5, 0.1, 0.1)).ok
    _report(2, "accuracy-solver", exact and rejected, f"eps*={eps!r}")


def test_criterion_3_abstraction_correctness(tmp_path):
    t0 = time.perf_counter()
    sysdef, cert = e1()
    assert cert.explore_bound == Box((-4.0, -4.0), (4.0, 4.0))
    params = ad.AbstractionParams(ad.solve_epsilon(cert, 0.5, 0.5), 0.5, 0.5)
    files = []
    for run in range(4):
        system = ad.build_abstraction(sysdef, cert, params)
        path = tmp_path / f"model{run}.json"
        system.save(str(path))
        files.append(path.read_bytes())
    base = ad.build_abstraction(sysdef, cert, params)
    is_deterministic = deterministic(base)
    closed = all(0 <= t[0] < base.n_states for row in base.succ for t in row)
    k = base.state_coords.index((0, 0))
    succs = {base.state_coords[t[0]] for t in base.succ[k]}
    expected = succs == {(-1, 0), (0, 0), (1, 0)}
    identical = all(b == files[0] for b in files[1:])
    elapsed = time.perf_counter() - t0
    _report(
        3,
        "abstraction-correctness",
        is_deterministic and closed and expected and identical and elapsed < 10.0,
        f"{base.n_states} states, {elapsed:.2f}s",
    )


def test_criterion_4_relation_certification():
    sysdef, cert = e1()
    good = ad.AbstractionParams(1.0, 0.1, 0.05)
    system = ad.build_abstraction(sysdef, cert, good)
    rep = ad.certify_relation(sysdef, cert, good, system, samples=10_000, seed=0)
    positive = rep.passed and rep.max_v_next <= rep.threshold

    bad = ad.AbstractionParams(1.0, 0.5, 0.05)
    assert not ad.check_params(cert, bad).ok
    controlled = build_unchecked(sysdef, cert, bad)
    rep_bad = ad.certify_relation(sysdef, cert, bad, controlled, samples=10_000, seed=0)
    negative = rep_bad.violations_step >= 1
    _report(
        4,
        "relation-certification",
        positive and negative,
        f"max V after step {rep.max_v_next:.4f} <= {rep.threshold}, "
        f"negative control violations {rep_bad.violations_step}",
    )


def test_criterion_5_checker_oracle_equivalence(random_suite):
    t0 = time.perf_counter()
    agree = 0
    for system, spec in random_suite:
        vt = ad.check_diagnosability(system, spec)
        vb = ad.brute_force_check(system, spec, 10)
        if vt.diagnosable == vb.diagnosable and (
            not vt.diagnosable or vt.delta == vb.delta
        ):
            agree += 1
    v_d1 = ad.check_diagnosability(d1(), ad.FaultSpec.of(D1_FAULTS, 0))
    fixture_d1 = v_d1.diagnosable and v_d1.delta == 1
    spec_nd1 = ad.FaultSpec.of(ND1_FAULTS, 1)
    v_nd1 = ad.check_diagnosability(nd1(), spec_nd1)
    fixture_nd1 = (not v_nd1.diagnosable) and validate_witness(nd1(), spec_nd1, v_nd1.witness)
    elapsed = time.perf_counter() - t0
    _report(
        5,
        "checker-oracle-equivalence",
        agree == 200 and fixture_d1 and fixture_nd1 and elapsed < 60.0,
        f"{agree}/200 agree, {elapsed:.2f}s",
    )


def test_criterion_6_diagnoser_contract(random_suite):
    checked = rejected = 0
    violations = 0
    for idx, (system, spec) in enumerate(random_suite):
        if not ad.check_diagnosability(system, spec).diagnosable:
            continue
        try:
            diag = synthesize_diagnoser(system, spec)
        except InitialStateInBallError:
            rejected += 1  # documented refusal: initial state inside the ball
            continue
        rep = monte_carlo_contract(system, spec, diag, n_runs=1000, seed=idx)
        checked += 1
        violations += rep.violations_alarm + rep.violations_window
    _report(
        6,
        "diagnoser-contract",
        checked > 0 and violations == 0,
        f"{checked} systems x 1000 runs, {rejected} synthesis refusals, "
        f"{violations} violations",
    )


def test_criterion_7_transfer_arithmetic_and_sandwich():
    sysdef, cert = e1()
    far = BoxUnion.of(Box((2.1, -1.0), (2.3, 1.0)))
    verdict = ad.conclude(
        sysdef, cert, ad.AbstractionParams(1.0, 0.1, 0.05), far, "prove", k=2
    )
    bound_exact = verdict.rho_bound == 2.2
    kprime = ad.smallest_refute_k(0.5, 0.2, 0.1) == 10

    rng = np.random.default_rng(7)
    wide = Box((-10.0, -10.0), (10.0, 10.0))
    sandwich = True
    for _ in range(50):
        lo = rng.uniform(-2, 1, size=2)
        region = BoxUnion.of(Box(tuple(lo), tuple(lo + rng.uniform(0.3, 2.0, size=2))))
        eps = float(rng.uniform(0.01, 0.4))
        eta = float(rng.choice([0.05, 0.1, 0.25]))
        dil = set(ad.fault_lattice_dilated(region, eps, eta, wide))
        ero = set(ad.fault_lattice_eroded(region, eps, eta, wide))
        plain = set(lattice_points_in(region, eta))
        sandwich &= ero <= plain <= dil
    _report(
        7,
        "transfer-arithmetic",
        bound_exact and kprime and sandwich,
        f"bound={verdict.rho_bound!r}, k'={ad.smallest_refute_k(0.5, 0.2, 0.1)}",
    )


def test_criterion_8_end_to_end_soundness():
    t0 = time.perf_counter()
    sysdef, cert = e1()
    observable = BoxUnion.from_json(json.load(open(CONFIGS / "fault_x1.json")))
    hidden = BoxUnion.from_json(json.load(open(CONFIGS / "fault_x2.json")))

    prove = ad.conclude(
        sysdef, cert, ad.AbstractionParams(0.5, 0.05, 0.025), observable, "prove"
    )
    proved = prove.direction == "DIAGNOSABLE_FOR_RHO_ABOVE"
    no_cx = (
        ad.falsify_plant(sysdef, observable, prove.rho_bound + 0.1, 10_000, 30, seed=0)
        is None
    )

    found = ad.falsify_plant(sysdef, hidden, 0.05, 10_000, 30, seed=0)
    cx_found = found is not None

    params = ad.AbstractionParams(0.3, 0.03, 0.01)
    refute = ad.conclude(sysdef, cert, params, hidden, "refute", rho=0.05)
    refuted = refute.direction == "NOT_DIAGNOSABLE_FOR_RHO"

    # Witness template re-validation: the abstract pair maps into plant
    # evidence through the accuracy tube of radius epsilon.
    system = ad.build_abstraction(sysdef, cert, params)
    run_f, run_s = refute.finite.witness
    out_equal = [system.outputs[i] for i in run_f] == [system.outputs[j] for j in run_s]
    fault_hit = next(i for i in run_f if i in refute.fault_indices)
    # Eroded fault states keep their whole epsilon-ball inside the region,
    # so every tube member around the hit is a true plant fault.
    tube_fault = ball_in_union(system.states[fault_hit], params.epsilon, hidden)
    rng = np.random.default_rng(8)
    tube_safe = True
    for j in run_s:
        emb = tuple(float(v) for v in system.states[j])
        for _ in range(20):
            x = tuple(v + float(rng.uniform(-params.epsilon, params.epsilon)) for v in emb)
            tube_safe &= hidden.distance_to(x) > 0.05
    elapsed = time.perf_counter() - t0
    _report(
        8,
        "end-to-end-soundness",
        proved
        and no_cx
        and cx_found
        and refuted
        and out_equal
        and tube_fault
        and tube_safe
        and elapsed < 300.0,
        f"bound={prove.rho_bound}, refute k'={refute.k}, {elapsed:.1f}s",
    )
