"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Sizes and tolerances are
fixed here, not calibrated elsewhere; the suite takes a few minutes, dominated
by the 100k-sample determinism sweeps and the arbitrary-precision comparisons.
"""

import json
import math
import subprocess
import sys
import time

import pytest

from meanineq import catalog, kyfan, means, ratio
from meanineq.oracle import oracle_eval, oracle_rel_err
from meanineq.report import EQUALITY, HOLDS, VIOLATED, dumps
from meanineq.rng import SampleStream, sample_kyfan_values, sample_pair, sample_quad
from meanineq.sweep import SweepConfig, run_kyfan_sweep, run_sweep

EPS = 2.0 ** -52


def _ok(msg):
    print(f"[PASS] {msg}")


def test_criterion_01_mean_chain():
    """Chain slacks >= 0 on 1e5 pairs, strict off the equality manifold, < 5 s."""
    stream = SampleStream(20240801, "acc/chain")
    t0 = time.monotonic()
    checked_strict = 0
    for i in range(100_000):
        u = stream.floats(i, 2)
        a = math.exp(math.log(1e-3) + u[0] * (math.log(1e3) - math.log(1e-3)))
        b = math.exp(math.log(1e-3) + u[1] * (math.log(1e3) - math.log(1e-3)))
        slacks = means.mean_chain_slacks(a, b)
        scale = 0.5 * a + 0.5 * b
        tol = 50 * EPS * scale
        assert all(s >= -tol for s in slacks), (a, b, slacks)
        if a != b and abs(a / b - 1.0) > 1e-6:
            checked_strict += 1
            assert all(s > tol for s in slacks), (a, b, slacks)
    for x in (1.0, 0.037, 812.5):
        assert means.mean_chain_slacks(x, x) == (0.0, 0.0, 0.0, 0.0)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"chain sweep took {elapsed:.2f}s"
    _ok(f"criterion 1: mean chain on 100000 pairs ({checked_strict} strict) "
        f"in {elapsed:.2f}s")


def test_criterion_02_limit_identities():
    """Lp near p=0 tracks I, near p=-1 tracks L; snapped kinds are exact."""
    stream = SampleStream(20240802, "acc/limits")
    for i in range(1000):
        u = stream.floats(i, 2)
        b = 10.0 ** (-2.0 + 4.0 * u[0])
        a = b * (1.01 + (100.0 - 1.01) * u[1])
        i_val = means.identric_mean(a, b)
        l_val = means.logarithmic_mean(a, b)
        for p in (1e-6, -1e-6):
            got = means.p_logarithmic_mean(a, b, p)
            assert got == i_val          # snapped: returns I exactly
        for p in (-1.0 + 1e-6, -1.0 - 1e-6):
            got = means.p_logarithmic_mean(a, b, p)
            assert abs(got - l_val) / l_val <= 1e-5
        for p in (2e-6, -2e-6):
            got = means.p_logarithmic_mean(a, b, p)
            assert abs(got - i_val) / i_val <= 1e-5
    _ok("criterion 2: limit identities on 1000 pairs at p = +/-1e-6 and -1 +/- 1e-6")


def test_criterion_03_derivative_consistency():
    """Closed-form derivative vs central differences, plus the x = 0 seam."""
    stream = SampleStream(20240803, "acc/deriv")
    for i in range(1000):
        quad = sample_quad(stream, i)
        (u,) = stream.floats(i, 1, salt=1)
        x = -5.0 + 10.0 * u
        if i % 10 == 0:
            x = 0.0
        h = 1e-5 * max(1.0, abs(x))
        fd = (ratio.ratio_value(quad, x + h) - ratio.ratio_value(quad, x - h)) / (2 * h)
        an = ratio.ratio_derivative(quad, x)
        assert abs(fd - an) <= 1e-6 * abs(an), (quad, x)
    # seam: r at the edge of the first-order window ln r once took around
    # x = 0, against the direct ln(e^y - 1) form of the power differences
    from meanineq.means import _log_expm1
    seam_x = 1e-7
    worst = 0.0
    for i in range(1000):
        quad = sample_quad(stream, i, sign="any")
        for x in (seam_x, -seam_x):
            sing = ratio.ratio_value(quad, x)
            if x > 0:
                lnf = (x * (quad.ln_b - quad.ln_d)
                       + _log_expm1(x * quad.r_ab) - _log_expm1(x * quad.r_cd))
            else:
                lnf = (x * (quad.ln_a - quad.ln_c)
                       + _log_expm1(-x * quad.r_ab) - _log_expm1(-x * quad.r_cd))
            direct = math.exp(lnf)
            worst = max(worst, abs(sing - direct) / direct)
    assert worst <= 1e-12, worst
    _ok(f"criterion 3: derivative vs FD on 1000 draws; seam mismatch <= {worst:.2e}")


def test_criterion_04_ratio_convexity():
    """Midpoint slack of r positive for separated abscissae, all disc classes."""
    floor_hits = 0
    for sign in ("positive", "negative", "zero"):
        stream = SampleStream(20240804, f"acc/convex/{sign}")
        done = 0
        i = 0
        while done < 3334:
            quad = sample_quad(stream, i, sign=sign)
            u = stream.floats(i, 2, salt=1)
            i += 1
            x1 = -20.0 + 40.0 * u[0]
            x2 = -20.0 + 40.0 * u[1]
            if abs(x1 - x2) < 0.1:
                continue
            done += 1
            slack = ratio.midpoint_convexity_slack(quad, x1, x2)
            fmid = ratio.ratio_value(quad, 0.5 * (x1 + x2))
            assert slack >= -1e-12 * abs(fmid), (quad, x1, x2, slack)
            if not slack > 0:
                floor_hits += 1
    # the slack decays exponentially in the tails; a handful of sub-noise
    # samples may sit at 0, but never below the floating floor
    assert floor_hits < 40
    _ok(f"criterion 4: midpoint convexity on 3x3334 draws "
        f"({floor_hits} at the rounding floor)")


def test_criterion_05_trichotomy_and_linearity():
    """Sign of the ln r midpoint slack follows the discriminant class."""
    for sign, expect in (("positive", 1), ("negative", -1), ("zero", 0)):
        stream = SampleStream(20240805, f"acc/tri/{sign}")
        for i in range(10_000):
            quad = sample_quad(stream, i, sign=sign)
            u = stream.floats(i, 2, salt=1)
            x1 = -10.0 + 20.0 * u[0]
            x2 = x1 + 0.1 + 10.0 * u[1]
            slack = ratio.midpoint_convexity_slack(quad, x1, x2, of_log=True)
            floor = 1e-14 * (1.0 + abs(ratio.log_ratio_value(quad, x1))
                             + abs(ratio.log_ratio_value(quad, x2)))
            if expect > 0:
                assert slack > -floor, (quad, x1, x2, slack)
            elif expect < 0:
                assert slack < floor, (quad, x1, x2, slack)
            else:
                assert abs(slack) <= floor, (quad, x1, x2, slack)
    # zero-discriminant linearity: ln r(x) = x ln(b/d) to 1e-12 relative
    stream = SampleStream(20240805, "acc/lin")
    for i in range(1000):
        quad = sample_quad(stream, i, sign="zero")
        slope = quad.ln_b - quad.ln_d
        for x in range(-10, 11):
            if x == 0:
                continue
            g = ratio.log_ratio_value(quad, float(x))
            assert abs(g - x * slope) <= 1e-12 * abs(x * slope) + 1e-15
    _ok("criterion 5: trichotomy on 3x10000 draws; zero-class linearity on 1000")


def test_criterion_06_eq4_through_eq12():
    """EQ4 .. EQ12 sweeps, EQ4 equality at p = q, EQ5 worked chain."""
    ids = ("EQ4", "EQ5", "EQ6", "EQ8", "EQ9", "EQ10", "EQ11", "EQ12")
    rep = run_sweep(SweepConfig(ids=ids, samples=10_000, seed=20240806))
    assert rep["total_violations"] == 0
    for id in ids:
        assert rep["results"][id]["samples_run"] == 10_000
    # equality at p = q on sampled quads
    stream = SampleStream(20240806, "acc/eq4")
    for i in range(1000):
        quad = sample_quad(stream, i)
        (u,) = stream.floats(i, 1, salt=2)
        p = -2.5 + 5.0 * u
        if abs(p) < 1e-3 or abs(p + 1.0) < 1e-3:
            continue
        assert abs(catalog.REGISTRY["EQ4"].report(quad, p, p).slacks[0]) <= 1e-11
    # worked chain: exp(1 - L(2,1)/L(4,3)) < I(4,3)/I(2,1) < exp(L(4,3)/L(2,1) - 1)
    lab = means.logarithmic_mean(4.0, 3.0)
    lcd = means.logarithmic_mean(2.0, 1.0)
    chain = (math.exp(1.0 - lcd / lab),
             means.identric_mean(4.0, 3.0) / means.identric_mean(2.0, 1.0),
             math.exp(lab / lcd - 1.0))
    frozen = (1.794924, 2.370370, 4.093584)   # oracle-derived, 64/27 in the middle
    for got, expect in zip(chain, frozen):
        assert got == pytest.approx(expect, abs=1e-6)
    assert chain[0] < chain[1] < chain[2]
    _ok("criterion 6: EQ4..EQ12 sweeps clean at 10000 each; worked chain matches")


def test_criterion_07_eq13_direction():
    """Oriented EQ13 slack positive per class; zero class within 1e-11."""
    for sign in ("positive", "negative", "zero"):
        stream = SampleStream(20240807, f"acc/eq13/{sign}")
        pstream = SampleStream(20240807, f"acc/eq13/{sign}/p")
        for i in range(10_000):
            quad = sample_quad(stream, i, sign=sign)
            u = pstream.floats(i, 2)
            p = -2.5 + 5.0 * u[0]
            q = -2.5 + 5.0 * u[1]
            if (abs(p) < 1e-3 or abs(p + 1.0) < 1e-3 or abs(q) < 1e-3
                    or abs(q + 1.0) < 1e-3 or abs(p - q) < 1e-3):
                continue
            rep = catalog.REGISTRY["EQ13"].report(quad, p, q)
            if sign == "zero":
                assert abs(rep.slacks[0]) <= 1e-11, (quad, p, q)
            else:
                assert rep.slacks[0] > 0, (quad, p, q, rep.slacks)
    _ok("criterion 7: EQ13 direction keyed to the discriminant on 3x10000 draws")


def test_criterion_08_eq14_chain():
    """Mean-ratio chain ascending/descending/flat by class; worked ratios."""
    for sign in ("positive", "negative", "zero"):
        stream = SampleStream(20240808, f"acc/eq14/{sign}")
        for i in range(10_000):
            quad = sample_quad(stream, i, sign=sign)
            rep = catalog.REGISTRY["EQ14"].report(quad)
            if sign == "zero":
                assert max(abs(s) for s in rep.slacks) <= 1e-11
                assert rep.verdict == EQUALITY
            else:
                assert all(s > 0 for s in rep.slacks), (quad, rep.slacks)
    # worked negative example (4,3,2,1): H,G,L,I,A ratios descending
    rep = catalog.REGISTRY["EQ14"].report(ratio.OrderedQuad(4, 3, 2, 1))
    ratios = [math.exp(v) for v in catalog._ln_mean_ratios(ratio.OrderedQuad(4, 3, 2, 1))]
    for got, expect in zip(ratios, (2.5714, 2.4495, 2.4094, 2.3704, 2.3333)):
        assert got == pytest.approx(expect, abs=1e-4)
    assert all(x > y for x, y in zip(ratios, ratios[1:]))
    # zero example (4,2,2,1): all ratios equal b/d = 2
    ratios = [math.exp(v) for v in catalog._ln_mean_ratios(ratio.OrderedQuad(4, 2, 2, 1))]
    assert all(r == pytest.approx(2.0, rel=1e-12) for r in ratios)
    _ok("criterion 8: EQ14 chain on 3x10000 draws; worked ratios match")


def test_criterion_09_sequences_every_n():
    """All seven sequence slacks positive for every n in 1..1e6, < 10 s."""
    t0 = time.monotonic()
    chunk = 200_000
    mins = [math.inf] * 7
    for start in range(1, 1_000_001, chunk):
        ns = range(start, min(start + chunk, 1_000_001))
        values = tuple(zip(*map(catalog.sequence_link_values, ns)))
        for k in range(7):
            assert min(values[k]) > 0.0, (k, start)
            mins[k] = min(mins[k], min(values[k]))
    # worked values at n = 1
    m15 = (1.5, 1.0 + math.log(math.sqrt(3.0)), math.log(2.0) / math.log(1.5))
    assert m15[1] == pytest.approx(1.549306, abs=1e-6)
    assert m15[2] == pytest.approx(1.709511, abs=1e-6)
    assert m15[0] < m15[1] < m15[2]
    m17 = (5.0 / 3.0, 1.6875, 1.709511, 1.732051, 1.8)
    got = [math.exp(v) for v in
           catalog._ln_mean_ratios(ratio.OrderedQuad(3.0, 2.0, 2.0, 1.0))]
    # chain at n=1 is (A, I, L, G, H) ascending = reversed mean-ratio order
    for expect, value in zip(m17, reversed(got)):
        assert value == pytest.approx(expect, abs=1e-6)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"sequence sweep took {elapsed:.2f}s"
    _ok(f"criterion 9: sequence slacks positive for n = 1..1e6 in {elapsed:.2f}s "
        f"(smallest link {min(mins):.2e})")


def test_criterion_10_kyfan_suite():
    """EQ18..EQ31 on 1e5 samples, EQ20 identity at n = 2, bridge agreement."""
    vstream = SampleStream(20240810, "acc/kyfan/values")
    nstream = SampleStream(20240810, "acc/kyfan/n")
    t0 = time.monotonic()
    n2_checked = 0
    for i in range(100_000):
        n = 2 + nstream.words(i, 1)[0] % 19
        stats = kyfan.compute_stats(kyfan.KyFanSample(sample_kyfan_values(vstream, i, n)))
        reports = kyfan.all_slacks(stats)
        for id, rep in reports.items():
            assert rep.verdict in (HOLDS, EQUALITY), (id, i, rep.slacks)
        if n == 2:
            n2_checked += 1
            assert abs(reports["EQ20"].slacks[0]) <= 1e-15, (i, reports["EQ20"].slacks)
    # bridge: kyfan formulas vs the catalog on the quadruple (A', G', A, G)
    for i in range(1000):
        n = 2 + nstream.words(i, 1, salt=1)[0] % 19
        stats = kyfan.compute_stats(kyfan.KyFanSample(
            sample_kyfan_values(vstream, 200_000 + i, n)))
        for name, (kv, cv) in kyfan.bridge_slacks(stats).items():
            assert abs(kv - cv) <= 1e-12 * max(1.0, abs(kv)), (name, kv, cv)
    _ok(f"criterion 10: Ky Fan suite on 100000 samples "
        f"({n2_checked} with n=2) + bridge on 1000, in {time.monotonic()-t0:.1f}s")


def test_criterion_11_oracle_dominance():
    """binary64 vs 50-digit oracle: 1e-13 well-separated, 1e-10 stressed."""
    t0 = time.monotonic()
    mean_fns = {"A": means.arithmetic_mean, "G": means.geometric_mean,
                "H": means.harmonic_mean, "L": means.logarithmic_mean,
                "I": means.identric_mean}
    ratio_fns = {"f": ratio.ratio_value, "g": ratio.log_ratio_value,
                 "f_prime": ratio.ratio_derivative,
                 "g_prime": ratio.log_ratio_derivative}
    pair_stream = SampleStream(20240811, "acc/oracle/pairs")
    quad_stream = SampleStream(20240811, "acc/oracle/quads")
    worst = {}

    def record(op, rel):
        worst[op] = max(worst.get(op, 0.0), rel)

    counts = {op: 0 for op in list(mean_fns) + ["Lp"] + list(ratio_fns)}
    n_per_op = 1000
    i = 0
    while min(counts.values()) < n_per_op:
        a, b = sample_pair(pair_stream, i, min_ratio=1.05)
        for op, fn in mean_fns.items():
            if counts[op] < n_per_op:
                rel = oracle_rel_err(fn(a, b), oracle_eval(op, {"a": a, "b": b}, 50))
                record(op, rel)
                counts[op] += 1
        (u,) = pair_stream.floats(i, 1, salt=3)
        p = -3.0 + 6.0 * u
        if abs(p) < 0.05 or abs(p + 1.0) < 0.05:
            p = 0.5
        if counts["Lp"] < n_per_op:
            rel = oracle_rel_err(means.p_logarithmic_mean(a, b, p),
                                 oracle_eval("Lp", {"a": a, "b": b, "p": p}, 50))
            record("Lp", rel)
            counts["Lp"] += 1

        quad = sample_quad(quad_stream, i)
        (ux,) = quad_stream.floats(i, 1, salt=3)
        x = -5.0 + 10.0 * ux
        i += 1
        if quad.r_ab < 0.05 or quad.r_cd < 0.05:
            continue
        inp = {**quad.as_dict(), "x": x}
        for op, fn in ratio_fns.items():
            if counts[op] >= n_per_op:
                continue
            val = fn(quad, x)
            if op == "g" and abs(val) < 1.0:
                continue   # separation from the op's zero set for a relative test
            rel = oracle_rel_err(val, oracle_eval(op, inp, 50))
            record(op, rel)
            counts[op] += 1
    for op, w in sorted(worst.items()):
        assert w <= 1e-13, (op, w)

    # near-degenerate stress set: a/b - 1 = 1e-8, |x| = 1e-9, |p| = 1e-7
    stress_worst = 0.0
    a, b = 1.0 + 1e-8, 1.0
    for op, fn in mean_fns.items():
        rel = oracle_rel_err(fn(a, b), oracle_eval(op, {"a": a, "b": b}, 50))
        stress_worst = max(stress_worst, rel)
    for p in (1e-7, -1e-7):
        rel = oracle_rel_err(means.p_logarithmic_mean(a, b, p),
                             oracle_eval("Lp", {"a": a, "b": b, "p": p}, 50))
        stress_worst = max(stress_worst, rel)
    # doubly-degenerate quad: every pair ratio is 1 + O(1e-8); note it also
    # drives the VALUE of g toward zero, where a relative bound is ill-posed
    # (g there is below input resolution), so g is stressed on a second quad
    # with a/b - 1 = 1e-8 but a value of order one
    quad_deg = ratio.OrderedQuad(1.0 + 3e-8, 1.0 + 2e-8, 1.0 + 1e-8, 1.0)
    quad_val = ratio.OrderedQuad(2.0 * (1.0 + 1e-8), 2.0, 2.0, 1.0)
    for x in (1e-9, -1e-9):
        for op, fn in ratio_fns.items():
            quad = quad_val if op == "g" else quad_deg
            inp = {**quad.as_dict(), "x": x}
            rel = oracle_rel_err(fn(quad, x), oracle_eval(op, inp, 50))
            stress_worst = max(stress_worst, rel)
        for op, fn in ratio_fns.items():
            if op == "g":
                continue
            inp = {**quad_val.as_dict(), "x": x}
            rel = oracle_rel_err(fn(quad_val, x), oracle_eval(op, inp, 50))
            stress_worst = max(stress_worst, rel)
    assert stress_worst <= 1e-10, stress_worst
    _ok(f"criterion 11: oracle dominance, worst separated "
        f"{max(worst.values()):.2e}, worst stressed {stress_worst:.2e}, "
        f"in {time.monotonic()-t0:.1f}s")


def test_criterion_12_sweep_determinism(tmp_path):
    """Two 100k-sample CLI sweeps with different worker counts, byte-identical."""
    t0 = time.monotonic()
    outs = []
    for tag, workers in (("one", "1"), ("four", "4")):
        out = tmp_path / f"report_{tag}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "meanineq.cli", "sweep", "--ids", "all",
             "--samples", "100000", "--seed", "42", "--workers", workers,
             "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    reports = []
    for out in outs:
        rep = json.loads(out.read_text())
        assert rep["total_violations"] == 0
        rep.pop("wall_time_s")
        reports.append(dumps(rep))
    assert reports[0] == reports[1]
    _ok(f"criterion 12: byte-identical 100000-sample sweeps across worker "
        f"counts in {time.monotonic()-t0:.1f}s")
