import hashlib
import json
import math
import random
import sys

import mpmath
import pytest

from meanineq import catalog, kyfan, ratio, sweep
from meanineq.cli import main
from meanineq.kyfan import (KYFAN_IDS, SPREAD_EQUALITY, TABLE, KyFanSample, _rows, all_slacks,
                            bridge_slacks, complement_ratio_probe, compute_stats)
from meanineq.ratio import OrderedQuad, ratio_value
from meanineq.report import EQUALITY, HOLDS, VIOLATED, HypothesisViolation
from meanineq.report import dumps, judge
from meanineq.rng import SampleStream, sample_kyfan_values
from meanineq.sweep import SweepConfig, run_kyfan_sweep


CLASSIC_IDS = ("EQ18", "EQ19", "EQ20")


def stats_of(values):
    return compute_stats(KyFanSample(values))


class TestSampleAndStats:
    def test_domain_rejection(self):
        for bad in ([0.0, 0.1], [0.6], [-0.1], [float("nan")], []):
            with pytest.raises(ValueError):
                KyFanSample(bad)
        for bad in (math.nextafter(0.5, 1.0), -0.0, math.inf):
            with pytest.raises(ValueError, match=r"sample values must lie in \(0, 1/2\]"):
                KyFanSample([0.25, bad])
        KyFanSample([0.5])     # right endpoint included
        assert KyFanSample(v for v in (0.25, 0.5)).values == (0.25, 0.5)

    def test_worked_stats(self):
        s = stats_of([0.1, 0.2])
        assert s.a == pytest.approx(0.15, abs=1e-16)
        assert s.g == pytest.approx(math.sqrt(0.02), rel=1e-15)
        assert s.a_prime == pytest.approx(0.85, abs=1e-15)
        assert s.g_prime == pytest.approx(math.sqrt(0.72), rel=1e-15)

    def test_single_and_constant(self):
        s = stats_of([0.3])
        assert s.a == s.g == 0.3 and s.a_prime == s.g_prime == 0.7
        s = stats_of([0.5, 0.5])
        assert s.a == s.g == s.a_prime == s.g_prime == 0.5
        assert s.all_equal

    def test_complement_sum(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 50)
            s = stats_of([rng.uniform(1e-6, 0.5) for _ in range(n)])
            assert abs(s.a + s.a_prime - 1.0) <= 2 * 2.0 ** -52

    def test_invariant_ordering(self):
        rng = random.Random(8)
        for _ in range(200):
            n = rng.randint(2, 30)
            s = stats_of([rng.uniform(1e-6, 0.5) for _ in range(n)])
            assert 0 < s.g <= s.a <= 0.5 <= s.a_prime <= 1.0
            assert s.g_prime <= s.a_prime
            if not s.all_equal:
                # ordering used by the refinement chains
                assert s.a_prime > s.g_prime > s.a > s.g > 0

    def test_permutation_invariance(self):
        vals = [0.1, 0.25, 0.4, 0.32, 0.07]
        s1 = stats_of(vals)
        s2 = stats_of(list(reversed(vals)))
        assert (s1.a, s1.g, s1.a_prime, s1.g_prime) == (s2.a, s2.g, s2.a_prime, s2.g_prime)
        r1 = all_slacks(s1)
        r2 = all_slacks(s2)
        for id in r1:
            assert r1[id].slacks == r2[id].slacks


class TestClassicSlacks:
    def test_all_equal_collapse(self):
        reports = all_slacks(stats_of([0.37, 0.37, 0.37]))
        for rep in reports.values():
            assert rep.slacks == (0.0,) * len(rep.slacks)
            assert rep.verdict == EQUALITY

    def test_two_element_power_identity(self):
        # (A^2 - G^2) equals ((x1-x2)/2)^2 on both sides: slack is pure roundoff
        rng = random.Random(9)
        for _ in range(300):
            x1, x2 = rng.uniform(1e-6, 0.5), rng.uniform(1e-6, 0.5)
            rep = all_slacks(stats_of([x1, x2]))["EQ20"]
            assert abs(rep.slacks[0]) <= 1e-15
            assert rep.verdict == EQUALITY

    def test_worked_pair(self):
        reports = all_slacks(stats_of([0.1, 0.2]))
        s = stats_of([0.1, 0.2])
        expect18 = (math.log(s.a / s.g)) - (math.log(s.a_prime / s.g_prime))
        assert reports["EQ18"].slacks[0] == pytest.approx(expect18, rel=1e-12)
        assert reports["EQ18"].slacks[0] > 0
        assert reports["EQ19"].slacks[0] > 0

    def test_strictness_off_manifold(self):
        rng = random.Random(10)
        for _ in range(200):
            n = rng.randint(3, 12)
            vals = [rng.uniform(1e-3, 0.5) for _ in range(n)]
            if max(vals) - min(vals) < 1e-3:
                continue
            for id, rep in all_slacks(stats_of(vals)).items():
                if id not in CLASSIC_IDS or id == "EQ20" and n <= 2:
                    continue
                assert rep.verdict in (HOLDS, EQUALITY)
                assert min(rep.slacks) > -1e-12


class TestRefinements:
    def test_eq21_worked(self):
        s = stats_of([0.1, 0.2])
        rep = all_slacks(s)["EQ21"]
        expect = ((s.a + s.g) * math.log(s.a / s.g)
                  - (s.a_prime + s.g_prime) * math.log(s.a_prime / s.g_prime))
        assert rep.slacks[0] == pytest.approx(expect, rel=1e-10)
        assert rep.slacks[0] > 0

    def test_eq22_equality_on_constant(self):
        reports = all_slacks(stats_of([0.25, 0.25]))
        assert set(reports) == {"EQ18", "EQ19", "EQ20", "EQ21", "EQ22"}
        for rep in reports.values():
            assert rep.verdict == EQUALITY

    def test_strict_ids_reject_constant(self):
        s = stats_of([0.25, 0.25])
        with pytest.raises(HypothesisViolation):
            complement_ratio_probe(s, 1.0)

    def test_all_hold_on_samples(self):
        stream = SampleStream(41, "test/kyfan")
        nstream = SampleStream(41, "test/kyfan-n")
        for i in range(400):
            n = 2 + nstream.words(i, 1)[0] % 19
            stats = compute_stats(KyFanSample(sample_kyfan_values(stream, i, n)))
            for id, rep in all_slacks(stats).items():
                assert rep.verdict in (HOLDS, EQUALITY), (id, rep.slacks)
        assert set(all_slacks(stats)) == set(KYFAN_IDS)

    def test_eq25_and_eq26_worked(self):
        s = stats_of([0.1, 0.2, 0.3])
        reps = all_slacks(s)
        # EQ25: brute-force both sides
        n = 3
        lhs = (s.a_prime ** n - s.g_prime ** n) / (s.a ** n - s.g ** n)
        rhs = (s.a_prime ** n * s.g_prime ** n * math.log(s.a_prime / s.g_prime)) / (
            s.a ** n * s.g ** n * math.log(s.a / s.g))
        assert reps["EQ25"].slacks[0] == pytest.approx(math.log(rhs) - math.log(lhs),
                                                       rel=1e-9)
        assert reps["EQ25"].slacks[0] > 0
        # EQ26: recompute every member directly and check the ordering
        r, rp = math.log(s.a / s.g), math.log(s.a_prime / s.g_prime)
        lnsq = 0.5 * math.log(s.a_prime * s.g_prime / (s.a * s.g))
        from meanineq.means import identric_mean
        ln_ir = math.log(identric_mean(s.a_prime, s.g_prime)
                         / identric_mean(s.a, s.g))
        m0a = lhs * (s.a * s.g / (s.a_prime * s.g_prime)) ** (n / 2.0)
        m0b = ((s.a_prime - s.g_prime) / (s.a - s.g)) * math.sqrt(
            s.a * s.g / (s.a_prime * s.g_prime))
        mid = rp / r
        m2 = ((s.a_prime - s.g_prime) / (s.a - s.g)) * ln_ir / lnsq
        m3a = (s.a_prime - s.g_prime) / (s.a - s.g)
        m3b = ln_ir / lnsq
        assert max(m0a, m0b) < mid < m2 < min(m3a, m3b) < 1.0
        assert all(x > 0 for x in reps["EQ26"].slacks)


class TestProbeAndBridge:
    def test_probe_worked_values(self):
        s = stats_of([0.1, 0.2])
        assert complement_ratio_probe(s, 0.0) == pytest.approx(
            math.log(s.a_prime / s.g_prime) / math.log(s.a / s.g), rel=1e-10)
        assert complement_ratio_probe(s, 0.0) == pytest.approx(0.029428, abs=1e-6)
        assert complement_ratio_probe(s, 1.0) == pytest.approx(0.17158, abs=1e-5)
        assert complement_ratio_probe(s, -2.0) < complement_ratio_probe(s, 0.0)

    def test_probe_delegates_to_ratio(self):
        s = stats_of([0.11, 0.17, 0.31])
        quad = OrderedQuad(s.a_prime, s.g_prime, s.a, s.g)
        for x in (-3.0, -1.0, 0.0, 0.4, 2.0):
            assert complement_ratio_probe(s, x) == ratio_value(quad, x)

    def test_probe_minus_n_below_zero_value(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(2, 15)
            vals = [rng.uniform(1e-3, 0.5) for _ in range(n)]
            s = stats_of(vals)
            if s.all_equal:
                continue
            assert complement_ratio_probe(s, -float(n)) < complement_ratio_probe(s, 0.0)

    def test_bridge_agreement(self):
        stream = SampleStream(43, "test/bridge")
        nstream = SampleStream(43, "test/bridge-n")
        for i in range(300):
            n = 2 + nstream.words(i, 1)[0] % 19
            stats = compute_stats(KyFanSample(sample_kyfan_values(stream, i, n)))
            for name, (kv, cv) in bridge_slacks(stats).items():
                assert abs(kv - cv) <= 1e-12 * max(1.0, abs(kv)), (name, kv, cv)

    def test_bridge_sees_a_faulty_identric_kernel(self, monkeypatch):
        # the bridge reads ln I through the public means, so a fault in the
        # centred kernel w lambda'(w), which _rows and the catalog both read,
        # shows as a disagreement: the bridge is a second path, not a copy
        kernel = kyfan.ln_identric
        for mod in (catalog, kyfan, ratio):
            monkeypatch.setattr(mod, "ln_identric", lambda w: kernel(w) * (1.0 + 1e-9))
        stream = SampleStream(43, "test/bridge")
        nstream = SampleStream(43, "test/bridge-n")
        disagree = 0
        for i in range(300):
            n = 2 + nstream.words(i, 1)[0] % 19
            stats = compute_stats(KyFanSample(sample_kyfan_values(stream, i, n)))
            disagree += sum(abs(kv - cv) > 1e-12 * max(1.0, abs(kv))
                            for kv, cv in bridge_slacks(stats).values())
        assert disagree >= 300

    @pytest.mark.parametrize("kernel", ["ln_identric", "ln_logarithmic"])
    def test_bridge_sees_a_faulty_rows_kernel(self, monkeypatch, kernel):
        # _rows' ln I-ratio and EQ31's L term are read against the catalog's
        # lambda context, so a fault in this module's binding of either
        # kernel alone shows as a disagreement (244 and 212 of 300 samples)
        fn = getattr(kyfan, kernel)
        monkeypatch.setattr(kyfan, kernel, lambda w: fn(w) * (1.0 + 1e-9))
        stream = SampleStream(43, "test/bridge")
        nstream = SampleStream(43, "test/bridge-n")
        disagree = 0
        for i in range(300):
            n = 2 + nstream.words(i, 1)[0] % 19
            stats = compute_stats(KyFanSample(sample_kyfan_values(stream, i, n)))
            disagree += sum(abs(kv - cv) > 1e-12 * max(1.0, abs(kv))
                            for kv, cv in bridge_slacks(stats).values())
        assert disagree >= 150

    def test_contraction_to_mean_collapses_slacks(self):
        base = [0.1, 0.2, 0.4]
        mean = sum(base) / 3.0
        prev = None
        for t in (1.0, 0.5, 0.25, 0.125, 0.0625):
            vals = [(1 - t) * mean + t * x for x in base]
            reps = all_slacks(stats_of(vals))
            worst = max(max(rep.slacks) for rep in reps.values())
            margin18 = reps["EQ18"].slacks[0]
            if prev is not None:
                assert margin18 < prev
            prev = margin18
        assert prev < 1e-3


def test_wide_n_sweep_finishes(capsys):
    # EQ27's last member is rp e^(n ln_s); at n in the thousands e^(n ln_s)
    # is past binary64, and the sweep must still finish
    assert main(["kyfan-sweep", "--samples", "50", "--n-max", "10000"]) == 0
    assert json.loads(capsys.readouterr().out)["total_violations"] == 0


@pytest.mark.parametrize("n", [574, 576, 578, 3000])
def test_eq27_tail_near_and_past_binary64(n):
    # evenly spread samples have ln_s ~ 1.235 and rp ~ 0.019: e^(n ln_s) is
    # finite at n = 574 and past binary64 from 576 on, while the member
    # rp e^(n ln_s) is finite up to n = 576 and past binary64 from 578 on
    stats = compute_stats(KyFanSample([0.001 + 0.499 * i / (n - 1) for i in range(n)]))
    reps = all_slacks(stats)
    assert all(rep.verdict != VIOLATED for rep in reps.values())
    ln_s = 0.5 * ((stats.ln_a_prime + stats.ln_g_prime) - (stats.ln_a + stats.ln_g))
    with mpmath.workdps(30):
        exact = mpmath.mpf(stats.r_prime) * mpmath.exp(n * mpmath.mpf(ln_s)) - stats.r
        tail = reps["EQ27"].slacks[3]
        if exact > sys.float_info.max:
            assert tail == math.inf
        else:
            assert abs(tail - exact) <= 1e-12 * exact


class TestTable:
    """The Ky Fan table's constant columns and ``_rows``' computed ones line
    up, as each catalog entry's links and its row's slacks do."""

    def test_entries_in_id_order(self):
        assert tuple(entry.id for entry in TABLE) == KYFAN_IDS
        assert KYFAN_IDS == tuple(f"EQ{k}" for k in range(18, 32))
        assert all(entry.domain in ("log_ratio", "additive") for entry in TABLE)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_one_slack_per_link(self, n):
        stream = SampleStream(27, "test/table")
        for index in range(10):
            values = sample_kyfan_values(stream, index, n)
            for sample in (values, [values[0]] * n):
                stats = stats_of(sample)
                rows = _rows(stats)
                # a constant sample has rows for EQ18..EQ22 only, any other all fourteen
                assert len(rows) == (5 if stats.all_equal else len(TABLE))
                assert stats.all_equal == (sample is not values or n == 1)
                if stats.all_equal:
                    assert list(all_slacks(stats)) == ["EQ18", "EQ19", "EQ20", "EQ21", "EQ22"]
                for entry, (slacks, tolerance, _) in zip(TABLE, rows):
                    assert len(slacks) == len(entry.links), entry.id
                    assert type(tolerance) is float
                    assert all(type(s) is float for s in slacks), entry.id


def _judged(stats):
    """``(id, margin, verdict)`` of each table row, judged as a sweep judges it."""
    return [(id, *judge(slacks, tolerance, eq)) for id, (slacks, tolerance, eq)
            in zip(KYFAN_IDS, _rows(stats))]


class TestMarginsMatchReports:
    """A sweep judges the rows ``all_slacks`` builds its reports from: the
    same ids in the same order, each with the report's margin and verdict."""

    @staticmethod
    def assert_same(stats):
        folded = [(id, repr(margin), verdict) for id, margin, verdict in _judged(stats)]
        shown = [(id, repr(rep.margin), rep.verdict) for id, rep in all_slacks(stats).items()]
        assert folded == shown

    @pytest.mark.parametrize("n_range", [(2, 20), (1, 3)])
    def test_chunk_fold(self, n_range):
        # the chunk's fold of a sweep's draws is the fold of their reports;
        # n = 1 draws constant samples, which have rows for EQ18..EQ22 only
        config = SweepConfig(samples=sweep._CHUNK, seed=8, kyfan_n_range=n_range)
        aggs = sweep._run_chunk(("kyfan_sweep", config, 0, 0, None))
        group = sweep._group("kyfan_sweep", config, 0)
        want = {id: [0, math.inf, -1, 0, []] for id in KYFAN_IDS}
        for index in range(config.samples):
            for id, rep in all_slacks(compute_stats(KyFanSample(group.draw(index)[1]))).items():
                w = want[id]
                w[0] += 1
                if rep.margin < w[1]:
                    w[1:3] = rep.margin, index
                w[3] += rep.verdict == EQUALITY
                w[4] += [index] if rep.verdict == VIOLATED else []
        for id, agg in aggs.items():
            got = [agg.samples_run, agg.min_margin, agg.argmin_index, agg.equality_cases,
                   [v["sample_index"] for v in agg.violations]]
            assert got == want[id], id
            assert agg.violation_count == len(want[id][4])
        strict = [aggs[id].samples_run for id in KYFAN_IDS[5:]]
        assert len(set(strict)) == 1
        assert (strict[0] < config.samples) == (n_range[0] == 1)

    def test_sampled(self):
        stream = SampleStream(44, "test/margins")
        nstream = SampleStream(44, "test/margins-n")
        for i in range(2000):
            n = 1 + nstream.words(i, 1)[0] % 20
            self.assert_same(compute_stats(KyFanSample(sample_kyfan_values(stream, i, n))))

    @pytest.mark.parametrize("values", [
        [0.3], [0.37, 0.37, 0.37], [0.5, 0.5],
        [0.3, 0.3 * (1 + 1e-3), 0.3 * (1 + 2e-3)],        # spread inside SPREAD_EQUALITY
        [0.5] + [0.01] * 199,                             # A^n, G^n underflow: EQ20's branch
        [0.001 + 0.499 * i / 9999 for i in range(10000)],  # EQ27's inverse tail is +inf
    ])
    def test_edge_samples(self, values):
        stats = compute_stats(KyFanSample(values))
        self.assert_same(stats)
        if len(values) == 3 and not stats.all_equal:
            assert 0.0 < stats.spread <= SPREAD_EQUALITY
        if len(values) == 200:
            assert stats.n * stats.ln_a < -700.0
        if len(values) == 10000:
            assert all_slacks(stats)["EQ27"].slacks[3] == math.inf

    def test_nan_statistic(self):
        stats = stats_of([0.1, 0.2, 0.4])._replace(r=math.nan)
        self.assert_same(stats)
        assert dict((id, verdict) for id, _, verdict in _judged(stats))["EQ18"] == VIOLATED

    def test_near_constant_samples_report_or_raise(self):
        # means that binary64 cannot separate are a hypothesis error, not a crash
        rng = random.Random(15)
        raised = 0
        for _ in range(6000):
            n = rng.randint(2, 20)
            centre = 10.0 ** rng.uniform(-300.0, math.log10(0.5))
            spread = 10.0 ** rng.uniform(-18.0, 0.0)
            stats = stats_of([min(0.5, centre * (1.0 + 0.5 * spread * rng.uniform(-1.0, 1.0)))
                              for _ in range(n)])
            try:
                self.assert_same(stats)
            except HypothesisViolation:
                for fn in (_rows, all_slacks):
                    with pytest.raises(HypothesisViolation, match="A > G and A' > G'"):
                        fn(stats)
                raised += 1
        assert 0 < raised < 6000


#: sha256 of every KyFanStats field and every ``_rows`` slack, tolerance and
#: flag, as reprs, over 600 seeded samples with n in 1..20, every fifth made
#: constant: the statistics and rows beneath the reports' margins.
INTERMEDIATES_SHA = "4b36bc9c9b5b27f5c44feb36e05fa57951e33e869f49ad98d7be13efb20f5988"


def test_intermediates_pinned():
    stream = SampleStream(5, "test/intermediates")
    nstream = SampleStream(5, "test/intermediates-n")
    h = hashlib.sha256()
    for i in range(600):
        n = 1 + nstream.words(i, 1)[0] % 20
        values = sample_kyfan_values(stream, i, n)
        if i % 5 == 0:
            values = [values[0]] * n
        stats = stats_of(values)
        h.update(repr((tuple(stats), _rows(stats))).encode() + b"\n")
    assert h.hexdigest() == INTERMEDIATES_SHA


#: sha256 of ``kyfan-sweep --samples 3000 --seed 42``: the report less
#: wall_time_s as ``report.dumps`` writes it, and the CSV, re-pinned when the
#: rows took ln I and ln L through the centred pairs' kernels.
SWEEP_REPORT_SHA = "ec10f8cc2651c1e25ef7ee04869d2c60a391d206926115f2814b27e44abf3629"
SWEEP_CSV_SHA = "82e63c95043fe64102d1ebd0938f4672a2702fd3a96ab01eee05e5925bcbd059"


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_bytes_pinned(tmp_path, workers):
    rows = tmp_path / "rows.csv"
    rep = run_kyfan_sweep(SweepConfig(samples=3000, seed=42, workers=workers),
                          csv_path=str(rows))
    rep.pop("wall_time_s")
    assert hashlib.sha256(dumps(rep).encode()).hexdigest() == SWEEP_REPORT_SHA
    assert hashlib.sha256(rows.read_bytes()).hexdigest() == SWEEP_CSV_SHA


#: sha256 of ``kyfan-check --x X`` stdout: every link name and slack of every
#: id, pinned from before the reports were built from the shared rows; the
#: first and third re-pinned with the sweep's pins above.
CHECK_SHA = {
    "0.1,0.2,0.35": "e418f7cda38b835ffe3e2faf4f4941150197d1550ffa1cebf223882b74b58323",
    "0.25,0.2500001,0.25": "3a18f3f8691462f5bea2a61e095292debcb32c8bf36ff6b48734424dae070e1f",
    "[1e-300, 0.5, 0.4]": "fa38a2b743eadcbfcb653fa6e39af67b6f8e88cbb60879c2605989e7150d94ef",
    # constant samples: EQ21/EQ22 print a slack of 0.0, never -0.0
    "0.5": "756238e9b25468d057bbf704e6df2c62df5d8a86d418e6e544d9af0d235d1c67",
    "0.37,0.37,0.37": "a2022a008dc66117121d286ec9f1fa69e50b0e26eaaa5a1e135199878c61783e",
}


@pytest.mark.parametrize("x", CHECK_SHA)
def test_check_output_pinned(capsys, x):
    assert main(["kyfan-check", "--x", x]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CHECK_SHA[x]
