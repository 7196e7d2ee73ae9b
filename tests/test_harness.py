import hashlib
import math

import pytest

from meanineq.ratio import DiscClass
from meanineq.report import dumps
from meanineq.rng import (B_EQ_C_PROB, DEFAULT_RANGE, KYFAN_EPS, SampleStream,
                          SamplingError, sample_exponent, sample_int,
                          sample_kyfan_values, sample_pair, sample_quad)
from meanineq.sweep import (SweepConfig, resolve_ids, run_kyfan_sweep,
                            run_sweep)
from meanineq import catalog, sweep


class TestStreams:
    def test_determinism(self):
        s1 = SampleStream(42, "quad")
        s2 = SampleStream(42, "quad")
        assert s1.floats(7, 5) == s2.floats(7, 5)
        assert s1.floats(7, 5, salt=1) != s1.floats(7, 5, salt=0)
        assert SampleStream(43, "quad").floats(7, 5) != s1.floats(7, 5)
        assert SampleStream(42, "other").floats(7, 5) != s1.floats(7, 5)

    def test_known_words_are_stable(self):
        # frozen regression anchor: platform-independent BLAKE2b stream
        w = SampleStream(1, "anchor").words(0, 2)
        assert w == [14048178555613350725, 5657503219804629634]

    def test_ranges(self):
        s = SampleStream(5, "r")
        fs = s.floats(0, 1000)
        assert all(0.0 <= f < 1.0 for f in fs)
        fo = s.floats_open(0, 1000)
        assert all(0.0 < f <= 1.0 for f in fo)


def _quad_state(q):
    return (q.a, q.b, q.c, q.d, q.ln_a, q.ln_b, q.ln_c, q.ln_d, q.r_ab, q.r_cd,
            q.h_ab, q.h_cd, q.disc_class.value, q.relaxed)


def _contract_draws():
    """name -> draw(i) for every sampler a sweep uses, each on its own stream."""
    def stream(label):
        return SampleStream(2024, f"contract/{label}")

    draws = {}
    for sign in ("any", "positive", "negative", "zero"):
        for tag, bounds in (("default", DEFAULT_RANGE), ("wide", (1e-30, 1e30))):
            s = stream(f"quad/{sign}/{tag}")
            draws[f"quad/{sign}/{tag}"] = (
                lambda i, s=s, sign=sign, bounds=bounds:
                _quad_state(sample_quad(s, i, sign=sign, bounds=bounds)))
    s_pair, s_n, s_int, s_kf, s_words = (stream(label) for label in
                                          ("pair", "n", "int", "kyfan", "words"))
    draws["pair"] = lambda i: sample_pair(s_pair, i, min_ratio=catalog.EQ10_MIN_RATIO)
    for salt0 in (1, 2):
        s = stream(f"exponent/{salt0}")
        draws[f"exponent/{salt0}"] = lambda i, s=s, salt0=salt0: sample_exponent(
            s, i, salt0=salt0)
    draws["n"] = lambda i: sweep._draw_n(s_n, i)
    draws["int"] = lambda i: sample_int(s_int, i, 2, 20)
    draws["kyfan"] = lambda i: sample_kyfan_values(s_kf, i, 7)
    draws["words"] = lambda i: [s_words.words(i, count, salt=i % 3)
                                for count in (0, 1, 2, 3, 4, 5, 8, 9)]
    draws["floats"] = lambda i: (s_words.floats(i, 3), s_words.floats_open(i, 6, 1))
    return draws


class TestSamplingContract:
    """The first 256 draws of every sampler, frozen as a hash of their reprs.

    A quad enters with every field it caches.  Any change to the word stream,
    the order of draws, the acceptance rule or the rounding of a coordinate
    moves a hash here, and with it every report.
    """

    FROZEN = {
        "quad/any/default": "a439707dd962c410",
        "quad/any/wide": "183d1cf131c3f3ca",
        "quad/positive/default": "effdd6c09d32f661",
        "quad/positive/wide": "4633c54628f8b25c",
        "quad/negative/default": "5737e1de08e4105f",
        "quad/negative/wide": "2a6654d9fc3ee42a",
        "quad/zero/default": "2a52f5d2154b8e39",
        "quad/zero/wide": "fbe14f4e43bf757b",
        "pair": "20862d906927a176",
        "exponent/1": "14f7ef9681ae695f",
        "exponent/2": "8008c95dbdcbb37c",
        "n": "be50142cb7329fb4",
        "int": "462a999ff0833197",
        "kyfan": "f76f2bf7a390c131",
        "words": "295a5c7a55b84271",
        "floats": "80accb1834c19578",
    }

    def test_every_sampler_is_frozen(self):
        assert set(_contract_draws()) == set(self.FROZEN)

    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_first_draws_hash(self, name):
        draw = _contract_draws()[name]
        h = hashlib.sha256()
        for i in range(256):
            h.update(repr(draw(i)).encode() + b"\n")
        assert h.hexdigest()[:16] == self.FROZEN[name]

    def test_list_bounds_draw_as_a_tuple(self):
        stream = SampleStream(2024, "contract/list")
        for i in range(20):
            assert (_quad_state(sample_quad(stream, i, bounds=[1e-30, 1e30]))
                    == _quad_state(sample_quad(stream, i, bounds=(1e-30, 1e30))))
            assert (sample_pair(stream, i, bounds=[0.5, 8.0])
                    == sample_pair(stream, i, bounds=(0.5, 8.0)))


class TestQuadSampling:
    def test_deterministic_and_ordered(self):
        stream = SampleStream(7, "quads")
        for i in range(200):
            q1 = sample_quad(stream, i)
            q2 = sample_quad(SampleStream(7, "quads"), i)
            assert (q1.a, q1.b, q1.c, q1.d) == (q2.a, q2.b, q2.c, q2.d)
            assert q1.a > q1.b >= q1.c > q1.d > 0
            assert 1e-3 <= q1.d and q1.a <= 1e3

    def test_tie_probability(self):
        stream = SampleStream(11, "ties")
        ties = sum(sample_quad(stream, i).b == sample_quad(stream, i).c
                   for i in range(2000))
        assert abs(ties / 2000 - B_EQ_C_PROB) < 0.03

    def test_sign_constraints(self):
        for sign, cls in (("positive", DiscClass.POSITIVE),
                          ("negative", DiscClass.NEGATIVE),
                          ("zero", DiscClass.ZERO)):
            stream = SampleStream(13, f"sign/{sign}")
            for i in range(100):
                quad = sample_quad(stream, i, sign=sign)
                assert quad.disc_class is cls

    def test_zero_constraint_disc_is_tiny(self):
        stream = SampleStream(17, "zero")
        for i in range(100):
            q = sample_quad(stream, i, sign="zero")
            m = max(q.a, q.b, q.c, q.d)
            x1 = (q.a / m) * q.d
            x2 = (q.b / m) * q.c
            assert abs(x1 - x2) <= 1e-12 * (x1 + x2)

    # The first three quads per sign at seed 7, as exact binary64 values: any
    # change to the draw, its order or its acceptance shows here.
    GOLDEN = {
        "any": [
            ("0x1.7fd4821695cfep+6", "0x1.1b13c37385efap+2", "0x1.861736d9657fdp-2",
             "0x1.29861eadafb03p-8"),
            ("0x1.eb34f4ac3af67p+2", "0x1.00d56c53bcbeep-3", "0x1.c551bd31557fep-7",
             "0x1.3a3f8c366dae6p-9"),
            ("0x1.9f660ba3fe438p+6", "0x1.1cc46b8401271p+5", "0x1.94205005126d5p+3",
             "0x1.971c313299a21p+1"),
        ],
        "positive": [
            ("0x1.312ee30b753cap+5", "0x1.99f005afea0c5p+2", "0x1.2e03be4562bc2p-6",
             "0x1.5c5c6d21bb5ffp-7"),
            ("0x1.eb34f4ac3af67p+2", "0x1.00d56c53bcbeep-3", "0x1.c551bd31557fep-7",
             "0x1.3a3f8c366dae6p-9"),
            ("0x1.f15368af9d303p+9", "0x1.07b4d7b03e20dp+4", "0x1.67a8e41b21e4dp-9",
             "0x1.63bc5039e9a32p-9"),
        ],
        "negative": [
            ("0x1.7fd4821695cfep+6", "0x1.1b13c37385efap+2", "0x1.861736d9657fdp-2",
             "0x1.29861eadafb03p-8"),
            ("0x1.0bda9a39bc017p+8", "0x1.1cea2552f5e7cp+6", "0x1.1cea2552f5e7cp+6",
             "0x1.7bf75ebaab3aep-2"),
            ("0x1.9f660ba3fe438p+6", "0x1.1cc46b8401271p+5", "0x1.94205005126d5p+3",
             "0x1.971c313299a21p+1"),
        ],
        "zero": [
            ("0x1.7fd4821695cfep+6", "0x1.861736d9657fdp-2", "0x1.29861eadafb03p-8",
             "0x1.2e6072f846488p-16"),
            ("0x1.eb34f4ac3af67p+2", "0x1.00d56c53bcbeep-3", "0x1.00d56c53bcbeep-3",
             "0x1.0c93d36443f26p-9"),
            ("0x1.9f660ba3fe438p+6", "0x1.1cc46b8401271p+5", "0x1.94205005126d5p+3",
             "0x1.150a2b8b1e6bbp+2"),
        ],
    }

    @pytest.mark.parametrize("sign", sorted(GOLDEN))
    def test_golden_draws(self, sign):
        stream = SampleStream(7, "golden/quad")
        got = [sample_quad(stream, i, sign=sign) for i in range(3)]
        assert [(q.a, q.b, q.c, q.d) for q in got] == [
            tuple(map(float.fromhex, quad)) for quad in self.GOLDEN[sign]]

    def test_bad_args(self):
        stream = SampleStream(1, "bad")
        with pytest.raises(ValueError):
            sample_quad(stream, 0, sign="sideways")
        with pytest.raises(ValueError):
            sample_quad(stream, 0, bounds=(0.0, 1.0))


class TestOtherSamplers:
    def test_pair(self):
        stream = SampleStream(19, "pairs")
        for i in range(200):
            a, b = sample_pair(stream, i, min_ratio=1.0 + 1e-6)
            assert a > b > 0 and a / b >= 1.0 + 1e-6

    def test_exponent(self):
        stream = SampleStream(23, "exps")
        for i in range(500):
            p = sample_exponent(stream, i)
            assert -3.0 <= p <= 3.0
            assert abs(p) >= 1e-4 and abs(p + 1.0) >= 1e-4

    def test_kyfan_values(self):
        stream = SampleStream(29, "kf")
        vals = sample_kyfan_values(stream, 0, 1000)
        assert all(KYFAN_EPS < v <= 0.5 for v in vals)
        assert vals == sample_kyfan_values(SampleStream(29, "kf"), 0, 1000)

    def test_int_range(self):
        stream = SampleStream(31, "ints")
        seen = {sample_int(stream, i, 2, 5) for i in range(200)}
        assert seen == {2, 3, 4, 5}


class TestSweep:
    def test_resolve_ids(self):
        assert resolve_ids("all") == catalog.INEQUALITY_IDS
        assert resolve_ids(["EQ14", "eq4", "EQ14"]) == ("EQ14", "EQ4")
        with pytest.raises(KeyError):
            resolve_ids(["EQ7"])

    def test_small_sweep_no_violations(self):
        rep = run_sweep(SweepConfig(ids=("ALL",), samples=400, seed=101))
        assert rep["total_violations"] == 0
        for id, r in rep["results"].items():
            assert r["samples_run"] == 400
            assert r["argmin_margin_replay"] == r["min_margin"], id

    def test_worker_count_invariance(self):
        base = None
        for workers in (1, 3, 7):
            rep = run_sweep(SweepConfig(ids=("EQ13", "EQ15"), samples=700,
                                        seed=99, workers=workers))
            rep.pop("wall_time_s")
            blob = dumps(rep)
            if base is None:
                base = blob
            assert blob == base

    def test_repeat_run_byte_identical(self):
        r1 = run_sweep(SweepConfig(ids=("EQ5",), samples=300, seed=2))
        r2 = run_sweep(SweepConfig(ids=("EQ5",), samples=300, seed=2))
        r1.pop("wall_time_s")
        r2.pop("wall_time_s")
        assert dumps(r1) == dumps(r2)

    def test_zero_sign_eq13_all_equality(self):
        rep = run_sweep(SweepConfig(ids=("EQ13",), samples=200, seed=3, sign="zero"))
        r = rep["results"]["EQ13"]
        assert r["equality_cases"] == 200
        assert r["violation_count"] == 0
        assert abs(r["min_margin"]) <= 1e-11

    def test_negative_sign_eq14(self):
        rep = run_sweep(SweepConfig(ids=("EQ14",), samples=500, seed=7,
                                    sign="negative"))
        r = rep["results"]["EQ14"]
        assert r["violation_count"] == 0
        assert r["min_margin"] > 0

    def test_csv_dump(self, tmp_path):
        out = tmp_path / "dump.csv"
        run_sweep(SweepConfig(ids=("EQ5",), samples=10, seed=1), csv_path=str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "id,sample_index,inputs,margin,verdict"
        assert len(lines) == 11

    def test_kyfan_sweep(self):
        rep = run_kyfan_sweep(SweepConfig(samples=400, seed=5, kyfan_n_range=(2, 20)))
        assert rep["total_violations"] == 0
        assert set(rep["results"]) == set(
            f"EQ{k}" for k in range(18, 32))
        for id, r in rep["results"].items():
            assert r["argmin_margin_replay"] == r["min_margin"], id

    def test_kyfan_sweep_n2_eq20_equality(self):
        rep = run_kyfan_sweep(SweepConfig(samples=300, seed=6, kyfan_n_range=(2, 2)))
        r = rep["results"]["EQ20"]
        assert r["equality_cases"] == 300
        assert abs(r["min_margin"]) <= 1e-15

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(samples=0)
        with pytest.raises(ValueError):
            SweepConfig(bounds=(-1.0, 2.0))
        assert SweepConfig(ids=()).ids == ()      # as Ky Fan sweeps build it

    def test_string_ids_echo_as_one_id(self):
        config = SweepConfig(ids="EQ5", samples=3)
        assert config.ids == ("EQ5",)
        rep = run_sweep(config)
        assert rep["config"]["ids"] == ["EQ5"]
        assert list(rep["results"]) == ["EQ5"]
        assert SweepConfig("all", 3).to_dict()["ids"] == ["all"]

    def test_config_echoes_only_the_fields_its_sweep_reads(self):
        config = SweepConfig(ids=("EQ5",), samples=3, seed=4, bounds=(0.5, 8.0),
                             kyfan_n_range=(3, 4))
        assert run_sweep(config)["config"] == {
            "ids": ["EQ5"], "samples": 3, "seed": 4, "sign": "any", "bounds": [0.5, 8.0]}
        assert run_kyfan_sweep(config._replace(ids=()))["config"] == {
            "samples": 3, "seed": 4, "kyfan_n_range": [3, 4]}

    @pytest.mark.parametrize("kwargs,error,message", [
        ({"workers": 0}, ValueError, "workers must be >= 1"),
        ({"workers": -1}, ValueError, "workers must be >= 1"),
        ({"kyfan_n_range": (5, 2)}, ValueError, "kyfan_n_range must satisfy 1 <= lo <= hi"),
        ({"kyfan_n_range": (0, 3)}, ValueError, "kyfan_n_range must satisfy 1 <= lo <= hi"),
        ({"ids": ("EQ5",), "samples": 3, "sign": "sideways"}, ValueError,
         "unknown sign constraint 'sideways'"),
        ({"ids": ("EQ7",)}, catalog.UnknownIdError,
         "unknown inequality id 'EQ7'; valid ids: " + ", ".join(catalog.INEQUALITY_IDS)),
    ], ids=["workers=0", "workers=-1", "n_range=5,2", "n_range=0,3", "sign=sideways",
            "ids=EQ7"])
    def test_config_rejects_bad_workers_and_n_range(self, kwargs, error, message):
        with pytest.raises(error) as info:
            SweepConfig(**kwargs)
        assert str(info.value) == message
