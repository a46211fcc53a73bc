import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from kernelbound import verify
from kernelbound.coefficients import CouplingSupport, diagonal_family
from kernelbound.errors import DomainError
from kernelbound.hypotheses import RowSumBound
from kernelbound.lyapunov import integrated_exp, synth_exp, synth_poly
from kernelbound.solver import DiscreteField, GridSpec, OperatorHandle, kernel_column
from kernelbound.verify import (
    CheckResult,
    Evolution,
    KernelStore,
    check_chapman_kolmogorov,
    check_decay_shape,
    check_domination,
    check_duality,
    check_lyapunov_integrability,
    check_mass_and_positivity,
    check_monotone_in_R,
    check_support,
    check_weighted_bound,
    evolve_all,
    heat_weight_image,
    results_csv,
    run_plan,
    summary_text,
    system_fingerprint,
)


def headline_family():
    return diagonal_family("polynomial", 1, 2, beta=1.0,
                           theta=[[1.0, 0.5], [0.5, 1.0]],
                           gamma=[[2.0, 1.0], [1.0, 2.0]])


def heat_family():
    # drift and potential amplitudes far below roundoff: pure heat equation
    return diagonal_family("polynomial", 1, 1, eta=1e-30,
                           theta=[[1e-30]], gamma=[[0.0]])


def ou_family():
    # unit restoring drift b = -x with negligible potential
    return diagonal_family("polynomial", 1, 1,
                           theta=[[1e-30]], gamma=[[0.0]])


def chain_family():
    return diagonal_family("polynomial", 1, 3,
                           theta=[[1.0, 0.5, 0.0],
                                  [0.0, 1.0, 0.5],
                                  [0.0, 0.0, 1.0]],
                           gamma=np.ones((3, 3)))


def gaussian(x, mean, var):
    return np.exp(-(x - mean) ** 2 / (2 * var)) / math.sqrt(2 * math.pi * var)


class TestStoreAndFingerprint:
    def _field(self):
        g = GridSpec(1, 2.0, 0.5)
        return DiscreteField(g, np.arange(g.n_nodes, dtype=float).reshape(-1, 1))

    def test_memory_cache_computes_once(self):
        store = KernelStore()
        calls = []

        def build():
            calls.append(1)
            return self._field()

        a = store.get_or_compute("key", build)
        b = store.get_or_compute("key", build)
        assert a is b and len(calls) == 1 and len(store) == 1

    def test_disk_persistence_across_instances(self, tmp_path):
        first = KernelStore(tmp_path)
        first.get_or_compute("key", self._field)

        def explode():
            raise AssertionError("should have loaded from disk")

        second = KernelStore(tmp_path)
        loaded = second.get_or_compute("key", explode)
        np.testing.assert_allclose(loaded.values, self._field().values)

    def test_corrupt_file_is_recomputed(self, tmp_path):
        store = KernelStore(tmp_path)
        store.get_or_compute("key", self._field)
        (blob,) = list(tmp_path.glob("*.kbf"))
        blob.write_bytes(b"junk")
        calls = []

        def rebuild():
            calls.append(1)
            return self._field()

        fresh = KernelStore(tmp_path)
        fresh.get_or_compute("key", rebuild)
        assert len(calls) == 1

    def test_failed_write_leaves_nothing_under_the_key(self, tmp_path, monkeypatch):
        def fail_rename(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail_rename)
        with pytest.raises(OSError, match="rename failed"):
            KernelStore(tmp_path).get_or_compute("key", self._field)
        assert list(tmp_path.iterdir()) == []

    def test_threads_sharing_a_store(self, tmp_path):
        # more threads than cores, each writing and reading the same keys
        store = KernelStore(tmp_path)
        keys = [verify.StoreKey("key%d" % i, shared=i % 2 == 0) for i in range(12)]
        errors = []

        def work():
            try:
                for key in keys:
                    fld = store.get_or_compute(key, self._field)
                    np.testing.assert_array_equal(fld.values, self._field().values)
            except Exception as exc:  # reported below, not lost in the thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads) and errors == []
        assert len(store) == len(keys)
        assert sorted(p.suffix for p in tmp_path.iterdir()) == [".kbf"] * len(keys)

    def test_family_fingerprint_tracks_content(self):
        assert system_fingerprint(headline_family()) == system_fingerprint(headline_family())
        other = diagonal_family("polynomial", 1, 2, beta=1.0,
                                theta=[[1.0, 0.5], [0.5, 1.0]],
                                gamma=[[2.0, 1.0], [1.0, 2.5]])
        assert system_fingerprint(headline_family()) != system_fingerprint(other)


class TestRecords:
    """Certificate sups and ledger numbers kept as float.hex text records."""

    def test_numbers_round_trip_exactly(self, tmp_path):
        values = (0.1, -0.0, 1e-320, math.inf, -math.inf, 2.0 ** 1000)
        key = verify.StoreKey("key")
        assert KernelStore(tmp_path).record(key, lambda: values) == values
        (path,) = tmp_path.iterdir()
        assert path.suffix == ".kbr"

        def explode():
            raise AssertionError("should have read the record")

        got = KernelStore(tmp_path).record(key, explode)
        assert [v.hex() for v in got] == [v.hex() for v in values]

    def test_records_are_not_fields(self, tmp_path):
        store = KernelStore(tmp_path)
        store.record(verify.StoreKey("key"), lambda: (1.0,))
        store.get_or_compute("key", TestStoreAndFingerprint()._field)
        assert len(store) == 1
        assert sorted(p.suffix for p in tmp_path.iterdir()) == [".kbf", ".kbr"]

    @pytest.mark.parametrize("damage", [
        lambda text: text[:-3],                        # truncated
        lambda text: text.replace("0x1.0000000000000p+1", "nan"),
        lambda text: "",
        lambda text: "KBF1 2\n" + text.split("\n", 1)[1],  # foreign header
    ], ids=["truncated", "nan", "empty", "foreign"])
    def test_damaged_file_is_recomputed(self, tmp_path, damage):
        key = verify.StoreKey("key")
        KernelStore(tmp_path).record(key, lambda: (2.0, 3.0))
        (path,) = tmp_path.iterdir()
        path.write_text(damage(path.read_text()))
        calls = []
        got = KernelStore(tmp_path).record(key, lambda: calls.append(1) or (2.0, 3.0))
        assert got == (2.0, 3.0) and calls == [1]
        assert KernelStore(tmp_path).record(key, lambda: 1 / 0) == (2.0, 3.0)

    def test_nan_is_never_kept(self, tmp_path):
        store = KernelStore(tmp_path)
        calls = []

        def build():
            calls.append(1)
            return (1.0, math.nan)

        for _ in range(2):
            got = store.record(verify.StoreKey("key"), build)
            assert got[0] == 1.0 and math.isnan(got[1])
        assert calls == [1, 1] and list(tmp_path.iterdir()) == []

    def test_threads_sharing_records(self, tmp_path):
        # more threads than cores, each building and reading the same records
        store = KernelStore(tmp_path)
        keys = [verify.StoreKey("key%d" % i, persist=i % 3 != 0) for i in range(12)]
        errors = []

        def work():
            try:
                for i, key in enumerate(keys):
                    assert store.record(key, lambda i=i: (float(i), -math.inf)) \
                        == (float(i), -math.inf)
            except Exception as exc:  # reported below, not lost in the thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads) and errors == []
        assert sorted(p.suffix for p in tmp_path.iterdir()) == [".kbr"] * 8
        fresh = KernelStore(tmp_path)
        for i, key in enumerate(keys):
            if key.persist:
                assert fresh.record(key, lambda: 1 / 0) == (float(i), -math.inf)

    def count_calls(self, monkeypatch):
        calls = []
        for name in ("verify_certificate", "estimate_ledger"):
            real = getattr(verify, name)
            monkeypatch.setattr(verify, name, lambda *a, real=real, name=name, **kw:
                                calls.append(name) or real(*a, **kw))
        return calls

    def test_stored_majorant_matches_the_computed_one(self, tmp_path, monkeypatch):
        fam = headline_family()
        syn = synth_poly(fam, 1.0)
        cert = verify.verify_certificate(fam, syn.timed)
        expected = verify.weighted_majorant(fam, syn, 4.0, 0.25)
        calls = self.count_calls(monkeypatch)
        for store in (KernelStore(tmp_path), KernelStore(tmp_path)):
            assert verify.stored_certificate(fam, syn.timed, store=store) == cert
            assert verify.weighted_majorant(fam, syn, 4.0, 0.25, store=store) == expected
        # the timed certificate, which is also nu2's calibration, nu1's
        # calibration and the ledger, once each
        assert sorted(calls) == ["estimate_ledger"] + ["verify_certificate"] * 2
        assert len(list(tmp_path.glob("*.kbr"))) == 3

    def test_opaque_records_stay_in_memory(self, tmp_path, monkeypatch):
        spec = headline_family().operator_spec()
        syn = synth_poly(headline_family(), 1.0)
        store = KernelStore(tmp_path)
        calls = self.count_calls(monkeypatch)
        first = verify.weighted_majorant(spec, syn, 4.0, 0.25, store=store)
        assert verify.weighted_majorant(spec, syn, 4.0, 0.25, store=store) == first
        # the ledger and the nu1 and nu2 calibrations, once each
        assert sorted(calls) == ["estimate_ledger"] + ["verify_certificate"] * 2
        assert list(tmp_path.iterdir()) == []


def stored_column(fam, g, t, k, store, variant="P"):
    """One kernel column at the origin through evolve_all."""
    (col,), = evolve_all(fam, [Evolution.of_sources(variant, g, t, [(0.0, k)])], store)
    return col


class TestStoredColumns:
    def test_system_fingerprint_is_required(self):
        # two systems keyed without it would hand each other their fields
        g = GridSpec(1, 2.0, 0.25)
        store = KernelStore()
        with pytest.raises(TypeError):
            evolve_all(requests=[Evolution.of_sources("P", g, 0.1, [(0.0, 0)])],
                       store=store)
        assert len(store) == 0

    def test_distinct_systems_get_their_own_fields(self):
        g = GridSpec(1, 2.0, 0.25)
        store = KernelStore()
        cols = [stored_column(fam, g, 0.1, 0, store)
                for fam in (headline_family(), heat_family())]
        assert cols[0].m == 2 and cols[1].m == 1

    def test_fields_of_an_older_solver_are_recomputed(self, tmp_path):
        fam = headline_family()
        sys_fp = system_fingerprint(fam)
        g = GridSpec(1, 2.0, 0.25)
        t, w, step, theta = 0.1, 0.5, min(0.1 / 64.0, 0.25), 0.5
        stale = DiscreteField(g, np.full((g.n_nodes, 2), 123.0))
        # the key layout of kernel columns before keys carried a solver version
        old_key = verify._fingerprint("col", sys_fp, "P", g.d, g.radius, g.spacing,
                                      t, tuple(np.zeros(1)), 0, w, step, theta)
        KernelStore(tmp_path).get_or_compute(old_key, lambda: stale)
        col = stored_column(fam, g, t, 0, KernelStore(tmp_path))
        fresh = kernel_column(OperatorHandle(fam, g, "P"), t, 0.0, 0)
        np.testing.assert_allclose(col.values, fresh.values, rtol=0,
                                   atol=1e-12 * np.max(fresh.values))

    def test_solver_version_is_part_of_the_key(self, tmp_path, monkeypatch):
        fam = headline_family()
        g = GridSpec(1, 2.0, 0.25)
        stored_column(fam, g, 0.1, 0, KernelStore(tmp_path))
        monkeypatch.setattr(verify, "SOLVER_VERSION", verify.SOLVER_VERSION + 1)
        stored_column(fam, g, 0.1, 0, KernelStore(tmp_path))
        assert len(list(tmp_path.glob("*.kbf"))) == 2

    def test_batch_counts_each_key_and_is_order_independent(self):
        fam = headline_family()
        g = GridSpec(1, 2.0, 0.25)
        store = KernelStore()
        built = []
        get_or_compute = store.get_or_compute

        def counting(key, build):
            return get_or_compute(key, lambda: built.append(key) or build())

        store.get_or_compute = counting
        pair, = evolve_all(fam, [Evolution.of_sources("P", g, 0.1, [(0.0, 0), (0.0, 1)])],
                           store)
        assert len(built) == 2 and len(store) == 2
        again, = evolve_all(fam, [Evolution.of_sources("P", g, 0.1, [(0.0, 1), (0.0, 0)])],
                            store)
        assert len(built) == 2
        assert again[0] is pair[1] and again[1] is pair[0]
        # a column computed on its own has the same bits as one from a batch
        alone = stored_column(fam, g, 0.1, 1, None)
        np.testing.assert_array_equal(alone.values, pair[1].values)

    def test_component_out_of_range_rejected(self):
        fam = headline_family()
        with pytest.raises(DomainError):
            stored_column(fam, GridSpec(1, 2.0, 0.25), 0.1, 2, None)

    def test_field_format_version_is_part_of_the_key(self, tmp_path, monkeypatch):
        fam = headline_family()
        g = GridSpec(1, 2.0, 0.25)
        ones = Evolution.of_values("P", g, np.ones((g.n_nodes, 2)), 0.1, theta=1.0)
        for _ in range(2):
            stored_column(fam, g, 0.1, 0, KernelStore(tmp_path))
            evolve_all(fam, [ones], KernelStore(tmp_path))
            monkeypatch.setattr(verify, "FIELD_FORMAT_VERSION",
                                verify.FIELD_FORMAT_VERSION + 1)
        assert len(list(tmp_path.glob("*.kbf"))) == 4

    def test_opaque_systems_stay_in_memory(self, tmp_path):
        # an id()-based fingerprint can name another system in another process
        spec = headline_family().operator_spec()
        g = GridSpec(1, 2.0, 0.25)
        store = KernelStore(tmp_path)
        col = stored_column(spec, g, 0.1, 0, store)
        ones = Evolution.of_values("P", g, np.ones((g.n_nodes, 2)), 0.1, theta=1.0)
        u, = evolve_all(spec, [ones], store)
        assert list(tmp_path.iterdir()) == [] and len(store) == 2
        assert stored_column(spec, g, 0.1, 0, store) is col
        np.testing.assert_array_equal(evolve_all(spec, [ones], store)[0], u)
        assert len(store) == 2


class TestStoredEvolve:
    def make(self):
        fam = headline_family()
        g = GridSpec(1, 2.0, 0.25)
        batch = np.random.default_rng(3).uniform(-1.0, 1.0, size=(g.n_nodes, 2, 3))
        return fam, g, batch

    def evolve(self, fam, g, values, t, dt, theta, store):
        """values evolved on the plain operator, through evolve_all."""
        return evolve_all(fam, [Evolution.of_values("plain", g, values, t, dt, theta)],
                          store)[0]

    def counting(self, monkeypatch):
        """Shapes of the values OperatorHandle.evolve is called with from now on."""
        calls = []
        real = OperatorHandle.evolve
        monkeypatch.setattr(OperatorHandle, "evolve",
                            lambda h, v, *a, **kw: calls.append(v.shape) or real(h, v, *a, **kw))
        return calls

    def test_matches_evolve_and_hits_on_rerun(self, tmp_path, monkeypatch):
        fam, g, batch = self.make()
        handle = OperatorHandle(fam, g, "plain")
        expected, _ = handle.evolve(batch, 0.2, dt=0.05, theta=1.0)
        one_expected, _ = handle.evolve(batch[:, :, 1], 0.2, dt=0.05, theta=1.0)
        calls = self.counting(monkeypatch)
        for store in (None, KernelStore(tmp_path), KernelStore(tmp_path)):
            out = self.evolve(fam, g, batch, 0.2, 0.05, 1.0, store)
            np.testing.assert_array_equal(out, expected)
        assert len(calls) == 2
        one = self.evolve(fam, g, batch[:, :, 1], 0.2, 0.05, 1.0, None)
        np.testing.assert_array_equal(one, one_expected)

    def test_columns_are_written_through_not_kept(self, tmp_path, monkeypatch):
        fam, g, batch = self.make()
        store = KernelStore(tmp_path)
        self.evolve(fam, g, batch, 0.2, None, 1.0, store)
        assert len(list(tmp_path.glob("*.kbf"))) == 3 and len(store) == 3
        loads = []
        real_load = verify.load_field
        monkeypatch.setattr(verify, "load_field",
                            lambda path: loads.append(path) or real_load(path))
        calls = self.counting(monkeypatch)
        self.evolve(fam, g, batch, 0.2, None, 1.0, store)
        assert len(loads) == 3 and calls == [] and len(store) == 3
        # kernel columns, which several checks read, keep the memory tier
        stored_column(fam, g, 0.2, 0, store, variant="plain")
        stored_column(fam, g, 0.2, 0, store, variant="plain")
        assert len(loads) == 3

    def test_key_covers_data_step_and_theta(self, tmp_path, monkeypatch):
        fam, g, batch = self.make()
        store = KernelStore(tmp_path)
        self.evolve(fam, g, batch, 0.2, None, 1.0, store)
        calls = self.counting(monkeypatch)
        changed = batch.copy()
        changed[0, 0, 2] += 1e-3
        for args in ((changed, 0.2, None, 1.0), (batch, 0.2, 0.05, 1.0),
                     (batch, 0.2, None, 0.5), (batch[:, :, :2], 0.2, None, 1.0)):
            self.evolve(fam, g, *args, store)
        assert len(calls) == 4
        # unset and spelled-out default steps share their entries
        self.evolve(fam, g, batch, 0.2, 0.2 / 64, 1.0, store)
        assert len(calls) == 4

    def test_partial_hit_recomputes_the_whole_batch(self, tmp_path, monkeypatch):
        fam, g, batch = self.make()
        first = self.evolve(fam, g, batch, 0.2, None, 1.0, KernelStore(tmp_path))
        sorted(tmp_path.glob("*.kbf"))[0].unlink()
        calls = self.counting(monkeypatch)
        again = self.evolve(fam, g, batch, 0.2, None, 1.0, KernelStore(tmp_path))
        assert calls == [batch.shape]
        np.testing.assert_array_equal(again, first)


class TestDomination:
    def test_headline_kernel_and_function_level(self):
        fam = headline_family()
        g = GridSpec(1, 4.0, 1.0 / 8)
        res = check_domination(fam, g, 0.3, sources=[(0.0, 0), (0.5, 1)])
        assert res.passed
        assert res.worst <= 1e-9
        assert len(res.fingerprint) == 12

    def test_nonpositive_offdiagonal_gives_equality(self):
        fam = diagonal_family("polynomial", 1, 2, beta=1.0,
                              theta=[[1.0, -0.5], [-0.5, 1.0]],
                              gamma=[[2.0, 1.0], [1.0, 2.0]])
        g = GridSpec(1, 4.0, 1.0 / 8)
        res = check_domination(fam, g, 0.3, sources=[(0.0, 0)])
        assert res.passed
        # the cooperative potential coincides with the signed one here
        assert res.worst < 1e-12

    def test_single_component_reduces_to_positivity(self):
        res = check_domination(heat_family(), GridSpec(1, 4.0, 1.0 / 8),
                               0.25, sources=[(0.0, 0)])
        assert res.passed


class TestMonotoneInR:
    def test_dirichlet_interval_matches_image_sum(self):
        g = GridSpec(1, 2.0, 1.0 / 64)
        handle = OperatorHandle(heat_family(), g, variant="P")
        t, y, w = 0.25, 0.5, 1.0 / 16
        col = kernel_column(handle, t, y, 0, width=w, dt=1.0 / 256)
        x = g.points()[:, 0]
        var = 2.0 * t + w * w
        oracle = np.zeros_like(x)
        for n in range(-3, 4):
            oracle += gaussian(x - y - 4.0 * g.radius * n, 0.0, var)
            oracle -= gaussian(x + y - 2.0 * g.radius - 4.0 * g.radius * n, 0.0, var)
        err = g.spacing * np.sum(np.abs(col.values[:, 0] - oracle))
        assert err <= 0.01

    def test_family_ladder_is_monotone(self):
        res = check_monotone_in_R(headline_family(), radii=(2.0, 4.0, 8.0),
                                  spacing=1.0 / 8, t=0.3, source=(0.25, 0))
        assert res.passed
        assert max(res.details["violations"]) <= 1e-8
        inc = res.details["increments"]
        assert len(inc) == 2 and inc[1] < inc[0]

    def test_single_radius_is_trivially_monotone(self):
        res = check_monotone_in_R(headline_family(), radii=(4.0,),
                                  spacing=1.0 / 8, t=0.3, source=(0.0, 0))
        assert res.passed and res.worst == 0.0


class TestMassAndPositivity:
    def test_headline_decay_rate(self):
        res = check_mass_and_positivity(headline_family(), GridSpec(1, 6.0, 1.0 / 8),
                                        t_values=(0.1, 0.5, 1.0),
                                        sources=[(0.0, 0)])
        assert res.passed
        assert res.details["M"] == pytest.approx(0.5, abs=1e-6)
        assert res.details["positivity_ratio"] <= 1.0

    def test_overstated_rate_fails(self):
        fake = RowSumBound(M=3.0, method="manual", certified_tail=False)
        res = check_mass_and_positivity(headline_family(), GridSpec(1, 6.0, 1.0 / 8),
                                        t_values=(1.0,), row=fake)
        assert res.status == "fail"
        assert res.worst > res.tolerance

    def test_explicit_row_wins_over_the_stored_bound(self):
        fam, g, store = headline_family(), GridSpec(1, 6.0, 1.0 / 8), KernelStore()
        stored = check_mass_and_positivity(fam, g, t_values=(1.0,), store=store)
        assert stored.passed and stored.details["M"] == pytest.approx(0.5, abs=1e-6)
        fake = RowSumBound(M=3.0, method="manual", certified_tail=False)
        res = check_mass_and_positivity(fam, g, t_values=(1.0,), row=fake, store=store)
        assert res.status == "fail" and res.details["M"] == 3.0


class TestSupport:
    def test_chain_start_stays_confined(self):
        res = check_support(chain_family(), 0, GridSpec(1, 4.0, 1.0 / 8), 0.3)
        assert res.passed
        assert res.details["reachable"] == [0]
        assert res.details["relative_maxima"][1] <= 1e-10
        assert res.details["relative_maxima"][2] <= 1e-10

    def test_chain_end_reaches_everything(self):
        res = check_support(chain_family(), 2, GridSpec(1, 4.0, 1.0 / 8), 0.3)
        assert res.passed
        assert res.details["reachable"] == [0, 1, 2]
        assert min(res.details["relative_maxima"]) >= 1e-12

    def test_wrong_support_prediction_fails(self):
        wrong = CouplingSupport(k=0, levels=(frozenset({1, 2}),),
                                reachable=frozenset({0, 1, 2}))
        res = check_support(chain_family(), 0, GridSpec(1, 4.0, 1.0 / 8), 0.3,
                            support=wrong)
        assert res.status == "fail"

    def test_random_patterns_match_graph_prediction(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            theta = np.eye(3)
            mask = rng.random((3, 3)) < 0.5
            theta[mask & ~np.eye(3, dtype=bool)] = 0.5
            fam = diagonal_family("polynomial", 1, 3, theta=theta,
                                  gamma=np.ones((3, 3)))
            for k in range(3):
                res = check_support(fam, k, GridSpec(1, 4.0, 1.0 / 8), 0.3)
                assert res.passed, res.line()


class TestDuality:
    def test_adjoint_column_matches_mehler_density(self):
        g = GridSpec(1, 8.0, 1.0 / 32)
        handle = OperatorHandle(ou_family(), g, variant="P_adjoint")
        t, x0 = 0.5, 0.5
        col = kernel_column(handle, t, x0, 0, width=1.0 / 16, dt=1.0 / 128)
        y = g.points()[:, 0]
        oracle = gaussian(y, x0 * math.exp(-t), 1.0 - math.exp(-2.0 * t))
        err = g.spacing * np.sum(np.abs(col.values[:, 0] - oracle))
        assert err <= 0.02

    def test_drifted_pairs_agree(self):
        g = GridSpec(1, 8.0, 1.0 / 32)
        pairs = [(0.5, 0, -0.25, 0), (1.0, 0, 0.0, 0), (-0.5, 0, 0.75, 0)]
        res = check_duality(ou_family(), g, 0.5, pairs, dt=1.0 / 128)
        assert res.passed
        assert res.worst <= 0.02

    def test_symmetric_system_cross_components(self):
        fam = diagonal_family("polynomial", 1, 2, eta=1e-30,
                              theta=[[1.0, 0.5], [0.5, 1.0]],
                              gamma=[[2.0, 1.0], [1.0, 2.0]])
        g = GridSpec(1, 4.0, 1.0 / 16)
        pairs = [(0.5, 0, -0.5, 1), (0.0, 1, 0.25, 0)]
        res = check_duality(fam, g, 0.4, pairs, dt=1.0 / 64)
        assert res.passed


class TestChapmanKolmogorov:
    def test_exact_split(self):
        res = check_chapman_kolmogorov(headline_family(), GridSpec(1, 4.0, 1.0 / 8),
                                       t=0.2, s=0.3)
        assert res.passed
        assert res.worst <= 1e-9
        # the chosen step divides the first leg exactly
        ratio = 0.3 / res.details["dt"]
        assert abs(ratio - round(ratio)) < 1e-9

    def test_zero_second_leg_is_identity(self):
        res = check_chapman_kolmogorov(headline_family(), GridSpec(1, 4.0, 1.0 / 8),
                                       t=0.2, s=0.0)
        assert res.passed and res.worst == 0.0

    def test_signed_variant(self):
        res = check_chapman_kolmogorov(headline_family(), GridSpec(1, 4.0, 1.0 / 8),
                                       t=0.2, s=0.2, variant="plain")
        assert res.passed


class TestLyapunovIntegrability:
    def test_heat_weight_closed_form(self):
        g = GridSpec(1, 8.0, 1.0 / 32)
        handle = OperatorHandle(heat_family(), g, variant="P")
        eps, t = 0.1, 0.5
        y = g.points()[:, 0]
        init = np.exp(eps * t * (1.0 + y * y)).reshape(-1, 1)
        out, _ = handle.evolve(init, t, dt=1.0 / 128, theta=0.5)
        for x in (0.0, 1.0, -1.0):
            node = g.node_of([x])
            exact = float(heat_weight_image(eps, t, x))
            assert out[node, 0] == pytest.approx(exact, rel=0.02)

    def test_weight_image_validity_window(self):
        with pytest.raises(DomainError):
            heat_weight_image(1.0, 0.6, 0.0)

    def test_headline_envelope_holds(self):
        fam = headline_family()
        syn = synth_poly(fam, 1.0)
        res = check_lyapunov_integrability(fam, syn.timed, GridSpec(1, 8.0, 1.0 / 16),
                                           t_values=(0.05, 0.1, 0.5),
                                           x_points=(0.0, 2.0, -2.0))
        assert res.passed, res.line()
        assert res.details["c0"] >= 0.0
        assert res.details["eps"] == pytest.approx(syn.timed.eps_T / 4.0)

    def test_shaved_growth_envelope_fails(self):
        fam = headline_family()
        syn = synth_poly(fam, 1.0)
        res = check_lyapunov_integrability(fam, syn.timed, GridSpec(1, 8.0, 1.0 / 16),
                                           t_values=(0.05,), x_points=(0.0,),
                                           g_margin=1.0)
        assert res.status == "fail"

    def test_boundary_heavy_run_is_inconclusive(self):
        fam = headline_family()
        syn = synth_poly(fam, 1.0)
        res = check_lyapunov_integrability(fam, syn.timed, GridSpec(1, 2.0, 1.0 / 8),
                                           t_values=(0.1,), x_points=(0.0,),
                                           boundary_fraction=1e-9)
        assert res.status == "inconclusive"
        assert res.details["boundary_fraction"] > 1e-9


class TestWeightedBound:
    def test_headline_calibration_is_stable(self):
        fam = headline_family()
        syn = synth_poly(fam, 1.0)
        adj = synth_poly(fam, 1.0, target="P_adjoint")
        res = check_weighted_bound(fam, syn, s=4.0, t_values=(0.25,),
                                   sources=(0.0, 1.0, -1.0),
                                   coarse=(1.0 / 8, 4.0), fine=(1.0 / 16, 8.0),
                                   width=1.0 / 16, two_sided=True,
                                   adjoint_synthesis=adj)
        assert res.passed, res.line()
        assert res.details["C_cal"] > 0.0
        assert res.details["sup_fine"] <= 1.10 * res.details["C_cal"]
        assert res.details["sup2_fine"] <= 1.10 * res.details["sup2_coarse"]
        assert all(math.isfinite(v) for v in res.details["majorants"].values())

    def test_broken_majorant_fails(self):
        fam = headline_family()
        syn = synth_poly(fam, 1.0)
        res = check_weighted_bound(
            fam, syn, s=4.0, t_values=(0.25,), sources=(0.0,),
            coarse=(1.0 / 8, 4.0), fine=(1.0 / 8, 8.0), width=1.0 / 16,
            majorant_override=lambda t, pts: np.exp(-4.0 * np.sum(pts * pts, axis=-1)))
        assert res.status == "fail"

    def test_reused_calibration_detects_shrunk_majorant(self):
        fam = headline_family()
        syn = synth_poly(fam, 1.0)
        args = dict(s=4.0, t_values=(0.25,), sources=(0.0,),
                    coarse=(1.0 / 8, 4.0), fine=(1.0 / 8, 4.0), width=1.0 / 16)
        healthy = check_weighted_bound(fam, syn, **args)
        assert healthy.passed
        res = check_weighted_bound(fam, syn, C_cal=healthy.details["C_cal"] / 1e6,
                                   **args)
        assert res.status == "fail"

    def test_majorant_weights_are_calibrated_once_for_all_times(self, monkeypatch):
        fam = headline_family()
        syn = synth_poly(fam, 1.0)
        adj = synth_poly(fam, 1.0, target="P_adjoint")
        args = dict(s=4.0, sources=(0.0,), coarse=(1.0 / 8, 4.0), fine=(1.0 / 8, 4.0),
                    width=1.0 / 16, two_sided=True, adjoint_synthesis=adj)
        calls = []
        real = verify.verify_certificate

        def counted(*a, **kw):
            calls.append(a[1])
            return real(*a, **kw)

        monkeypatch.setattr(verify, "verify_certificate", counted)
        check_weighted_bound(fam, syn, t_values=(0.25,), **args)
        one_time = len(calls)
        res = check_weighted_bound(fam, syn, t_values=(0.1, 0.25, 0.5), **args)
        assert len(calls) == 2 * one_time == 8
        monkeypatch.undo()
        # the same majorants as calibrating afresh at every time
        for t in (0.1, 0.25, 0.5):
            _, H = verify.weighted_majorant(fam, syn, 4.0, t)
            assert res.details["majorants"][t] == H

    def test_misordered_scales_rejected(self):
        fam = headline_family()
        syn = synth_poly(fam, 1.0)
        with pytest.raises(DomainError):
            check_weighted_bound(fam, syn, s=4.0, t_values=(0.25,), sources=(0.0,),
                                 coarse=(1.0 / 8, 4.0), fine=(1.0 / 16, 8.0),
                                 eps_scales=(0.75, 0.5, 1.0))

    def test_two_sided_needs_adjoint_synthesis(self):
        fam = headline_family()
        syn = synth_poly(fam, 1.0)
        with pytest.raises(DomainError):
            check_weighted_bound(fam, syn, s=4.0, t_values=(0.25,), sources=(0.0,),
                                 coarse=(1.0 / 8, 4.0), fine=(1.0 / 16, 8.0),
                                 two_sided=True)


class TestDecayShape:
    def test_headline_tail_stays_below_core(self):
        fam = headline_family()
        syn = synth_poly(fam, 1.0)
        res = check_decay_shape(fam, GridSpec(1, 6.0, 1.0 / 16),
                                t_values=(0.25, 0.5), x0=0.5, component=0,
                                weight=syn.timed.weight(0.5 * syn.timed.eps_T))
        assert res.passed, res.line()

    def test_excessive_decay_claim_fails(self):
        fam = headline_family()
        syn = synth_poly(fam, 1.0)
        res = check_decay_shape(fam, GridSpec(1, 6.0, 1.0 / 16),
                                t_values=(0.5,), x0=0.5, component=0,
                                weight=syn.timed.weight(50.0))
        assert res.status == "fail"

    def test_exponential_family_is_compensated_by_its_own_profile(self):
        fam = diagonal_family("exponential", 1, 2, beta=0.5,
                              theta=[[1.0, 0.5], [0.5, 1.0]],
                              gamma=[[1.0, 0.5], [0.5, 1.0]])
        w = synth_exp(fam, 1.0).timed.weight()
        assert w.form == "integrated-exp"
        grid, t = GridSpec(1, 6.0, 1.0 / 16), 0.5
        res = check_decay_shape(fam, grid, t_values=(t,), x0=0.0, component=0, weight=w)
        # the rise from the adjoint column, compensated by the integrated-exp
        # shape and, for contrast, by the power shape (1 + |y|^2)^rho
        col = kernel_column(OperatorHandle(fam, grid, "P_adjoint"), t, 0.0, 0)
        total = np.sum(np.abs(col.values), axis=1)
        y = np.abs(grid.points()[:, 0])
        core = y <= 1.0
        tail = (y >= 2.0) & (y <= 4.0) & (total > 1e-13 * np.max(total))
        amp = w.eps * t ** w.sigma

        def rise(shape):
            phi = np.log(np.maximum(total, 1e-300)) + amp * shape
            return np.max(phi[tail]) - np.max(phi[core])

        expected = rise(integrated_exp(1.0 + y * y, w.rho))
        assert res.worst == pytest.approx(expected, abs=1e-12)
        assert abs(rise((1.0 + y * y) ** w.rho) - expected) > 1.0


class TestReporting:
    def _two_results(self):
        first = check_support(chain_family(), 0, GridSpec(1, 4.0, 1.0 / 8), 0.3)
        second = check_chapman_kolmogorov(headline_family(),
                                          GridSpec(1, 4.0, 1.0 / 8), t=0.2, s=0.0)
        return [first, second]

    def test_csv_shape_and_determinism(self):
        results = self._two_results()
        text = results_csv(results)
        lines = text.strip().split("\n")
        assert lines[0] == "check,status,t,x,y,h,k,value,bound"
        assert len(lines) > 2
        assert all(line.count(",") == 8 for line in lines)
        assert text == results_csv(self._two_results())

    def test_summary_overall_states(self):
        results = self._two_results()
        assert "overall: pass" in summary_text(results)
        failed = CheckResult(check="x", status="fail", worst=1.0, tolerance=0.1,
                             location=(None,) * 5, fingerprint="0" * 12)
        assert "overall: fail" in summary_text(results + [failed])
        unclear = CheckResult(check="x", status="inconclusive", worst=0.0,
                              tolerance=0.1, location=(None,) * 5,
                              fingerprint="0" * 12)
        assert "overall: inconclusive" in summary_text(results + [unclear])

    def test_fingerprint_tracks_configuration(self):
        a = check_support(chain_family(), 0, GridSpec(1, 4.0, 1.0 / 8), 0.3)
        b = check_support(chain_family(), 0, GridSpec(1, 4.0, 1.0 / 8), 0.3)
        c = check_support(chain_family(), 0, GridSpec(1, 4.0, 1.0 / 8), 0.3,
                          tol_null=1e-9)
        assert a.fingerprint == b.fingerprint
        assert a.fingerprint != c.fingerprint

    def test_equal_declarations_share_a_fingerprint_across_processes(self):
        fam = headline_family()
        syn = synth_poly(fam, 1.0)
        args = (fam, syn, 4.0, (0.25,), (0.0,), (1.0 / 8, 4.0), (1.0 / 8, 8.0))
        plain = verify.WeightedBound(*args)
        # a callable has no stable text, so it is left out
        probed = verify.WeightedBound(*args, majorant_override=lambda t, pts: 1.0)
        assert probed.fingerprint == plain.fingerprint
        assert verify.WeightedBound(*args, tol=0.2).fingerprint != plain.fingerprint
        code = ("from kernelbound.coefficients import diagonal_family\n"
                "from kernelbound.lyapunov import synth_poly\n"
                "from kernelbound.verify import WeightedBound\n"
                "fam = diagonal_family('polynomial', 1, 2, beta=1.0,\n"
                "    theta=[[1.0, 0.5], [0.5, 1.0]], gamma=[[2.0, 1.0], [1.0, 2.0]])\n"
                "print(WeightedBound(fam, synth_poly(fam, 1.0), 4.0, (0.25,), (0.0,),\n"
                "    (1.0 / 8, 4.0), (1.0 / 8, 8.0)).fingerprint)\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(verify.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout
        assert out.strip() == plain.fingerprint

    def test_line_mentions_worst_and_location(self):
        res = self._two_results()[0]
        assert res.line().startswith("check_support: pass")
        assert "worst" in res.line() and "t=0.3" in res.line()


class TestPlan:
    def count_evolves(self, monkeypatch):
        calls = []
        evolve = OperatorHandle.evolve

        def counted(handle, *args, **kwargs):
            calls.append(handle.variant)
            return evolve(handle, *args, **kwargs)
        monkeypatch.setattr(OperatorHandle, "evolve", counted)
        return calls

    def test_requests_sharing_a_batch_evolve_once(self, monkeypatch):
        fam = headline_family()
        g = GridSpec(1, 2.0, 0.125)
        calls = self.count_evolves(monkeypatch)
        ones = np.ones((g.n_nodes, 2))
        reqs = [Evolution.of_sources("P", g, 0.1, [(0.0, 1)], theta=1.0),
                Evolution.of_sources("P", g, 0.1, [(0.0, 0), (0.0, 1)], theta=1.0),
                Evolution.of_values("P", g, ones, 0.1, theta=1.0),
                Evolution.of_values("P", g, ones.copy(), 0.1, theta=1.0)]
        single, pair, u, again = evolve_all(fam, reqs)
        # one batch per center and one per distinct data, even with no store
        assert calls == ["P", "P"]
        assert single[0] is pair[1]
        assert again is u
        handle = OperatorHandle(fam, g, "P")
        assert np.array_equal(pair[0].values,
                              kernel_column(handle, 0.1, 0.0, 0, theta=1.0).values)
        assert np.array_equal(u, handle.evolve(ones, 0.1, theta=1.0)[0])

    def test_second_stage_continues_its_first(self):
        fam = headline_family()
        g = GridSpec(1, 2.0, 0.125)
        f = np.random.default_rng(3).uniform(-1.0, 1.0, size=(g.n_nodes, 2))
        first = Evolution.of_values("P", g, f, 0.1, dt=0.01, theta=1.0)
        mid, out = evolve_all(fam, [first, first.then(0.05)])
        handle = OperatorHandle(fam, g, "P")
        assert np.array_equal(mid, handle.evolve(f, 0.1, 0.01, 1.0)[0])
        assert np.array_equal(out, handle.evolve(mid, 0.05, 0.01, 1.0)[0])
        with pytest.raises(DomainError):
            evolve_all(fam, [first.then(0.05)])

    def test_plan_fills_the_store_the_requests_then_read(self, tmp_path,
                                                        monkeypatch):
        fam = headline_family()
        g = GridSpec(1, 2.0, 0.125)
        reqs = [Evolution.of_sources(variant, g, t, [(0.0, 0), (0.5, 1)], theta=theta)
                for variant in ("P_adjoint", "plain", "P")
                for t in (0.1, 0.2) for theta in (0.5, 1.0)]
        calls = self.count_evolves(monkeypatch)
        counts = run_plan(fam, reqs, KernelStore(tmp_path))
        # two centers per request, nothing stored before
        assert len(calls) == counts["evolutions"] == counts["batches"] == 24
        assert counts["requests"] == 12
        assert counts["fields found in the store"] == 0
        # (variant, theta, dt) pairs, each factored once; P_adjoint takes
        # P's matrix, so two operators are assembled
        assert counts["factorizations"] == 12 and counts["assemblies"] == 2
        # the run order is (variant, grid, theta, dt, t)
        assert calls == sorted(calls)
        del calls[:]
        # a rerun finds every field stored and builds nothing
        again = run_plan(fam, reqs, KernelStore(tmp_path))
        assert again["fields found in the store"] == 24
        assert again["evolutions"] == again["factorizations"] == 0
        planned = evolve_all(fam, reqs, KernelStore(tmp_path))
        assert calls == []
        alone = evolve_all(fam, reqs)
        for a, b in zip(planned, alone):
            assert all(np.array_equal(x.values, y.values) for x, y in zip(a, b))

    def test_declarations_take_the_check_defaults(self, tmp_path, monkeypatch):
        fam = headline_family()
        g = GridSpec(1, 2.0, 0.125)
        # theta comes from each check's own defaults: 1.0, 0.5, or as given
        support = verify.Support(fam, 0, g, 0.1)
        decay = verify.DecayShape(fam, g, [0.1, 0.2], 0.0, 1, weight=None, slack=0.4)
        assert support.requests[0].theta == 1.0
        assert [r.theta for r in decay.requests] == [0.5, 0.5]
        assert verify.Support(fam, 0, g, 0.1, theta=0.5).requests[0].theta == 0.5
        # a declaration builds its requests once, for the plan and the check
        assert support.requests is support.requests
        for misspelled in (verify.Support, check_support):
            with pytest.raises(TypeError):
                misspelled(fam, k=0, grid=g, t=0.1, thetta=0.5)
        # the check then finds every field the plan stored, given the
        # declaration or the same arguments
        run_plan(fam, support.requests, KernelStore(tmp_path))
        calls = self.count_evolves(monkeypatch)
        declared = check_support(support, store=KernelStore(tmp_path))
        assert check_support(fam, 0, g, 0.1, store=KernelStore(tmp_path)) == declared
        assert calls == []

    def test_a_measurement_fails_on_a_field_mutated_by_hand(self, monkeypatch):
        fam = headline_family()
        g = GridSpec(1, 2.0, 0.125)
        domination = verify.Domination(fam, g, 0.1, [(0.0, 0)], n_random=0)
        calls = self.count_evolves(monkeypatch)
        coop = np.full((g.n_nodes, 2), 0.5)
        healthy = [[DiscreteField(g, coop)], [DiscreteField(g, -0.5 * coop)]]
        assert domination.measure(healthy).status == "pass"
        # the signed kernel climbs above the cooperative one at one node
        plain = -0.5 * coop
        plain[g.node_of(1.0), 1] = 0.75
        res = domination.measure([[DiscreteField(g, coop)], [DiscreteField(g, plain)]])
        assert res.status == "fail"
        assert res.worst == pytest.approx(0.5) and res.location[1:4] == (1.0, 0.0, 1)
        assert calls == []

    def test_plan_in_threads_gives_the_serial_bits(self, tmp_path):
        fam = headline_family()
        reqs = [Evolution.of_sources(variant, GridSpec(1, radius, 0.125), 0.1,
                                     [(0.0, 0), (0.5, 1)], theta=theta)
                for variant in ("P", "P_adjoint", "plain")
                for radius in (1.0, 2.0) for theta in (0.5, 1.0)]
        f = np.random.default_rng(5).uniform(size=(GridSpec(1, 2.0, 0.125).n_nodes, 2))
        first = Evolution.of_values("P", GridSpec(1, 2.0, 0.125), f, 0.1, theta=1.0)
        reqs += [first, first.then(0.05)]
        run_plan(fam, reqs, KernelStore(tmp_path / "serial"))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            counts = run_plan(fam, reqs, KernelStore(tmp_path / "threads"),
                              jobs=(os.cpu_count() or 1) + 2)
        finally:
            sys.setswitchinterval(interval)
        # every batch ran exactly once, in whichever thread, with serial bits
        assert counts["evolutions"] == counts["batches"] == 26
        serial = sorted((tmp_path / "serial").iterdir())
        threads = sorted((tmp_path / "threads").iterdir())
        assert [p.name for p in serial] == [p.name for p in threads]
        assert all(a.read_bytes() == b.read_bytes() for a, b in zip(serial, threads))
