import math
import os
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from kernelbound import verify
from kernelbound.coefficients import CouplingSupport, diagonal_family
from kernelbound.errors import DomainError
from kernelbound.hypotheses import RowSumBound
from kernelbound.lyapunov import integrated_exp, synth_exp, synth_poly
from kernelbound.solver import (DIAGONAL, STEPS, GridSpec, OperatorHandle, default_dt,
                                mollified_source, symmetries)
from kernelbound.verify import (
    ChapmanKolmogorov,
    CheckResult,
    DecayShape,
    Domination,
    Duality,
    Evolution,
    KernelStore,
    LyapunovIntegrability,
    MassAndPositivity,
    MonotoneInR,
    Support,
    WeightedBound,
    results_csv,
    run_plan,
    summary_text,
    system_fingerprint,
)

from oracles import OperatorSpec, evolve_all, heat_weight_image, kernel_column, run_alone


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


def field_entry():
    # infinities, a negative zero and a subnormal among the values
    g = GridSpec(1, 2.0, 0.5)
    values = np.arange(g.n_nodes, dtype=float).reshape(-1, 1)
    values[:4, 0] = (math.inf, -math.inf, -0.0, 5e-324)
    return values


def record_entry():
    # a record's numbers, built as a tuple of floats
    return (0.1, -0.0, 1e-320, math.inf, -math.inf, 2.0 ** 1000)


# every store test runs on a field and on a record
ENTRIES = pytest.mark.parametrize("entry", [field_entry, record_entry], ids=["field", "record"])


def same_bits(stored, entry) -> bool:
    return stored.tobytes() == np.asarray(entry(), dtype=float).tobytes()


@pytest.fixture
def no_evolve(monkeypatch):
    """Checks measured on hand-made outputs must not evolve anything."""
    def refuse(*args, **kwargs):
        raise AssertionError("measure evolved a field")

    monkeypatch.setattr(OperatorHandle, "evolve", refuse)


def bump(grid: GridSpec, m: int, height: float = 1.0) -> np.ndarray:
    """A positive (n_nodes, m) field peaked at the origin, equal on shared nodes."""
    return height * np.exp(-np.sum(grid.points() ** 2, axis=-1))[:, None] * np.ones(m)


class TestStoreAndFingerprint:
    @ENTRIES
    def test_memory_cache_computes_once(self, entry):
        store = KernelStore()
        calls = []

        def build():
            calls.append(1)
            return entry()

        a = store.get_or_compute("key", build)
        b = store.get_or_compute("key", build)
        assert a is b and len(calls) == 1 and len(store) == 1

    @ENTRIES
    def test_disk_persistence_across_instances(self, tmp_path, entry):
        first = KernelStore(tmp_path)
        first.get_or_compute("key", entry)
        (path,) = tmp_path.iterdir()
        assert path.suffix == ".kbf"

        def explode():
            raise AssertionError("should have loaded from disk")

        second = KernelStore(tmp_path)
        loaded = second.get_or_compute("key", explode)
        assert loaded.shape == np.shape(entry()) and same_bits(loaded, entry)

    @ENTRIES
    @pytest.mark.parametrize("damage", [
        lambda blob: b"junk",
        lambda blob: b"",
        lambda blob: blob[:6],                       # truncated header
        lambda blob: blob[:-3],                      # truncated payload
        lambda blob: blob[:-8] + np.float64(math.nan).tobytes(),  # a NaN
        lambda blob: b"KBF1" + blob[4:],             # wrong magic
        lambda blob: blob[:8] + (3).to_bytes(8, "little") + blob[16:],  # shape/length
        lambda blob: blob[:4] + (2 ** 32 - 1).to_bytes(4, "little") + blob[8:],  # axes
    ], ids=["junk", "empty", "truncated-header", "truncated", "nan", "magic", "shape", "axes"])
    def test_corrupt_file_is_recomputed(self, tmp_path, damage, entry):
        key = "key"
        store = KernelStore(tmp_path)
        store.get_or_compute(key, entry)
        (blob,) = list(tmp_path.glob("*.kbf"))
        blob.write_bytes(damage(blob.read_bytes()))
        calls = []

        def rebuild():
            calls.append(1)
            return entry()

        fresh = KernelStore(tmp_path)
        assert same_bits(fresh.get_or_compute(key, rebuild), entry)
        assert len(calls) == 1
        assert same_bits(KernelStore(tmp_path).get_or_compute(key, lambda: 1 / 0), entry)

    @ENTRIES
    def test_an_entry_with_a_nan_is_never_kept(self, tmp_path, entry):
        store = KernelStore(tmp_path)
        calls = []

        def build():
            calls.append(1)
            values = np.array(entry(), dtype=float)
            values.flat[1] = math.nan
            return values

        for _ in range(2):
            got = store.get_or_compute("key", build)
            assert got.flat[0] == np.asarray(entry()).flat[0] and math.isnan(got.flat[1])
        assert calls == [1, 1] and list(tmp_path.iterdir()) == [] and len(store) == 0

    @ENTRIES
    def test_failed_write_leaves_nothing_under_the_key(self, tmp_path, monkeypatch, entry):
        def fail_rename(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail_rename)
        with pytest.raises(OSError, match="rename failed"):
            KernelStore(tmp_path).get_or_compute("key", entry)
        assert list(tmp_path.iterdir()) == []

    @ENTRIES
    def test_threads_sharing_a_store(self, tmp_path, entry):
        # more threads than cores, each writing and reading the same keys
        store = KernelStore(tmp_path)
        keys = ["key%d" % i for i in range(12)]
        errors = []

        def work():
            try:
                for key in keys:
                    assert same_bits(store.get_or_compute(key, entry), entry)
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
        fresh = KernelStore(tmp_path)
        for key in keys:
            assert same_bits(fresh.get_or_compute(key, lambda: 1 / 0), entry)

    def test_family_fingerprint_tracks_content(self):
        assert system_fingerprint(headline_family()) == system_fingerprint(headline_family())
        other = diagonal_family("polynomial", 1, 2, beta=1.0,
                                theta=[[1.0, 0.5], [0.5, 1.0]],
                                gamma=[[2.0, 1.0], [1.0, 2.5]])
        assert system_fingerprint(headline_family()) != system_fingerprint(other)


def count_calls(monkeypatch):
    calls = []
    for name in ("verify_certificate", "estimate_ledger"):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *a, real=real, name=name, **kw:
                            calls.append(name) or real(*a, **kw))
    return calls


class TestRecords:
    """Certificate sups and ledger numbers kept as store records."""

    def test_stored_majorant_matches_the_computed_one(self, tmp_path, monkeypatch):
        fam = headline_family()
        syn = synth_poly(fam, 1.0)
        cert = verify.verify_certificate(fam, syn.timed)
        expected = verify.weighted_majorant(fam, syn, 4.0, 0.25)
        calls = count_calls(monkeypatch)
        for store in (KernelStore(tmp_path), KernelStore(tmp_path)):
            # the same reprs: a record reads back as Python floats, since
            # spec reprs enter the store keys
            assert repr(verify.stored_certificate(fam, syn.timed, store=store)) == repr(cert)
            assert repr(verify.weighted_majorant(fam, syn, 4.0, 0.25, store=store)) \
                == repr(expected)
        # the timed certificate, which is also nu2's calibration, nu1's
        # calibration and the ledger, once each
        assert sorted(calls) == ["estimate_ledger"] + ["verify_certificate"] * 2
        assert len(list(tmp_path.iterdir())) == 3


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
            run_plan(requests=[Evolution.of_sources("P", g, 0.1, [(0.0, 0)])], store=store)
        assert len(store) == 0

    def test_distinct_systems_get_their_own_fields(self):
        g = GridSpec(1, 2.0, 0.25)
        store = KernelStore()
        cols = [stored_column(fam, g, 0.1, 0, store)
                for fam in (headline_family(), heat_family())]
        assert cols[0].shape[1] == 2 and cols[1].shape[1] == 1

    def test_fields_of_an_older_solver_are_recomputed(self, tmp_path):
        fam = headline_family()
        sys_fp = system_fingerprint(fam)
        g = GridSpec(1, 2.0, 0.25)
        t, w, step, theta = 0.1, 0.5, default_dt(0.1, g.spacing), 0.5
        stale = np.full((g.n_nodes, 2), 123.0)
        # the key layout of kernel columns before keys carried a solver version
        old_key = verify._fingerprint("col", sys_fp, "P", g.d, g.radius, g.spacing,
                                      t, tuple(np.zeros(1)), 0, w, step, theta)
        KernelStore(tmp_path).get_or_compute(old_key, lambda: stale)
        col = stored_column(fam, g, t, 0, KernelStore(tmp_path))
        fresh = kernel_column(OperatorHandle(fam, g, "P"), t, 0.0, 0)
        np.testing.assert_allclose(col, fresh, rtol=0, atol=1e-12 * np.max(fresh))

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
        np.testing.assert_array_equal(alone, pair[1])

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

    def test_an_opaque_system_is_refused_before_any_work(self, tmp_path, monkeypatch):
        # coefficient callables cannot be hashed by content, so the store
        # has no key for them: every entry point refuses them, and nothing
        # is evolved or stored
        fam = headline_family()
        spec = OperatorSpec(fam.dims, fam.q, fam.b, fam.V)
        g = GridSpec(1, 2.0, 0.25)
        store = KernelStore(tmp_path)
        evolved = []
        monkeypatch.setattr(OperatorHandle, "evolve", lambda *a, **kw: evolved.append(a))
        ones = Evolution.of_values("P", g, np.ones((g.n_nodes, 2)), 0.1, theta=1.0)
        syn = synth_poly(headline_family(), 1.0)
        for call in (lambda: stored_column(spec, g, 0.1, 0, store),
                     lambda: evolve_all(spec, [ones], store),
                     lambda: verify.weighted_majorant(spec, syn, 4.0, 0.25, store=store),
                     lambda: system_fingerprint(spec)):
            with pytest.raises(DomainError, match="OperatorSpec is not a family"):
                call()
        assert evolved == [] and list(tmp_path.iterdir()) == [] and len(store) == 0


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

    def test_every_entry_is_held_once_built_or_loaded(self, tmp_path, monkeypatch):
        # a data field and a record: the first store builds them, the second
        # loads them, and each then serves them from memory alone
        fam, g, batch = self.make()
        loads, rows = [], []
        real_load, real_row = verify.load_field, verify.compute_row_sum_bound
        monkeypatch.setattr(verify, "load_field",
                            lambda path: loads.append(path) or real_load(path))
        monkeypatch.setattr(verify, "compute_row_sum_bound",
                            lambda *a, **kw: rows.append(a) or real_row(*a, **kw))
        calls = self.counting(monkeypatch)
        expected = None
        for store, loaded, built in ((KernelStore(tmp_path), 0, 1), (KernelStore(tmp_path), 4, 0)):
            del loads[:], rows[:], calls[:]
            for _ in range(3):
                out = self.evolve(fam, g, batch, 0.2, None, 1.0, store)
                row = verify._stored_row_sum(fam, 20.0, store)
                assert len(loads) == loaded and len(rows) == len(calls) == built
                # three columns and the record
                assert len(store) == 4 and len(list(tmp_path.glob("*.kbf"))) == 4
                expected = expected or (out.tobytes(), row)
                assert (out.tobytes(), row) == expected

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
        self.evolve(fam, g, batch, 0.2, default_dt(0.2, g.spacing), 1.0, store)
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
        res = run_alone(Domination(fam, g, 0.3, sources=[(0.0, 0), (0.5, 1)]))
        assert res.passed
        assert res.worst <= 1e-9

    def test_nonpositive_offdiagonal_gives_equality(self):
        fam = diagonal_family("polynomial", 1, 2, beta=1.0,
                              theta=[[1.0, -0.5], [-0.5, 1.0]],
                              gamma=[[2.0, 1.0], [1.0, 2.0]])
        g = GridSpec(1, 4.0, 1.0 / 8)
        res = run_alone(Domination(fam, g, 0.3, sources=[(0.0, 0)]))
        assert res.passed
        # the cooperative potential coincides with the signed one here
        assert res.worst < 1e-12

    def test_single_component_reduces_to_positivity(self):
        res = run_alone(Domination(heat_family(), GridSpec(1, 4.0, 1.0 / 8),
                                   0.25, sources=[(0.0, 0)]))
        assert res.passed

    def test_domination_fails_with_plain_and_cooperative_columns_swapped(self):
        # a negative control through measure: the cooperative kernels put
        # where the signed ones belong exceed them in absolute value
        check = verify.Domination(headline_family(), GridSpec(1, 4.0, 1.0 / 8), 0.3,
                                  [(0.0, 0), (0.5, 1)], n_random=0)
        coop, plain = evolve_all(check.system, check.requests)
        assert check.measure([coop, plain]).passed
        res = check.measure([plain, coop])
        assert res.status == "fail" and res.worst > 1e3 * res.tolerance


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
        err = g.spacing * np.sum(np.abs(col[:, 0] - oracle))
        assert err <= 0.01

    def test_family_ladder_is_monotone(self):
        res = run_alone(MonotoneInR(headline_family(), radii=(2.0, 4.0, 8.0),
                                    spacing=1.0 / 8, t=0.3, source=(0.25, 0)))
        assert res.passed
        assert max(res.details["violations"]) <= 1e-8
        inc = res.details["increments"]
        assert len(inc) == 2 and inc[1] < inc[0]

    def test_the_small_box_above_the_large_one_fails(self, no_evolve):
        # a negative control through measure on hand-made columns: the large
        # box's kernel dips below the small box's at one shared node
        check = MonotoneInR(headline_family(), radii=(2.0, 4.0), spacing=1.0 / 8, t=0.3,
                            source=(0.0, 0))
        small, big = (req.grid for req in check.requests)
        healthy = [[0.9 * bump(small, 2)], [bump(big, 2)]]
        assert check.measure(healthy).passed
        dipped = bump(big, 2)
        node = verify._embed_indices(small, big)[3]
        dipped[node, 1] = 0.0
        res = check.measure([healthy[0], [dipped]])
        assert res.status == "fail"
        assert res.location[1] == verify._loc_pt(big.points()[node], 1) and res.location[3] == 1

    def test_single_radius_is_trivially_monotone(self):
        res = run_alone(MonotoneInR(headline_family(), radii=(4.0,),
                                    spacing=1.0 / 8, t=0.3, source=(0.0, 0)))
        assert res.passed and res.worst == 0.0


class TestMassAndPositivity:
    def test_headline_decay_rate(self):
        res = run_alone(MassAndPositivity(headline_family(), GridSpec(1, 6.0, 1.0 / 8),
                                          t_values=(0.1, 0.5, 1.0),
                                          sources=[(0.0, 0)]))
        assert res.passed
        assert res.details["M"] == pytest.approx(0.5, abs=1e-6)
        assert res.details["positivity_ratio"] <= 1.0

    def test_overstated_rate_fails(self):
        fake = RowSumBound(M=3.0, method="manual", certified_tail=False)
        res = run_alone(MassAndPositivity(headline_family(), GridSpec(1, 6.0, 1.0 / 8),
                                          t_values=(1.0,), row=fake))
        assert res.status == "fail"
        assert res.worst > res.tolerance

    def test_one_negative_kernel_entry_fails(self, no_evolve):
        # a negative control through measure on hand-made outputs: one column
        # entry below -1e-10 of its column's scale, under a mass that decays
        check = MassAndPositivity(headline_family(), GridSpec(1, 2.0, 1.0 / 8), t_values=(1.0,),
                                  row=RowSumBound(M=0.5, method="given", certified_tail=True),
                                  sources=[(0.0, 0)])
        g = check.grid
        mass, col = 0.5 * np.ones((g.n_nodes, 2)), bump(g, 2, height=4.0)
        col[5, 1] = -0.5e-10 * 4.0
        assert check.measure([mass, [col]]).passed
        col[5, 1] = -2e-10 * 4.0
        res = check.measure([mass, [col]])
        assert res.status == "fail"
        assert res.details["positivity_ratio"] == pytest.approx(2.0, rel=1e-12)

    def test_explicit_row_wins_over_the_stored_bound(self):
        fam, g, store = headline_family(), GridSpec(1, 6.0, 1.0 / 8), KernelStore()
        stored = run_alone(MassAndPositivity(fam, g, t_values=(1.0,)), store)
        assert stored.passed and stored.details["M"] == pytest.approx(0.5, abs=1e-6)
        fake = RowSumBound(M=3.0, method="manual", certified_tail=False)
        res = run_alone(MassAndPositivity(fam, g, t_values=(1.0,), row=fake), store)
        assert res.status == "fail" and res.details["M"] == 3.0


class TestSupport:
    def test_chain_start_stays_confined(self):
        res = run_alone(Support(chain_family(), 0, GridSpec(1, 4.0, 1.0 / 8), 0.3))
        assert res.passed
        assert res.details["reachable"] == [0]
        assert res.details["relative_maxima"][1] <= 1e-10
        assert res.details["relative_maxima"][2] <= 1e-10

    def test_chain_end_reaches_everything(self):
        res = run_alone(Support(chain_family(), 2, GridSpec(1, 4.0, 1.0 / 8), 0.3))
        assert res.passed
        assert res.details["reachable"] == [0, 1, 2]
        assert min(res.details["relative_maxima"]) >= 1e-12

    def test_wrong_support_prediction_fails(self):
        wrong = CouplingSupport(k=0, reachable=frozenset({0, 1, 2}))
        res = run_alone(Support(chain_family(), 0, GridSpec(1, 4.0, 1.0 / 8), 0.3,
                                support=wrong))
        assert res.status == "fail"

    def test_mass_on_an_unreachable_component_fails(self, no_evolve):
        # a negative control through measure on a hand-made column: mass on
        # component 2, which column 0 of the chain family cannot reach
        check = Support(chain_family(), 0, GridSpec(1, 4.0, 1.0 / 8), 0.3)
        g = check.grid
        col = np.zeros((g.n_nodes, 3))
        col[:, 0] = bump(g, 1)[:, 0]
        assert check.measure([[col]]).passed
        col[7, 2] = 1e-6
        res = check.measure([[col]])
        assert res.status == "fail" and res.worst == pytest.approx(1e-6, rel=1e-12)
        assert res.location[1] == verify._loc_pt(g.points()[7], 1) and res.location[3] == 2

    def test_random_patterns_match_graph_prediction(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            theta = np.eye(3)
            mask = rng.random((3, 3)) < 0.5
            theta[mask & ~np.eye(3, dtype=bool)] = 0.5
            fam = diagonal_family("polynomial", 1, 3, theta=theta,
                                  gamma=np.ones((3, 3)))
            for k in range(3):
                res = run_alone(Support(fam, k, GridSpec(1, 4.0, 1.0 / 8), 0.3))
                assert res.passed, res.line()


class TestDuality:
    def test_adjoint_column_matches_mehler_density(self):
        g = GridSpec(1, 8.0, 1.0 / 32)
        handle = OperatorHandle(ou_family(), g, variant="P_adjoint")
        t, x0 = 0.5, 0.5
        col = kernel_column(handle, t, x0, 0, width=1.0 / 16, dt=1.0 / 128)
        y = g.points()[:, 0]
        oracle = gaussian(y, x0 * math.exp(-t), 1.0 - math.exp(-2.0 * t))
        err = g.spacing * np.sum(np.abs(col[:, 0] - oracle))
        assert err <= 0.02

    def test_drifted_pairs_agree(self):
        g = GridSpec(1, 8.0, 1.0 / 32)
        pairs = [(0.5, 0, -0.25, 0), (1.0, 0, 0.0, 0), (-0.5, 0, 0.75, 0)]
        res = run_alone(Duality(ou_family(), g, 0.5, pairs, dt=1.0 / 128))
        assert res.passed
        assert res.worst <= 0.02

    def test_symmetric_system_cross_components(self):
        fam = diagonal_family("polynomial", 1, 2, eta=1e-30,
                              theta=[[1.0, 0.5], [0.5, 1.0]],
                              gamma=[[2.0, 1.0], [1.0, 2.0]])
        g = GridSpec(1, 4.0, 1.0 / 16)
        pairs = [(0.5, 0, -0.5, 1), (0.0, 1, 0.25, 0)]
        res = run_alone(Duality(fam, g, 0.4, pairs, dt=1.0 / 64))
        assert res.passed

    def test_duality_fails_on_an_adjoint_evolved_with_A_not_its_transpose(self):
        # a negative control through measure: P columns fed where the
        # P_adjoint columns belong, as an adjoint assembled from A would give
        g = GridSpec(1, 8.0, 1.0 / 32)
        pairs = [(0.5, 0, -0.25, 0), (1.0, 0, 0.0, 0), (-0.5, 0, 0.75, 0)]
        check = verify.Duality(ou_family(), g, 0.5, pairs, dt=1.0 / 128)
        forward, adjoint = check.requests
        assert adjoint.variant == "P_adjoint"
        assert check.measure(evolve_all(check.system, check.requests)).passed
        res = check.measure(evolve_all(check.system, [forward, replace(adjoint, variant="P")]))
        assert res.status == "fail" and res.worst > 10 * res.tolerance


class TestChapmanKolmogorov:
    def test_exact_split(self):
        res = run_alone(ChapmanKolmogorov(headline_family(), GridSpec(1, 4.0, 1.0 / 8),
                                          t=0.2, s=0.3))
        assert res.passed
        assert res.worst <= 1e-9
        # the chosen step divides the first leg exactly
        ratio = 0.3 / res.details["dt"]
        assert abs(ratio - round(ratio)) < 1e-9

    def test_a_composed_path_off_at_one_node_fails(self, no_evolve):
        # a negative control through measure on hand-made outputs: the
        # composed path differs from the direct one at one node
        check = ChapmanKolmogorov(headline_family(), GridSpec(1, 4.0, 1.0 / 8), t=0.2, s=0.3)
        g, scale = check.grid, float(np.max(np.abs(check.requests[0].data)))
        direct = bump(g, 2)
        assert check.measure([direct, direct.copy()]).passed
        composed = direct.copy()
        composed[7, 0] += 1e-6 * scale
        res = check.measure([direct, composed])
        assert res.status == "fail" and res.worst == pytest.approx(1e-6, rel=1e-9)
        assert res.location[1] == verify._loc_pt(g.points()[7], 1) and res.location[3] == 0

    @pytest.mark.parametrize("s", [0.0, -0.1])
    def test_a_second_leg_must_be_positive(self, s):
        # with no second leg both paths are one evolution, so nothing is compared
        with pytest.raises(DomainError, match="second leg s must be positive"):
            ChapmanKolmogorov(headline_family(), GridSpec(1, 4.0, 1.0 / 8), t=0.2, s=s)

    def test_signed_variant(self):
        res = run_alone(ChapmanKolmogorov(headline_family(), GridSpec(1, 4.0, 1.0 / 8),
                                          t=0.2, s=0.2, variant="plain"))
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
        res = run_alone(LyapunovIntegrability(fam, syn.timed, GridSpec(1, 8.0, 1.0 / 16),
                                              t_values=(0.05, 0.1, 0.5),
                                              x_points=(0.0, 2.0, -2.0)))
        assert res.passed, res.line()
        assert res.details["c0"] >= 0.0
        assert res.details["eps"] == pytest.approx(syn.timed.eps_T / 4.0)

    def test_shaved_growth_envelope_fails(self):
        # a control through measure: weights evolved e times too high are
        # what a growth envelope shaved by one, e^(G(t) - 1), would let by
        fam = headline_family()
        syn = synth_poly(fam, 1.0)
        check = verify.LyapunovIntegrability(fam, syn.timed, GridSpec(1, 8.0, 1.0 / 16),
                                             t_values=(0.05,), x_points=(0.0,))
        outputs = evolve_all(fam, check.requests)
        assert check.measure(outputs).passed
        assert check.measure([math.e * both for both in outputs]).status == "fail"

    def test_boundary_heavy_run_is_inconclusive(self):
        fam = headline_family()
        syn = synth_poly(fam, 1.0)
        res = run_alone(LyapunovIntegrability(fam, syn.timed, GridSpec(1, 2.0, 1.0 / 8),
                                              t_values=(0.1,), x_points=(0.0,),
                                              boundary_fraction=1e-9))
        assert res.status == "inconclusive"
        assert res.details["boundary_fraction"] > 1e-9


class TestWeightedBound:
    def test_headline_calibration_is_stable(self):
        fam = headline_family()
        syn = synth_poly(fam, 1.0)
        adj = synth_poly(fam, 1.0, target="P_adjoint")
        res = run_alone(WeightedBound(fam, syn, s=4.0, t_values=(0.25,),
                                      sources=(0.0, 1.0, -1.0),
                                      coarse=(1.0 / 8, 4.0), fine=(1.0 / 16, 8.0),
                                      width=1.0 / 16, adjoint_synthesis=adj))
        assert res.passed, res.line()
        assert res.details["C_cal"] > 0.0
        assert res.details["sup_fine"] <= 1.10 * res.details["C_cal"]
        assert res.details["sup2_fine"] <= 1.10 * res.details["sup2_coarse"]
        assert all(math.isfinite(v) for v in res.details["majorants"].values())

    def test_broken_majorant_fails(self):
        fam = headline_family()
        syn = synth_poly(fam, 1.0)
        res = run_alone(WeightedBound(
            fam, syn, s=4.0, t_values=(0.25,), sources=(0.0,),
            coarse=(1.0 / 8, 4.0), fine=(1.0 / 8, 8.0), width=1.0 / 16,
            majorant_scale=1e-6))
        assert res.status == "fail"

    @pytest.mark.parametrize("f", [0.5, 2.0])
    def test_majorant_scale_divides_the_fine_sup_only(self, f):
        # s = 4, so f^(s/2) is a power of two and every division is exact
        fam = headline_family()
        syn = synth_poly(fam, 1.0)
        check = verify.WeightedBound(fam, syn, 4.0, (0.25,), (0.0,), (1.0 / 8, 4.0),
                                     (1.0 / 8, 8.0), width=1.0 / 16)
        outputs = evolve_all(fam, check.requests)
        healthy = check.measure(outputs).details
        res = replace(check, majorant_scale=f).measure(outputs)
        assert res.details["C_cal"] == healthy["C_cal"]
        assert res.worst == healthy["sup_fine"] / f ** 2.0 / healthy["C_cal"] - 1.0
        assert res.status == ("fail" if f < 1.0 else "pass")

    def test_adjoint_synthesis_alone_makes_the_check_two_sided(self):
        fam = headline_family()
        syn = synth_poly(fam, 1.0)
        args = dict(s=4.0, t_values=(0.25,), sources=(0.0,),
                    coarse=(1.0 / 8, 4.0), fine=(1.0 / 8, 8.0), width=1.0 / 16)
        one = run_alone(WeightedBound(fam, syn, **args)).details
        assert one["sup2_coarse"] == one["sup2_fine"] == 0.0
        two = run_alone(WeightedBound(fam, syn, adjoint_synthesis=synth_poly(
            fam, 1.0, target="P_adjoint"), **args)).details
        assert two["sup2_coarse"] > 0.0 and two["sup2_fine"] > 0.0
        assert two["sup_fine"] == one["sup_fine"]

    def test_majorant_weights_are_calibrated_once_for_all_times(self, monkeypatch):
        fam = headline_family()
        syn = synth_poly(fam, 1.0)
        adj = synth_poly(fam, 1.0, target="P_adjoint")
        args = dict(s=4.0, sources=(0.0,), coarse=(1.0 / 8, 4.0), fine=(1.0 / 8, 4.0),
                    width=1.0 / 16, adjoint_synthesis=adj)
        calls = []
        real = verify.verify_certificate

        def counted(*a, **kw):
            calls.append(a[1])
            return real(*a, **kw)

        monkeypatch.setattr(verify, "verify_certificate", counted)
        run_alone(WeightedBound(fam, syn, t_values=(0.25,), **args))
        one_time = len(calls)
        res = run_alone(WeightedBound(fam, syn, t_values=(0.1, 0.25, 0.5), **args))
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
            run_alone(WeightedBound(fam, syn, s=4.0, t_values=(0.25,), sources=(0.0,),
                                    coarse=(1.0 / 8, 4.0), fine=(1.0 / 16, 8.0),
                                    eps_scales=(0.75, 0.5, 1.0)))

    def test_the_ledger_reads_the_weights_whose_growth_G_integrates(self, monkeypatch):
        # at eps_hat = 0.3 and T = 0.7, 0.75 eps_T rounds to 0.45918367346938777,
        # one bit above the eps_T of the spec of amplitude 0.75 eps_hat; nu1
        # must be the weight of that spec, whose certificate calibrates G1
        fam = headline_family()
        syn = synth_poly(fam, 1.0)
        timed = replace(syn.timed, base=replace(syn.static, eps_hat=0.3), T=0.7)
        assert timed.sigma == 2.0 and timed.delta == pytest.approx(5.0 / 6.0)
        weights, specs = [], []
        ledger, certificate = verify.estimate_ledger, verify.stored_certificate
        monkeypatch.setattr(verify, "estimate_ledger", lambda system, *a, **kw:
                            weights.append(a[:3]) or ledger(system, *a, **kw))
        monkeypatch.setattr(verify, "stored_certificate", lambda system, spec, *a, **kw:
                            specs.append(spec) or certificate(system, spec, *a, **kw))
        verify.weighted_majorant(fam, replace(syn, timed=timed), 4.0, 0.25)
        (w, nu1, nu2), = weights
        spec1, spec2 = specs
        assert nu1 == spec1.weight() and nu2 == spec2.weight()
        assert nu1.eps == 0.4591836734693877


class TestDecayShape:
    def test_headline_tail_stays_below_core(self):
        fam = headline_family()
        syn = synth_poly(fam, 1.0)
        res = run_alone(DecayShape(fam, GridSpec(1, 6.0, 1.0 / 16),
                                   t_values=(0.25, 0.5), x0=0.5, component=0,
                                   weight=syn.timed.scaled(0.5).weight()))
        assert res.passed, res.line()

    def test_excessive_decay_claim_fails(self):
        fam = headline_family()
        syn = synth_poly(fam, 1.0)
        res = run_alone(DecayShape(fam, GridSpec(1, 6.0, 1.0 / 16),
                                   t_values=(0.5,), x0=0.5, component=0,
                                   weight=replace(syn.timed.weight(), eps=50.0)))
        assert res.status == "fail"

    @pytest.mark.parametrize("scale, status", [(0.5, "pass"), (40.0, "fail")])
    def test_bench_weight_passes_and_forty_times_it_fails(self, scale, status):
        # poly1d's bench decay check with the weight at scale x eps_T: the
        # default decay_eps_scale 0.5 passes at worst -7.70, and 40 fails at
        # +11.3; 2 and 8 still pass, at -6.95 and -3.95
        fam = headline_family()
        timed = synth_poly(fam, 1.0).timed
        res = run_alone(DecayShape(fam, GridSpec(1, 16.0, 0.0625), t_values=(0.25, 0.5),
                                   x0=0.0, component=0,
                                   weight=timed.scaled(scale).weight(), width=0.0625))
        assert res.status == status, res.line()

    def test_exponential_family_is_compensated_by_its_own_profile(self):
        fam = diagonal_family("exponential", 1, 2, beta=0.5,
                              theta=[[1.0, 0.5], [0.5, 1.0]],
                              gamma=[[1.0, 0.5], [0.5, 1.0]])
        w = synth_exp(fam, 1.0).timed.weight()
        assert w.form == "integrated-exp"
        grid, t = GridSpec(1, 6.0, 1.0 / 16), 0.5
        res = run_alone(DecayShape(fam, grid, t_values=(t,), x0=0.0, component=0, weight=w))
        # the rise from the adjoint column, compensated by the integrated-exp
        # shape and, for contrast, by the power shape (1 + |y|^2)^rho
        col = kernel_column(OperatorHandle(fam, grid, "P_adjoint"), t, 0.0, 0)
        total = np.sum(np.abs(col), axis=1)
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
        first = run_alone(Support(chain_family(), 0, GridSpec(1, 4.0, 1.0 / 8), 0.3))
        second = run_alone(ChapmanKolmogorov(headline_family(),
                                             GridSpec(1, 4.0, 1.0 / 8), t=0.2, s=0.1))
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
                             location=(None,) * 5)
        assert "overall: fail" in summary_text(results + [failed])
        unclear = CheckResult(check="x", status="inconclusive", worst=0.0,
                              tolerance=0.1, location=(None,) * 5)
        assert "overall: inconclusive" in summary_text(results + [unclear])

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
        assert np.array_equal(pair[0], kernel_column(handle, 0.1, 0.0, 0, theta=1.0))
        assert np.array_equal(u, handle.evolve(ones, 0.1, theta=1.0)[0])

    def test_a_two_leg_request_has_the_bits_of_two_evolves(self, monkeypatch):
        fam = headline_family()
        g = GridSpec(1, 2.0, 0.125)
        f = np.random.default_rng(3).uniform(-1.0, 1.0, size=(g.n_nodes, 2))
        composed = Evolution.of_values("P", g, f, 0.1, dt=0.01, theta=1.0).then(0.05)
        column = Evolution.of_sources("P", g, 0.1, [(0.5, 1)], dt=0.01, theta=1.0).then(0.05)
        handle = OperatorHandle(fam, g, "P")
        mid = handle.evolve(f, 0.1, 0.01, 1.0)[0]
        expected = handle.evolve(mid, 0.05, 0.01, 1.0)[0]
        col = kernel_column(handle, 0.1, 0.5, 1, dt=0.01, theta=1.0)
        expected_col = handle.evolve(col, 0.05, 0.01, 1.0)[0]
        calls = self.count_evolves(monkeypatch)
        out, (got_col,) = evolve_all(fam, [composed, column])
        # one batch each, evolved over its two legs on one handle
        assert calls == ["P"] * 4
        assert out.tobytes() == expected.tobytes()
        assert got_col.tobytes() == expected_col.tobytes()

    def test_legs_are_part_of_the_store_key(self):
        fam = headline_family()
        g = GridSpec(1, 2.0, 0.125)
        f = np.ones((g.n_nodes, 2))
        first = Evolution.of_values("P", g, f, 0.1, dt=0.01, theta=1.0)
        column = Evolution.of_sources("P", g, 0.1, [(0.5, 1)], dt=0.01, theta=1.0)
        reqs = [first, first.then(0.05), first.then(0.05), first.then(0.05).then(0.05),
                first.then(0.1), column, column.then(0.05)]
        batches, where = verify._plan(reqs, system_fingerprint(fam), 2)
        # the same legs share a batch, any other legs do not
        assert len(batches) == 6 and where[1] is where[2]
        digests = [key for b in batches for key in b.keys.values()]
        assert len(set(digests)) == len(digests) == 6
        # a leg leaves the request it extends as it was
        assert first.legs == () and first.then(0.05).legs == (0.05,)

    @pytest.mark.parametrize("spacing", [0.125, 0.1])
    def test_a_column_batch_knows_its_fold_from_its_center(self, spacing):
        # the plan orders batches by fold without building their sources:
        # the sources at a center are even where its coordinate is 0, on a
        # grid of exact mirrors, and at the origin their own transpose too;
        # spacing 0.1 gives none
        g = GridSpec(2, 1.5, spacing)
        centers = [(0.0, 0.0), (0.5, 0.0), (0.0, -0.5), (0.5, 0.25)]
        reqs = [Evolution.of_sources("P", g, 0.1, [(c, 0)]) for c in centers]
        batches, _ = verify._plan(reqs, "fingerprint", 2)
        for b in batches:
            start = np.stack([mollified_source(g, 2, b.center, h, b.request.width)
                              for h in range(2)], axis=-1)
            assert b.fold == symmetries(g, start)
        assert sorted(b.fold for b in batches) == \
            ([(), (0,), (0, 1, DIAGONAL), (1,)] if spacing == 0.125 else [()] * 4)

    def test_store_keys_without_legs_are_pinned(self):
        # a change that renames every store entry shows up here
        fam = headline_family()
        g = GridSpec(1, 2.0, 0.125)
        data = np.arange(g.n_nodes * 2, dtype=float).reshape(g.n_nodes, 2)
        reqs = [Evolution.of_sources("P", g, 0.1, [(0.5, 1)], theta=1.0),
                Evolution.of_values("P", g, data, 0.1, dt=0.01, theta=1.0),
                Evolution.of_sources("P", g, 0.1, [(0.5, 1)], dt=0.1 / 64, theta=1.0)]
        (((column, _),), values, ((old_step, _),)) = verify._plan(
            reqs, system_fingerprint(fam), 2)[1]
        assert system_fingerprint(fam) == "b41f55060d35"
        assert column.keys[1] == "abdfe3508d63"
        assert values.keys[0] == "8d4d261521ad"
        # the column at the step of the former default keeps its key
        assert old_step.keys[1] == "f5dc73b801c6"

    def test_a_lost_two_leg_field_is_rebuilt_with_its_bits(self, tmp_path, monkeypatch):
        fam = headline_family()
        g = GridSpec(1, 2.0, 0.125)
        f = np.random.default_rng(3).uniform(-1.0, 1.0, size=(g.n_nodes, 2))
        reqs = [Evolution.of_values("P", g, f, 0.1, dt=0.01, theta=1.0).then(0.05)]
        run_plan(fam, reqs, KernelStore(tmp_path))
        (path,) = tmp_path.iterdir()
        blob = path.read_bytes()
        calls = self.count_evolves(monkeypatch)
        path.unlink()
        # the batch evolves both legs again, with the old bits
        assert run_plan(fam, reqs, KernelStore(tmp_path))[1]["evolutions"] == 1
        assert calls == ["P", "P"] and path.read_bytes() == blob
        # a truncated file is not held, so the plan rebuilds it too
        path.write_bytes(blob[:len(blob) // 2])
        assert run_plan(fam, reqs, KernelStore(tmp_path))[1]["evolutions"] == 1
        assert calls == ["P"] * 4 and path.read_bytes() == blob
        (out,) = evolve_all(fam, reqs, KernelStore(tmp_path))
        assert calls == ["P"] * 4 and out.tobytes() == verify.load_field(path).tobytes()

    def test_plan_fills_the_store_the_requests_then_read(self, tmp_path,
                                                        monkeypatch):
        fam = headline_family()
        g = GridSpec(1, 2.0, 0.125)
        reqs = [Evolution.of_sources(variant, g, t, [(0.0, 0), (0.5, 1)], theta=theta)
                for variant in ("P_adjoint", "plain", "P")
                for t in (0.1, 0.2) for theta in (0.5, 1.0)]
        calls = self.count_evolves(monkeypatch)
        _, counts = run_plan(fam, reqs, KernelStore(tmp_path))
        # two centers per request, nothing stored before
        assert len(calls) == counts["evolutions"] == counts["batches"] == 24
        assert counts["requests"] == 12
        assert counts["fields found in the store"] == 0
        # (variant, fold, theta, dt), each factored once: the sources at 0
        # are even and evolve on the half grid, those at 0.5 on the whole
        # one; P_adjoint takes P's matrix, so two operators are assembled
        assert counts["factorizations"] == 24 and counts["assemblies"] == 2
        # each batch takes the default step, t / STEPS here, STEPS times
        assert counts["steps"] == 24 * STEPS
        # the run order is (variant, grid, theta, dt, fold, t)
        assert calls == sorted(calls)
        del calls[:]
        # a rerun finds every field stored and builds nothing
        _, again = run_plan(fam, reqs, KernelStore(tmp_path))
        assert again["fields found in the store"] == 24
        assert again["evolutions"] == again["factorizations"] == again["steps"] == 0
        planned = evolve_all(fam, reqs, KernelStore(tmp_path))
        assert calls == []
        alone = evolve_all(fam, reqs)
        for a, b in zip(planned, alone):
            assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_declarations_take_the_check_defaults(self, tmp_path, monkeypatch):
        fam = headline_family()
        g = GridSpec(1, 2.0, 0.125)
        # theta is each check's own: 1.0 or 0.5
        support = verify.Support(fam, 0, g, 0.1)
        decay = verify.DecayShape(fam, g, [0.1, 0.2], 0.0, 1, weight=None, slack=0.4)
        assert support.requests[0].theta == 1.0
        assert [r.theta for r in decay.requests] == [0.5, 0.5]
        # a declaration builds its requests once, for the plan and the check
        assert support.requests is support.requests
        with pytest.raises(TypeError):
            Support(fam, k=0, grid=g, t=0.1, thetta=0.5)
        # the check, planned alone, then finds every field the plan stored,
        # as does a declaration built from the same arguments
        run_plan(fam, support.requests, KernelStore(tmp_path))
        calls = self.count_evolves(monkeypatch)
        declared = run_alone(support, KernelStore(tmp_path))
        assert run_alone(Support(fam, 0, g, 0.1), KernelStore(tmp_path)) == declared
        assert calls == []

    def test_a_measurement_fails_on_a_field_mutated_by_hand(self, monkeypatch):
        fam = headline_family()
        g = GridSpec(1, 2.0, 0.125)
        domination = verify.Domination(fam, g, 0.1, [(0.0, 0)], n_random=0)
        calls = self.count_evolves(monkeypatch)
        coop = np.full((g.n_nodes, 2), 0.5)
        healthy = [[coop], [-0.5 * coop]]
        assert domination.measure(healthy).status == "pass"
        # the signed kernel climbs above the cooperative one at one node
        plain = -0.5 * coop
        plain[g.node_of(1.0), 1] = 0.75
        res = domination.measure([[coop], [plain]])
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
        # a request and its two-leg extension are two independent batches
        first = Evolution.of_values("P", GridSpec(1, 2.0, 0.125), f, 0.1, theta=1.0)
        reqs += [first, first.then(0.05)]
        run_plan(fam, reqs, KernelStore(tmp_path / "serial"))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _, counts = run_plan(fam, reqs, KernelStore(tmp_path / "threads"),
                                 jobs=(os.cpu_count() or 1) + 2)
        finally:
            sys.setswitchinterval(interval)
        # every batch ran exactly once, in whichever thread, with serial bits
        assert counts["evolutions"] == counts["batches"] == 26
        serial = sorted((tmp_path / "serial").iterdir())
        threads = sorted((tmp_path / "threads").iterdir())
        assert [p.name for p in serial] == [p.name for p in threads]
        assert all(a.read_bytes() == b.read_bytes() for a, b in zip(serial, threads))


def poly_family(d):
    # the bench configs' polynomial system, in one or two dimensions
    return diagonal_family("polynomial", d, 2, beta=1.0,
                           theta=[[1.0, 0.5], [0.5, 1.0]],
                           gamma=[[2.0, 1.0], [1.0, 2.0]])


# the bench poly1d grid, and a 2-D one a quarter of poly2d's size
POLY1D = (1, (4.0, 8.0, 16.0), 0.0625)
WIDE2D = (2, (2.0, 4.0, 6.0), 0.25)


def study_of(grid, t, reach=0.5, dt=None, theta=0.5):
    d, radii, spacing = grid
    source = 0.5 if d == 1 else (0.5, 0.0)
    return verify.WorkingRadius(poly_family(d), radii, spacing, t, source, 0.0625, dt,
                                theta, reach)


def choice_of(study):
    return study.measure(evolve_all(study.system, study.requests))


class TestWorkingRadius:
    def test_the_mass_beyond_the_ball_counts(self):
        # on poly1d at R = 4 the kernel differs from R = 16's by 1.3e-4 of
        # its peak on the nodes B_4 holds, within half the space error,
        # but the mass it leaves beyond R = 4 makes 7.9e-4, over it
        choice = choice_of(study_of(POLY1D, 0.5))
        assert choice.radius == 8.0
        assert choice.e_h == pytest.approx(1.119e-3, rel=1e-3)
        assert choice.truncation[4.0] == pytest.approx(7.919e-4, rel=1e-3)
        assert choice.truncation[4.0] > verify.TRUNCATION_SHARE * choice.e_h
        assert choice.truncation[8.0] < 1e-11
        assert choice.line() == (
            "working radius R = 8 at t = 0.5: truncation %.3e <= 0.5 x space error "
            "1.119e-03; R = 4 refused at 7.919e-04" % choice.truncation[8.0])

    def test_a_2d_grid_refuses_its_smallest_radius(self):
        choice = choice_of(study_of(WIDE2D, 0.5))
        assert choice.radius == 4.0
        assert choice.truncation[2.0] == pytest.approx(0.2109, rel=1e-3)
        assert choice.truncation[4.0] == pytest.approx(2.170e-3, rel=1e-3)
        assert choice.e_h == pytest.approx(8.645e-3, rel=1e-3)

    @pytest.mark.parametrize("grid", [POLY1D, WIDE2D], ids=["poly1d", "2-D"])
    def test_the_truncation_fits_half_the_space_error_at_every_time(self, grid):
        # the radius chosen at t_max = 0.5 holds at each verify.t of the
        # bench configs, where the space error is larger and the kernel
        # closer to its source
        working = choice_of(study_of(grid, 0.5)).radius
        for t in (0.1, 0.25, 0.5):
            choice = choice_of(study_of(grid, t))
            assert choice.radius <= working
            assert choice.truncation[working] <= verify.TRUNCATION_SHARE * choice.e_h

    @pytest.mark.parametrize("radii, spacing", [((4.0,), 0.0625), ((1.0, 1.875), 0.125)],
                             ids=["one radius", "R_max no multiple of 2h"])
    def test_without_a_study_the_largest_radius_works_and_nothing_evolves(
            self, radii, spacing):
        study = study_of((1, radii, spacing), 0.5)
        assert study.requests == []
        choice = study.measure([])
        assert (choice.radius, choice.e_h, choice.truncation) == (radii[-1], None, {})
        assert choice.line() == "working radius R = %g, the largest (no study)" % radii[-1]

    def test_a_radius_without_every_verify_point_is_refused_unevolved(self):
        study = study_of(POLY1D, 0.5, reach=4.0)
        assert [g.radius for g in study.grids] == [8.0, 16.0, 16.0]
        choice = choice_of(study)
        assert choice.radius == 8.0 and choice.truncation[4.0] == math.inf

    def test_the_largest_radius_names_no_truncation(self):
        choice = choice_of(study_of((1, (2.0, 4.0), 0.125), 0.5))
        assert choice.radius == 4.0
        assert choice.line().startswith("working radius R = 4, the largest, at t = 0.5: "
                                        "space error ")
