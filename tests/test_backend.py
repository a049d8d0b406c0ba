"""Backend selection and cross-backend agreement of the lockstep engine.

Three layers:

1. **Selection semantics** — name canonicalization, the ``REPRO_BACKEND``
   environment default, and both error paths (unknown name vs a known
   namespace that is not installed).  These run everywhere, no optional
   packages needed.
2. **Kernel backend-agnosticism without optional packages** — a backend
   injected into the loader table (NumPy under a different name, routed
   through the full name -> kernel path) must reproduce the default
   campaign bit for bit, proving selection is wired end to end; a guard
   namespace that rejects fancy indexing and in-place updates must do
   the same, on a single chain and on a p-worker plan's commit stops.
3. **array-api-strict agreement** — when the conformance namespace is
   installed (the CI ``backend-matrix`` lane installs it), the same seeds
   through the NumPy and strict backends must agree on makespan moments,
   event counters and all 7 time categories.  The uniform streams are
   host-drawn and shared, so agreement is to floating-point accumulation
   (both namespaces are NumPy-backed: in practice bitwise; the asserted
   gate is ±1e-9 relative).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chains import TaskChain
from repro.core import optimize
from repro.core.schedule import Schedule
from repro.exceptions import BackendUnavailableError, InvalidParameterError
from repro.simulation import (
    TIME_CATEGORIES,
    Backend,
    ParallelPlan,
    WorkerPlan,
    get_backend,
    installed_backends,
    run_monte_carlo,
    simulate_batch,
    simulate_parallel,
)
from repro.simulation import backend as backend_module
from repro.simulation.backend import canonical_name

RTOL = 1e-9  #: cross-backend agreement gate on identical uniform streams


@pytest.fixture
def instance(hot_platform):
    chain = TaskChain([60.0] * 6)
    schedule = optimize(chain, hot_platform, algorithm="admv").schedule
    return chain, hot_platform, schedule


# ----------------------------------------------------------------------
# 1. selection semantics and error paths
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_backends_are_registered(self):
        assert sorted(backend_module._LOADERS) == ["array-api-strict", "numpy"]

    def test_numpy_is_always_installed(self):
        assert "numpy" in installed_backends()
        be = get_backend("numpy")
        assert be.name == "numpy"
        assert be.xp is np

    def test_default_resolution_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert get_backend(None).name == "numpy"

    def test_env_variable_selects_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert get_backend(None).name == "numpy"
        monkeypatch.setenv("REPRO_BACKEND", "no-such-backend")
        with pytest.raises(InvalidParameterError, match="unknown backend"):
            get_backend(None)

    def test_names_are_canonicalized(self):
        assert canonical_name("Array_API_Strict") == "array-api-strict"
        assert get_backend("NumPy").name == "numpy"

    def test_unknown_backend_raises_with_the_known_names(self):
        with pytest.raises(InvalidParameterError, match="numpy"):
            get_backend("warp-drive")

    def test_uninstalled_namespace_raises_backend_unavailable(
        self, monkeypatch
    ):
        # stub the strict loader so the path runs whether or not the
        # package is installed (CI's lanes install it)
        def loader() -> Backend:
            raise ImportError("No module named 'array_api_strict'")

        monkeypatch.setitem(
            backend_module._LOADERS, "array-api-strict", loader
        )
        with pytest.raises(BackendUnavailableError, match="not installed"):
            get_backend("array-api-strict")
        assert installed_backends() == ("numpy",)

    def test_engine_rejects_unknown_backend_before_work(self, instance):
        chain, platform, schedule = instance
        with pytest.raises(InvalidParameterError, match="unknown backend"):
            simulate_batch(chain, platform, schedule, 10, backend="nope")
        with pytest.raises(InvalidParameterError, match="unknown backend"):
            run_monte_carlo(chain, platform, schedule, runs=10, backend="nope")

    def test_env_default_flows_into_the_engine(self, instance, monkeypatch):
        chain, platform, schedule = instance
        monkeypatch.setenv("REPRO_BACKEND", "no-such-backend")
        with pytest.raises(InvalidParameterError, match="unknown backend"):
            simulate_batch(chain, platform, schedule, 10)

    def test_scalar_engine_is_numpy_only(self, instance):
        chain, platform, schedule = instance
        with pytest.raises(InvalidParameterError, match="scalar"):
            run_monte_carlo(
                chain,
                platform,
                schedule,
                runs=10,
                engine="scalar",
                backend="array-api-strict",
            )
        # ... but an environment default must not break the oracle
        mc = run_monte_carlo(
            chain, platform, schedule, runs=10, engine="scalar", backend="numpy"
        )
        assert mc.backend == "numpy"


# ----------------------------------------------------------------------
# 2. an injected backend drives the kernel bit-for-bit
# ----------------------------------------------------------------------
class TestCustomBackendThroughTheKernel:
    @pytest.fixture(autouse=True)
    def mirror_backend(self, monkeypatch):
        monkeypatch.setitem(
            backend_module._LOADERS,
            "numpy-mirror",
            lambda: Backend("numpy-mirror", np),
        )

    def test_registered_mirror_backend_matches_numpy_bitwise(self, instance):
        chain, platform, schedule = instance
        # reference explicitly on numpy: under a REPRO_BACKEND lane the
        # default would resolve elsewhere and change what this proves
        reference = simulate_batch(
            chain, platform, schedule, 300, seed=7, backend="numpy"
        )
        mirror = simulate_batch(
            chain, platform, schedule, 300, seed=7, backend="numpy-mirror"
        )
        np.testing.assert_array_equal(reference.makespans, mirror.makespans)
        np.testing.assert_array_equal(reference.attempts, mirror.attempts)
        np.testing.assert_array_equal(
            reference.time_categories, mirror.time_categories
        )

    def test_monte_carlo_reports_the_backend_name(self, instance):
        chain, platform, schedule = instance
        mc = run_monte_carlo(
            chain, platform, schedule, runs=50, backend="numpy-mirror"
        )
        assert mc.backend == "numpy-mirror"


# ----------------------------------------------------------------------
# 3. the kernel never uses NumPy-only integer fancy indexing
# ----------------------------------------------------------------------
class _GuardArray(np.ndarray):
    """NumPy array that rejects integer-array ``__getitem__`` keys.

    The array-API standard specifies boolean-mask indexing and ``take``
    but *not* integer-array fancy indexing; routing the kernel through
    arrays of this type proves, without any optional package, that the
    engine sticks to the portable subset (the strict-namespace suite
    below re-proves it under the real conformance implementation).
    """

    @staticmethod
    def _reject_fancy(key) -> None:
        parts = key if isinstance(key, tuple) else (key,)
        for part in parts:
            if isinstance(part, np.ndarray) and part.dtype.kind in "iu":
                raise AssertionError(
                    "integer fancy indexing is not array-API portable"
                )
            if isinstance(part, (list,)):
                raise AssertionError("list indices are not array-API portable")

    def __getitem__(self, key):
        self._reject_fancy(key)
        return super().__getitem__(key)

    def __setitem__(self, key, value):
        raise AssertionError(
            "the kernel must update arrays functionally, not in place"
        )


class _GuardNamespace:
    """Array namespace whose creation functions hand out guard arrays."""

    float64 = np.float64
    int64 = np.int64
    bool = np.bool_

    @staticmethod
    def asarray(x, dtype=None, device=None):
        return np.asarray(x, dtype=dtype).view(_GuardArray)

    @staticmethod
    def zeros(shape, dtype=None, device=None):
        return np.zeros(shape, dtype=dtype).view(_GuardArray)

    def __getattr__(self, name):  # everything else: NumPy's array-API ops
        return getattr(np, name)


class TestKernelUsesOnlyPortableIndexing:
    @pytest.fixture(autouse=True)
    def guard_backend(self, monkeypatch):
        monkeypatch.setitem(
            backend_module._LOADERS,
            "numpy-guard",
            lambda: Backend("numpy-guard", _GuardNamespace()),
        )

    def test_guard_arrays_do_reject_fancy_indexing(self):
        arr = np.arange(5.0).view(_GuardArray)
        with pytest.raises(AssertionError, match="fancy"):
            arr[np.asarray([0, 2])]
        with pytest.raises(AssertionError, match="in place"):
            arr[0] = 1.0
        assert float(arr[np.asarray([True, False, True, False, False])][1]) == 2.0

    def test_kernel_runs_on_guard_arrays_bitwise_equal(self, instance):
        chain, platform, schedule = instance
        reference = simulate_batch(
            chain, platform, schedule, 300, seed=11, backend="numpy"
        )
        guarded = simulate_batch(
            chain, platform, schedule, 300, seed=11, backend="numpy-guard"
        )
        np.testing.assert_array_equal(reference.makespans, guarded.makespans)
        np.testing.assert_array_equal(reference.attempts, guarded.attempts)
        np.testing.assert_array_equal(
            reference.time_categories, guarded.time_categories
        )

    def test_commit_stops_run_on_guard_arrays_bitwise_equal(
        self, hot_platform
    ):
        # Two workers, each committing mid-chain and consuming the other's
        # first epoch: the kernel's commit_stops branch stamps the
        # crossings that the wall-clock composition folds.
        workers = (
            WorkerPlan(
                chain=TaskChain([40.0, 25.0, 60.0, 30.0]),
                schedule=Schedule.from_positions(4, disk=[2, 4], partial=[1]),
                boundaries=(2,),
            ),
            WorkerPlan(
                chain=TaskChain([50.0, 35.0, 45.0]),
                schedule=Schedule.from_positions(3, disk=[1, 3], memory=[2]),
                boundaries=(1,),
            ),
        )
        plan = ParallelPlan(
            workers=workers, deps=(((), ((1, 0),)), ((), ((0, 0),)))
        )
        reference = simulate_parallel(
            plan, hot_platform, 300, seed=5, chunk_size=128, backend="numpy"
        )
        guarded = simulate_parallel(
            plan,
            hot_platform,
            300,
            seed=5,
            chunk_size=128,
            backend="numpy-guard",
        )
        np.testing.assert_array_equal(reference.makespans, guarded.makespans)
        np.testing.assert_array_equal(
            reference.worker_finish, guarded.worker_finish
        )
        for ref, got in zip(reference.worker_results, guarded.worker_results):
            assert ref.commit_times is not None
            np.testing.assert_array_equal(ref.commit_times, got.commit_times)
        # the campaign saw rollbacks, so the stamps are not trivial
        assert sum(r.fail_stop_errors.sum() for r in reference.worker_results)

    def test_kernel_is_statically_portable(self):
        # Lint-time counterpart of the runtime guard above: RPR002 walks
        # the kernel modules' AST and rejects NumPy-only xp.* names,
        # integer fancy indexing, and in-place updates on xp arrays.
        from repro.devtools import run_checks

        report = run_checks(select=["RPR002"])
        offenders = [f.location() for f in report.active]
        assert not offenders, f"kernel portability violations: {offenders}"


# ----------------------------------------------------------------------
# 4. numpy <-> array-api-strict lockstep agreement (CI backend-matrix)
# ----------------------------------------------------------------------
class TestArrayApiStrictAgreement:
    @pytest.fixture(autouse=True)
    def strict(self):
        return pytest.importorskip(
            "array_api_strict",
            reason="array-api-strict not installed (CI backend-matrix lane)",
        )

    def _assert_backends_agree(self, chain, platform, schedule, n_runs=400):
        a = simulate_batch(
            chain, platform, schedule, n_runs, seed=42, backend="numpy"
        )
        b = simulate_batch(
            chain, platform, schedule, n_runs, seed=42, backend="array-api-strict"
        )
        assert isinstance(b.makespans, np.ndarray)  # host result contract
        np.testing.assert_allclose(a.makespans, b.makespans, rtol=RTOL)
        np.testing.assert_array_equal(a.fail_stop_errors, b.fail_stop_errors)
        np.testing.assert_array_equal(a.silent_errors, b.silent_errors)
        np.testing.assert_array_equal(a.silent_detected, b.silent_detected)
        np.testing.assert_array_equal(a.silent_missed, b.silent_missed)
        np.testing.assert_array_equal(a.attempts, b.attempts)
        assert a.steps == b.steps
        np.testing.assert_allclose(
            a.time_categories, b.time_categories, rtol=RTOL, atol=0.0
        )
        # moments of the makespan sample agree to the same gate
        assert a.makespans.mean() == pytest.approx(
            b.makespans.mean(), rel=RTOL
        )
        assert a.makespans.std() == pytest.approx(b.makespans.std(), rel=RTOL)
        for name, k in zip(TIME_CATEGORIES, range(len(TIME_CATEGORIES))):
            assert a.time_categories[k].mean() == pytest.approx(
                b.time_categories[k].mean(), rel=RTOL
            ), f"category {name!r} mean diverged across backends"

    def test_hot_platform(self, instance):
        chain, platform, schedule = instance
        self._assert_backends_agree(chain, platform, schedule)

    def test_silent_only_platform(self, silent_only_platform):
        chain = TaskChain([50.0, 70.0, 40.0, 60.0])
        self._assert_backends_agree(
            chain, silent_only_platform, Schedule.from_string("p.MD")
        )

    def test_fail_stop_only_with_unverified_tail(self, fail_stop_only_platform):
        chain = TaskChain([50.0, 70.0, 40.0, 60.0])
        self._assert_backends_agree(
            chain,
            fail_stop_only_platform,
            Schedule.from_positions(4, disk=[2]),
        )

    def test_chunked_campaign_agrees(self, instance):
        chain, platform, schedule = instance
        a = simulate_batch(
            chain, platform, schedule, 500, seed=9, chunk_size=128
        )
        b = simulate_batch(
            chain,
            platform,
            schedule,
            500,
            seed=9,
            chunk_size=128,
            backend="array-api-strict",
        )
        np.testing.assert_allclose(a.makespans, b.makespans, rtol=RTOL)

    def test_adaptive_campaign_runs_on_strict(self, instance):
        chain, platform, schedule = instance
        a = run_monte_carlo(
            chain, platform, schedule, runs=5000, seed=3, target_ci=0.02
        )
        b = run_monte_carlo(
            chain,
            platform,
            schedule,
            runs=5000,
            seed=3,
            target_ci=0.02,
            backend="array-api-strict",
        )
        assert b.backend == "array-api-strict"
        assert b.convergence is not None
        assert a.runs == b.runs
        assert a.mean == pytest.approx(b.mean, rel=RTOL)
        for name in TIME_CATEGORIES:
            assert a.breakdown[name] == pytest.approx(
                b.breakdown[name], rel=RTOL, abs=1e-12
            )
