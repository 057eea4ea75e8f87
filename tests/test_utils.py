"""Tests for repro.utils (rng, serialization, validation, logging, process ownership, shards)."""

from __future__ import annotations

import ast
import logging
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.utils import (
    as_rng,
    check_choice,
    check_dtype,
    check_in_range,
    check_positive,
    check_shape,
    get_logger,
    load_json,
    load_npz,
    save_json,
    save_npz,
    set_verbosity,
    spawn_rngs,
)
from repro.utils import parallel
from repro.utils.rng import deterministic_hash, permutation_batches


class TestRng:
    def test_as_rng_from_int_is_deterministic(self):
        a, b = as_rng(42), as_rng(42)
        assert np.array_equal(a.integers(0, 100, 10), b.integers(0, 100, 10))

    def test_as_rng_passthrough_generator(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_as_rng_from_seed_sequence(self):
        ss = np.random.SeedSequence(7)
        gen = as_rng(ss)
        assert isinstance(gen, np.random.Generator)

    def test_spawn_rngs_independent(self):
        children = spawn_rngs(0, 3)
        assert len(children) == 3
        draws = [c.integers(0, 1_000_000) for c in children]
        assert len(set(draws)) > 1

    def test_spawn_rngs_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_spawn_rngs_from_generator(self):
        children = spawn_rngs(np.random.default_rng(3), 2)
        assert len(children) == 2

    @pytest.mark.parametrize("n_items,batch_size", [(10, 3), (9, 3), (1, 4), (20, 20)])
    def test_permutation_batches_cover_all(self, n_items, batch_size):
        batches = list(permutation_batches(n_items, batch_size, rng=0))
        flat = np.concatenate(batches)
        assert sorted(flat.tolist()) == list(range(n_items))

    def test_permutation_batches_drop_last(self):
        batches = list(permutation_batches(10, 3, rng=0, drop_last=True))
        assert all(len(b) == 3 for b in batches)
        assert len(batches) == 3

    def test_permutation_batches_invalid_batch(self):
        with pytest.raises(ValueError):
            list(permutation_batches(10, 0))

    def test_deterministic_hash_stable(self):
        assert deterministic_hash(["a", 1, 2.5]) == deterministic_hash(["a", 1, 2.5])
        assert deterministic_hash(["a"]) != deterministic_hash(["b"])


class TestSerialization:
    def test_json_roundtrip_with_numpy_types(self, tmp_path):
        payload = {
            "int": np.int64(3),
            "float": np.float32(1.5),
            "bool": np.bool_(True),
            "array": np.arange(4),
            "nested": {"x": [1, 2, 3]},
        }
        path = save_json(tmp_path / "sub" / "payload.json", payload)
        loaded = load_json(path)
        assert loaded["int"] == 3
        assert loaded["float"] == pytest.approx(1.5)
        assert loaded["bool"] is True
        assert loaded["array"] == [0, 1, 2, 3]
        assert loaded["nested"]["x"] == [1, 2, 3]

    def test_npz_roundtrip(self, tmp_path):
        arrays = {"a": np.arange(6).reshape(2, 3), "b": np.ones(4, dtype=np.float32)}
        path = save_npz(tmp_path / "arrays.npz", arrays)
        loaded = load_npz(path)
        assert set(loaded) == {"a", "b"}
        np.testing.assert_array_equal(loaded["a"], arrays["a"])
        np.testing.assert_array_equal(loaded["b"], arrays["b"])

    def test_npz_uncompressed(self, tmp_path):
        path = save_npz(tmp_path / "raw.npz", {"x": np.zeros(3)}, compress=False)
        assert load_npz(path)["x"].shape == (3,)


class TestValidation:
    def test_check_positive_accepts(self):
        assert check_positive("x", 1.5) == 1.5
        assert check_positive("x", 0.0, strict=False) == 0.0

    @pytest.mark.parametrize("value,strict", [(0, True), (-1, True), (-0.5, False)])
    def test_check_positive_rejects(self, value, strict):
        with pytest.raises(ValueError):
            check_positive("x", value, strict=strict)

    def test_check_in_range(self):
        assert check_in_range("x", 0.5, 0, 1) == 0.5
        with pytest.raises(ValueError):
            check_in_range("x", 1.5, 0, 1)
        with pytest.raises(ValueError):
            check_in_range("x", 0.0, 0, 1, inclusive=(False, True))

    def test_check_shape(self):
        arr = np.zeros((2, 3))
        check_shape("x", arr, (2, 3))
        check_shape("x", arr, (None, 3))
        with pytest.raises(ValueError):
            check_shape("x", arr, (3, 2))
        with pytest.raises(ValueError):
            check_shape("x", arr, (2, 3, 1))

    def test_check_dtype(self):
        arr = np.zeros(3, dtype=np.int8)
        check_dtype("x", arr, [np.int8, np.int16])
        with pytest.raises(TypeError):
            check_dtype("x", arr, [np.float32])

    def test_check_choice(self):
        assert check_choice("x", "a", ["a", "b"]) == "a"
        with pytest.raises(ValueError):
            check_choice("x", "c", ["a", "b"])


class TestProcessOwnership:
    """Inside a process the cores belong to BLAS threads, plus shard threads where BLAS is
    pinned (``TestMapShards``); only the fleet starts processes."""

    def test_only_the_fleet_imports_process_pools(self):
        package = Path(repro.__file__).parent
        offenders = []
        for path in sorted(package.rglob("*.py")):
            module = path.relative_to(package.parent).as_posix()
            if module.startswith("repro/serving/fleet/"):
                continue
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    modules, names = [alias.name for alias in node.names], []
                elif isinstance(node, ast.ImportFrom):
                    modules, names = [node.module or ""], [alias.name for alias in node.names]
                elif isinstance(node, ast.Attribute):
                    modules, names = [], [node.attr]
                else:
                    continue
                if "ProcessPoolExecutor" in names or any(
                    name.split(".")[0] == "multiprocessing" or name == "concurrent.futures.process"
                    for name in modules
                ):
                    offenders.append(f"{module}:{node.lineno}")
        assert offenders == [], (
            "process pools outside repro/serving/fleet/; see repro.utils.parallel: " + ", ".join(offenders)
        )


class TestMapShards:
    """``map_shards`` runs contiguous shards on the lanes that a pinned BLAS leaves idle."""

    @pytest.fixture(autouse=True)
    def any_item_fills_a_shard(self, monkeypatch):
        monkeypatch.setattr(parallel, "MIN_SHARD_MACS", 1)

    @pytest.mark.parametrize(
        "threads, cores, lanes",
        [(0, 4, 1), (1, 4, 4), (2, 4, 2), (2, 5, 2), (8, 2, 1), (3, 2, 1)],  # 0: not an OpenBLAS
    )
    def test_lanes_are_cores_over_openblas_threads(self, monkeypatch, threads, cores, lanes):
        monkeypatch.setattr(parallel, "_lanes", 0)
        monkeypatch.setattr(parallel, "_openblas_threads", lambda: threads)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        assert parallel.process_lanes() == lanes
        monkeypatch.setattr(parallel, "_openblas_threads", lambda: 1)
        assert parallel.process_lanes() == lanes  # counted once per process

    def test_without_affinity_the_cpu_count_is_the_cores(self, monkeypatch):
        monkeypatch.setattr(parallel, "_lanes", 0)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        monkeypatch.setattr(parallel, "_openblas_threads", lambda: 2)
        assert parallel.process_lanes() == 3

    @pytest.mark.parametrize("pinned", [True, False])
    def test_the_loaded_openblas_reports_its_threads(self, pinned):
        maps = Path("/proc/self/maps")
        if not maps.exists() or "openblas" not in maps.read_text().lower():
            pytest.skip("only an OpenBLAS mapped into a Linux process can be asked for its threads")
        env = {name: value for name, value in os.environ.items()
               if name not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        if pinned:
            env["OPENBLAS_NUM_THREADS"] = "1"
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(repro.__file__).parents[1]),
                                                          env.get("PYTHONPATH")]))
        script = ("import os; from repro.utils import parallel; print(parallel._openblas_threads(), "
                  "parallel.process_lanes(), len(os.sched_getaffinity(0)))")
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                             check=True, timeout=60).stdout
        threads, lanes, cores = map(int, out.split())
        assert threads == 1 if pinned else threads >= 1
        assert lanes == max(1, cores // threads)

    def test_a_fleet_replica_runs_one_lane(self, force_lanes):
        force_lanes(4)
        parallel.run_one_lane()
        assert parallel.process_lanes() == 1
        calls = []
        parallel.map_shards(lambda shard, lead: calls.append(lead) or shard, np.arange(8), 1)
        assert calls == [True] and parallel._pool is None

    def test_shards_are_contiguous_and_the_lead_runs_inline(self, force_lanes):
        force_lanes(3)
        calls = []

        def fn(shard, lead):
            calls.append((shard[:, 0].tolist(), lead, threading.current_thread()))
            return shard * 2

        x = np.arange(20).reshape(10, 2)
        np.testing.assert_array_equal(parallel.map_shards(fn, x, 1), x * 2)
        calls.sort(key=lambda call: call[0])
        assert [rows for rows, _, _ in calls] == [[0, 2, 4, 6], [8, 10, 12], [14, 16, 18]]
        assert [lead for _, lead, _ in calls] == [True, False, False]
        assert calls[0][2] is threading.current_thread()
        assert all(thread.name.startswith("repro-shard") for _, _, thread in calls[1:])

    @pytest.mark.parametrize("items, macs_per_item, lanes", [(1, 10**9, 4), (7, 10**9, 1), (4, 2, 4)])
    def test_one_lane_runs_inline_without_a_pool(self, force_lanes, monkeypatch, items, macs_per_item, lanes):
        force_lanes(lanes)
        monkeypatch.setattr(parallel, "MIN_SHARD_MACS", 10)  # (4, 2): 8 MACs in all fill no shard
        threads_before = set(threading.enumerate())
        calls = []
        x = np.arange(items)
        out = parallel.map_shards(lambda shard, lead: calls.append((shard, lead)) or shard, x, macs_per_item)
        np.testing.assert_array_equal(out, x)
        assert len(calls) == 1 and calls[0][1] is True and calls[0][0] is x
        assert parallel._pool is None and set(threading.enumerate()) <= threads_before

    def test_a_raising_lead_returns_only_after_every_lane(self, force_lanes):
        force_lanes(3)
        finished = []

        def fn(shard, lead):
            if lead:
                raise ValueError("lead shard failed")
            time.sleep(0.2)
            finished.append(len(shard))
            return shard

        with pytest.raises(ValueError, match="lead shard failed"):
            parallel.map_shards(fn, np.arange(9), 1)
        assert finished == [3, 3]

    def test_a_raising_pool_shard_raises_the_first_error(self, force_lanes):
        force_lanes(3)

        def fn(shard, lead):
            if not lead:
                raise ValueError(f"shard at {shard[0]} failed")
            return shard

        with pytest.raises(ValueError, match="shard at 3 failed"):
            parallel.map_shards(fn, np.arange(9), 1)


class TestLogging:
    def test_get_logger_namespaced(self):
        logger = get_logger("unit.test")
        assert logger.name == "repro.unit.test"

    def test_set_verbosity_accepts_strings(self):
        set_verbosity("DEBUG")
        assert logging.getLogger("repro").level == logging.DEBUG
        set_verbosity(logging.WARNING)
        assert logging.getLogger("repro").level == logging.WARNING


@given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=20))
@settings(max_examples=25, deadline=None)
def test_deterministic_hash_property(values):
    assert deterministic_hash(values) == deterministic_hash(list(values))
    assert 0 <= deterministic_hash(values) < 2**32
