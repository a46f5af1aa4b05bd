import concurrent.futures
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from sqwa import losscape
from sqwa.data import synthetic_blobs
from sqwa.losscape import (
    build_plane,
    evaluate_surface,
    export_grid,
    grid_point,
    load_grid,
    params_to_vector,
    quantized_grid_point,
    vector_to_network,
)
from sqwa.nn import dense, evaluate, init_weights, relu
from sqwa.quantizer import QuantizerConfig, quantize_tensor


def _net(seed):
    return init_weights([dense(3, 5), relu(), dense(5, 2)], (3,), seed=seed)


def test_vector_round_trip():
    net = _net(70)
    vec = params_to_vector(net)
    back = vector_to_network(net, vec)
    for i in net.param_layers():
        np.testing.assert_array_equal(back.weights[i], net.weights[i])
        np.testing.assert_array_equal(back.biases[i], net.biases[i])


def test_vector_length_checked():
    net = _net(71)
    vec = params_to_vector(net)
    with pytest.raises(ValueError):
        vector_to_network(net, vec[:-1])
    plane = build_plane(vec, 2.0 * vec, vec + np.arange(vec.size))
    wider = init_weights([dense(3, 6), relu(), dense(6, 2)], (3,), seed=73)
    with pytest.raises(ValueError, match="template needs"):
        quantized_grid_point(plane, 0.1, 0.1, wider, 2, [0.1, 0.1])


def test_plane_orthonormal_basis():
    rng = np.random.default_rng(72)
    for _ in range(100):
        w1, w2, w3 = rng.normal(size=(3, 50))
        plane = build_plane(w1, w2, w3)
        assert abs(plane.u_hat @ plane.v_hat) <= 1e-10
        assert abs(np.linalg.norm(plane.u_hat) - 1.0) <= 1e-10
        assert abs(np.linalg.norm(plane.v_hat) - 1.0) <= 1e-10


def test_plane_anchors_reconstruct_vertices():
    rng = np.random.default_rng(73)
    for _ in range(100):
        w1, w2, w3 = rng.normal(size=(3, 40))
        plane = build_plane(w1, w2, w3)
        for anchor, w in zip(plane.anchors, (w1, w2, w3)):
            rec = grid_point(plane, anchor[0], anchor[1])
            assert np.linalg.norm(rec - w) <= 1e-8 * max(np.linalg.norm(w), 1.0)


def test_plane_rejects_degenerate_inputs():
    w = np.arange(6.0)
    with pytest.raises(ValueError, match="coincide"):
        build_plane(w, w, w + 1.0)
    with pytest.raises(ValueError, match="collinear"):
        build_plane(w, w + 1.0, w + 2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", [0, 1, 2])
def test_plane_rejects_a_vector_that_is_not_finite(which, bad):
    # a NaN or infinite entry would give NaN anchors, and a surface whose
    # axes no exported file can record
    vecs = [np.arange(6.0), np.arange(6.0) ** 2, np.ones(6)]
    vecs[which][3] = bad
    with pytest.raises(ValueError, match="must be finite"):
        build_plane(*vecs)


def test_quantized_grid_point_weight_segments_on_grid():
    net = _net(74)
    steps = [0.2, 0.3]
    vec = quantized_grid_point(
        build_plane(params_to_vector(_net(74)),
                    params_to_vector(_net(75)),
                    params_to_vector(_net(76))),
        0.37, -0.12, net, 2, steps)
    got = vector_to_network(net, vec)
    for j, i in enumerate(got.param_layers()):
        q = quantize_tensor(got.weights[i], QuantizerConfig(2, steps[j]))
        np.testing.assert_array_equal(got.weights[i], q)


def test_surface_axes_contain_anchors():
    nets = [_net(s) for s in (80, 81, 82)]
    vecs = [params_to_vector(n) for n in nets]
    plane = build_plane(*vecs)
    data = synthetic_blobs(2, 8, 3, 0.5, seed=80)
    grid = evaluate_surface(plane, nets[0], data, resolution=9)
    for ax, ay in plane.anchors:
        assert np.any(np.isclose(grid.xs, ax, atol=0.0))
        assert np.any(np.isclose(grid.ys, ay, atol=0.0))


def test_surface_anchor_loss_matches_direct_evaluation():
    nets = [_net(s) for s in (83, 84, 85)]
    vecs = [params_to_vector(n) for n in nets]
    plane = build_plane(*vecs)
    data = synthetic_blobs(2, 10, 3, 0.5, seed=83)
    grid = evaluate_surface(plane, nets[0], data, resolution=7)
    for anchor, net in zip(plane.anchors, nets):
        i = int(np.argmin(np.abs(grid.xs - anchor[0])))
        j = int(np.argmin(np.abs(grid.ys - anchor[1])))
        direct_loss, direct_acc = evaluate(net, data)
        assert grid.loss[i, j] == pytest.approx(direct_loss, abs=1e-10)
        assert grid.accuracy[i, j] == pytest.approx(direct_acc, abs=0.0)


def test_surface_quantized_mode_requires_config():
    nets = [_net(s) for s in (86, 87, 88)]
    plane = build_plane(*[params_to_vector(n) for n in nets])
    data = synthetic_blobs(2, 6, 3, 0.5, seed=86)
    with pytest.raises(ValueError):
        evaluate_surface(plane, nets[0], data, resolution=3, mode="quantized")
    with pytest.raises(ValueError):
        evaluate_surface(plane, nets[0], data, resolution=3, mode="nope")


@pytest.mark.parametrize("margin", [np.nan, np.inf])
def test_surface_rejects_a_margin_that_is_not_finite(margin):
    # such a margin gives axes that an exported CSV cannot be read back on
    nets = [_net(s) for s in (86, 87, 88)]
    plane = build_plane(*[params_to_vector(n) for n in nets])
    data = synthetic_blobs(2, 6, 3, 0.5, seed=86)
    with pytest.raises(ValueError, match="margin must be finite"):
        evaluate_surface(plane, nets[0], data, resolution=3, margin=margin)


@pytest.mark.parametrize("quant", [{"bits": 2, "steps": [0.15, 0.25]}, {"bits": 2},
                                   {"steps": [0.15, 0.25]}])
def test_a_full_precision_surface_rejects_quantizer_settings(quant):
    # it quantizes nothing, so bits or steps would only mislabel its sidecar
    nets = [_net(s) for s in (86, 87, 88)]
    plane = build_plane(*[params_to_vector(n) for n in nets])
    data = synthetic_blobs(2, 6, 3, 0.5, seed=86)
    with pytest.raises(ValueError, match="full_precision mode quantizes nothing"):
        evaluate_surface(plane, nets[0], data, resolution=3, **quant)


def test_surface_quantized_grid_residency():
    nets = [_net(s) for s in (89, 90, 91)]
    plane = build_plane(*[params_to_vector(n) for n in nets])
    data = synthetic_blobs(2, 6, 3, 0.5, seed=89)
    steps = [0.15, 0.25]
    grid = evaluate_surface(plane, nets[0], data, resolution=5,
                            mode="quantized", bits=2, steps=steps)
    assert grid.bits == 2 and grid.steps == steps
    # spot-check: re-deriving one grid vector shows quantized weights
    vec = quantized_grid_point(plane, grid.xs[2], grid.ys[3], nets[0], 2, steps)
    net = vector_to_network(nets[0], vec)
    for j, i in enumerate(net.param_layers()):
        lv = np.rint(net.weights[i] / steps[j])
        np.testing.assert_array_equal(lv * steps[j], net.weights[i])
        assert np.abs(lv).max() <= 1


@pytest.mark.parametrize("count", [1, 3])
def test_quantized_mode_rejects_a_step_list_of_the_wrong_length(count):
    # 8->24->10 MLP: one step would leave layer 2 at full precision, and a
    # third step has no layer to go to
    nets = [init_weights([dense(8, 24), relu(), dense(24, 10)], (8,), seed=s)
            for s in (101, 102, 103)]
    plane = build_plane(*[params_to_vector(n) for n in nets])
    steps = [0.1] * count
    with pytest.raises(ValueError, match="disagree"):
        quantized_grid_point(plane, 0.1, 0.2, nets[0], 2, steps)
    data = synthetic_blobs(10, 2, 8, 0.5, seed=101)
    with pytest.raises(ValueError, match="disagree"):
        evaluate_surface(plane, nets[0], data, resolution=3, mode="quantized", bits=2,
                         steps=steps)


def test_export_load_round_trip(tmp_path):
    nets = [_net(s) for s in (95, 96, 97)]
    plane = build_plane(*[params_to_vector(n) for n in nets])
    data = synthetic_blobs(2, 6, 3, 0.5, seed=95)
    grid = evaluate_surface(plane, nets[0], data, resolution=4,
                            mode="quantized", bits=2, steps=[0.2, 0.2],
                            dataset_id="blobs-test", split="train")
    csv_path, meta_path = export_grid(grid, tmp_path / "surface.csv")
    assert csv_path.exists() and meta_path.exists()
    back = load_grid(csv_path)
    np.testing.assert_array_equal(back.xs, grid.xs)
    np.testing.assert_array_equal(back.ys, grid.ys)
    np.testing.assert_array_equal(back.loss, grid.loss)
    np.testing.assert_array_equal(back.accuracy, grid.accuracy)
    np.testing.assert_array_equal(back.anchors, grid.anchors)
    assert back.mode == "quantized" and back.bits == 2
    assert back.steps == [0.2, 0.2]
    assert back.dataset_id == "blobs-test" and back.split == "train"


def test_export_csv_header_and_row_count(tmp_path):
    nets = [_net(s) for s in (98, 99, 100)]
    plane = build_plane(*[params_to_vector(n) for n in nets])
    data = synthetic_blobs(2, 6, 3, 0.5, seed=98)
    grid = evaluate_surface(plane, nets[0], data, resolution=3)
    csv_path, _ = export_grid(grid, tmp_path / "s.csv")
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "x,y,loss,accuracy"
    assert len(lines) == 1 + 9


@pytest.mark.parametrize("torn", [".csv", ".csv.meta.json"])
def test_an_export_torn_halfway_leaves_no_torn_file(tmp_path, monkeypatch, torn):
    # A rewrite whose write of `torn` stops halfway leaves each of the two
    # files whole, the old or the new; torn at the CSV, the first write,
    # load_grid still reads the previous grid exactly.
    plane, template, data = _surface_inputs()
    old = evaluate_surface(plane, template, data, resolution=3, dataset_id="old")
    new = evaluate_surface(plane, template, data, resolution=3, mode="quantized", bits=2,
                           steps=[0.2, 0.2], dataset_id="new")
    csv_path, meta_path = export_grid(old, tmp_path / "s.csv")
    before = {p: p.read_bytes() for p in (csv_path, meta_path)}
    export_grid(new, tmp_path / "new.csv")
    after = {csv_path: (tmp_path / "new.csv").read_bytes(),
             meta_path: (tmp_path / "new.csv.meta.json").read_bytes()}
    write_text = Path.write_text

    def tearing(self, text, *args, **kwargs):
        if self.name in (f"s{torn}", f"s{torn}.tmp"):
            write_text(self, text[:len(text) // 2], *args, **kwargs)
            raise OSError("no space left on device")
        return write_text(self, text, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(Path, "write_text", tearing)
        with pytest.raises(OSError, match="no space left"):
            export_grid(new, csv_path)
    for p in (csv_path, meta_path):
        assert p.read_bytes() in (before[p], after[p]), p.name
    if torn == ".csv":
        assert {p: p.read_bytes() for p in (csv_path, meta_path)} == before
        back = load_grid(csv_path)
        np.testing.assert_array_equal(back.loss, old.loss)
        np.testing.assert_array_equal(back.accuracy, old.accuracy)
        assert (back.mode, back.dataset_id) == ("full_precision", "old")


# --- the surface split across processes ------------------------------------

def test_an_export_whose_sidecar_write_fails_leaves_the_old_pair(tmp_path, monkeypatch):
    # the rewrite of a grid on the same axes fails at the sidecar's
    # temporary file: neither file is renamed, so load_grid reads the old
    # grid whole, not the new losses under the old metadata
    plane, template, data = _surface_inputs()
    old = evaluate_surface(plane, template, data, resolution=3, dataset_id="old")
    new = evaluate_surface(plane, template, data, resolution=3, mode="quantized", bits=2,
                           steps=[0.2, 0.2], dataset_id="new")
    assert not np.array_equal(old.loss, new.loss)
    csv_path, meta_path = export_grid(old, tmp_path / "s.csv")
    before = {p: p.read_bytes() for p in (csv_path, meta_path)}
    write_text = Path.write_text

    def failing(self, text, *args, **kwargs):
        if self.name == "s.csv.meta.json.tmp":
            raise OSError("no space left on device")
        return write_text(self, text, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(Path, "write_text", failing)
        with pytest.raises(OSError, match="no space left"):
            export_grid(new, csv_path)
    # and the new CSV's temporary sibling is gone with it
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "s.csv.meta.json"]
    assert {p: p.read_bytes() for p in (csv_path, meta_path)} == before
    back = load_grid(csv_path)
    assert (back.mode, back.dataset_id) == ("full_precision", "old")
    np.testing.assert_array_equal(back.loss, old.loss)
    export_grid(new, csv_path)
    assert load_grid(csv_path).dataset_id == "new"
    assert csv_path.read_bytes().count(b"\r\n") == 1 + 9


def _surface_inputs(seed=95):
    nets = [_net(s) for s in (seed, seed + 1, seed + 2)]
    plane = build_plane(*[params_to_vector(n) for n in nets])
    return plane, nets[0], synthetic_blobs(2, 6, 3, 0.5, seed=seed)


def _force_cores(monkeypatch, cores):
    # and split grids of any size, however small
    monkeypatch.setattr(losscape, "_usable_cores", lambda: cores)
    monkeypatch.setattr(losscape, "_MIN_BLOCK_SAMPLES", 1)


def _force_start(monkeypatch, method):
    # The thread probe reads as `method` needs; returns the start methods
    # the surface then asks multiprocessing for, in call order.
    monkeypatch.setattr(losscape, "_runs_one_thread", lambda: method == "fork")
    return _record_start_methods(monkeypatch)


def _record_start_methods(monkeypatch):
    methods = []
    real_get_context = multiprocessing.get_context

    def get_context(method=None):
        methods.append(method)
        return real_get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    return methods


def _same_grid(a, b):
    return all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in ("xs", "ys", "loss", "accuracy"))


@pytest.mark.parametrize("mode, quant", [("full_precision", {}),
                                         ("quantized", {"bits": 2, "steps": [0.15, 0.25]})])
@pytest.mark.parametrize("resolution", [7, 3], ids=["resolution0", "resolution1"])
def test_surface_is_identical_for_every_core_count(monkeypatch, mode, quant, resolution):
    # 7 rows do not split evenly over 2 or 4 cores; 3 rows are fewer than 4,
    # and still hold the three x anchors of the default range. Forked and
    # spawned workers both give the in-process grid.
    plane, template, data = _surface_inputs()
    calls = []
    real_kernel = losscape._evaluate_stack

    def counted(net, stack, *args):
        calls.extend([os.getpid()] * len(stack))  # one entry per point scored
        return real_kernel(net, stack, *args)

    monkeypatch.setattr(losscape, "_evaluate_stack", counted)
    grids = {}
    for cores, method in [(1, None), (2, "fork"), (2, "spawn"), (4, "fork"), (4, "spawn")]:
        _force_cores(monkeypatch, cores)
        methods = _force_start(monkeypatch, method)
        calls.clear()
        grids[cores, method] = evaluate_surface(plane, template, data, resolution=resolution,
                                                mode=mode, **quant)
        # this process evaluated only its own block, the first of the split
        first_block = -(-resolution // min(cores, resolution))
        assert calls == [os.getpid()] * first_block * resolution
        assert methods == ([] if first_block == resolution else [method])
    for key in grids:
        assert _same_grid(grids[key], grids[1, None])


def test_the_thread_probe_decides_the_start_method(monkeypatch):
    # A second live thread makes the probe read False and the surface spawn.
    plane, template, data = _surface_inputs()
    expected = evaluate_surface(plane, template, data, resolution=4)
    _force_cores(monkeypatch, 2)
    methods = _record_start_methods(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,), daemon=True)
    thread.start()
    try:
        assert not losscape._runs_one_thread()
        grid = evaluate_surface(plane, template, data, resolution=4)
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert methods == ["spawn"] and _same_grid(grid, expected)


def _env_with_src():
    src = os.path.dirname(os.path.dirname(losscape.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no per-thread listing")
def test_the_thread_probe_reads_one_thread_with_blas_pinned_to_one():
    # the process the benchmark runs a surface in: numpy and sqwa imported,
    # BLAS limited to the calling thread
    env = {**_env_with_src(), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", "import sqwa.losscape as l; "
                           "print(l._runs_one_thread())"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.stdout.strip() == "True", proc.stderr


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no per-thread listing")
def test_back_to_back_surfaces_all_fork_with_blas_pinned_to_one(tmp_path):
    # A shut-down pool's joined threads stay listed for a few ms; a surface
    # that started right after read two threads and spawned its workers.
    script = tmp_path / "back_to_back.py"
    script.write_text(textwrap.dedent("""
        import multiprocessing
        from sqwa import losscape
        from sqwa.data import synthetic_blobs
        from sqwa.losscape import build_plane, evaluate_surface, params_to_vector
        from sqwa.nn import dense, init_weights, relu

        if __name__ == "__main__":
            methods, real_get_context = [], multiprocessing.get_context
            multiprocessing.get_context = lambda method=None: (
                methods.append(method), real_get_context(method))[1]
            losscape._usable_cores = lambda: 2
            losscape._MIN_BLOCK_SAMPLES = 1
            nets = [init_weights([dense(3, 6), relu(), dense(6, 2)], (3,), seed=s)
                    for s in (95, 96, 97)]
            plane = build_plane(*[params_to_vector(n) for n in nets])
            data = synthetic_blobs(2, 6, 3, 0.5, seed=95)
            for _ in range(20):
                evaluate_surface(plane, nets[0], data, resolution=4)
            print(*methods)
    """))
    env = {**_env_with_src(), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["fork"] * 20


def _surface_in_a_daemon(plane, template, data):
    # three cores on offer, but a daemonic process may start no workers
    with mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1, 2}, create=True):
        cores = losscape._usable_cores()
        grid = evaluate_surface(plane, template, data, resolution=4)
    return multiprocessing.current_process().daemon, cores, grid.loss, grid.accuracy


def test_surface_inside_a_daemonic_worker_runs_in_process():
    plane, template, data = _surface_inputs()
    expected = evaluate_surface(plane, template, data, resolution=4)
    with multiprocessing.Pool(1) as pool:
        daemon, cores, loss, acc = pool.apply(_surface_in_a_daemon, (plane, template, data))
    assert daemon and cores == 1
    assert np.array_equal(loss, expected.loss) and np.array_equal(acc, expected.accuracy)


def test_surface_error_matches_the_serial_path(monkeypatch):
    plane, _, data = _surface_inputs()
    # as many parameters as the plane, but two input features for three
    template = init_weights([dense(2, 6), relu(), dense(6, 2)], (2,), seed=95)
    errors = {}
    for cores in (1, 3):
        _force_cores(monkeypatch, cores)
        with pytest.raises(Exception) as info:
            evaluate_surface(plane, template, data, resolution=5)
        errors[cores] = (type(info.value), str(info.value))
    assert errors[3] == errors[1] == (ValueError, "network input: expected batch of shape "
                                                  "(N, 2), got (12, 3)")


class _UnreadableInWorkers:
    """A dataset whose images cannot be read outside the process that made
    it: reading them there raises, or with `die` ends the process."""

    def __init__(self, dataset, die=False):
        self.dataset, self.pid, self.die = dataset, os.getpid(), die

    @property
    def images(self):
        if os.getpid() != self.pid:
            if self.die:
                os._exit(1)
            raise ValueError("images read in a worker")
        return self.dataset.images

    @property
    def labels(self):
        return self.dataset.labels


def test_an_error_raised_in_a_worker_reaches_the_caller(monkeypatch):
    plane, template, data = _surface_inputs()
    _force_cores(monkeypatch, 3)
    with pytest.raises(ValueError, match="^images read in a worker$"):
        evaluate_surface(plane, template, _UnreadableInWorkers(data), resolution=5)


def test_a_worker_that_dies_makes_the_surface_raise(monkeypatch):
    plane, template, data = _surface_inputs()
    _force_cores(monkeypatch, 2)
    for method in ("fork", "spawn"):
        _force_start(monkeypatch, method)
        raised = []

        def run():
            try:
                evaluate_surface(plane, template, _UnreadableInWorkers(data, die=True),
                                 resolution=4)
            except Exception as exc:  # handed to the test thread below
                raised.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive(), "the surface waited for a dead worker"
        assert len(raised) == 1 and isinstance(raised[0], BrokenProcessPool)
        # only a spawned worker re-runs the main script
        assert ('if __name__ == "__main__":' in str(raised[0])) == (method == "spawn")


def test_a_small_surface_starts_no_pool(monkeypatch):
    plane, template, data = _surface_inputs()
    monkeypatch.setattr(losscape, "_usable_cores", lambda: 3)

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    grid = evaluate_surface(plane, template, data, resolution=3)
    assert grid.loss.shape == (3, 3) and np.isfinite(grid.loss).all()


@pytest.mark.parametrize("resolution, samples, blocks", [
    (41, 5_000, 2),     # the benchmark's surface still splits across 2 cores
    (41, 500, 1),       # a tenth of the samples does not repay a worker
])
def test_rows_go_to_workers_only_in_blocks_worth_a_worker(monkeypatch, resolution, samples,
                                                          blocks):
    plane, template, _ = _surface_inputs()
    monkeypatch.setattr(losscape, "_usable_cores", lambda: 2)
    split = []

    def rows(xs, ys, *args):
        return np.zeros((len(xs), len(ys))), np.zeros((len(xs), len(ys)))

    def in_workers(parts):
        split.append(len(parts))
        return [rows(*block) for block in parts]

    monkeypatch.setattr(losscape, "_surface_rows", rows)
    monkeypatch.setattr(losscape, "_surface_rows_in_workers", in_workers)
    labels_only = mock.Mock(labels=np.zeros(samples, dtype=np.int64))
    evaluate_surface(plane, template, labels_only, resolution=resolution)
    assert split == ([blocks] if blocks > 1 else [])


def _run_unguarded_script(tmp_path, one_thread):
    # a surface split in two, from a script with no main guard, its workers
    # forked or spawned as `one_thread` makes the thread probe read
    script = tmp_path / "unguarded.py"
    script.write_text(textwrap.dedent(f"""
        from sqwa import losscape
        from sqwa.data import synthetic_blobs
        from sqwa.losscape import build_plane, evaluate_surface, params_to_vector
        from sqwa.nn import dense, init_weights, relu

        losscape._usable_cores = lambda: 2
        losscape._MIN_BLOCK_SAMPLES = 1
        losscape._runs_one_thread = lambda: {one_thread}
        nets = [init_weights([dense(3, 6), relu(), dense(6, 2)], (3,), seed=s)
                for s in (95, 96, 97)]
        plane = build_plane(*[params_to_vector(n) for n in nets])
        grid = evaluate_surface(plane, nets[0], synthetic_blobs(2, 6, 3, 0.5, seed=95),
                                resolution=4)
        print(grid.loss.tolist(), grid.accuracy.tolist())
    """))
    return subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=_env_with_src(), timeout=120)


def test_a_script_without_a_main_guard_is_told_to_add_one(tmp_path):
    # The spawned worker re-runs the script, calls evaluate_surface while
    # it is still starting up, and dies.
    proc = _run_unguarded_script(tmp_path, one_thread=False)
    last = proc.stderr.strip().splitlines()[-1]
    assert proc.returncode != 0
    assert last.startswith("concurrent.futures.process.BrokenProcessPool: "
                           "a loss-surface worker process died")
    assert 'if __name__ == "__main__":' in last


def test_a_forked_surface_needs_no_main_guard(tmp_path):
    # a forked worker starts from the caller's memory and runs no script
    proc = _run_unguarded_script(tmp_path, one_thread=True)
    assert proc.returncode == 0, proc.stderr
    nets = [init_weights([dense(3, 6), relu(), dense(6, 2)], (3,), seed=s) for s in (95, 96, 97)]
    grid = evaluate_surface(build_plane(*[params_to_vector(n) for n in nets]), nets[0],
                            synthetic_blobs(2, 6, 3, 0.5, seed=95), resolution=4)
    assert proc.stdout.strip() == f"{grid.loss.tolist()} {grid.accuracy.tolist()}"
