"""KG-construction benchmark: one workload per run, closed loop, one
materialization at a time.

    python3 perfbench/run.py --workload web_pages --seed 1 --seconds 6 --trace 0

Run from the root of a checkout that holds the ``morph_kgc_ray`` package.
A run builds (or reuses) the seeded inputs under ``.perfbench/inputs``, then
sets up Ray several times (``ray.init`` and a warm-up on a tiny input, after
the package import); after each set-up it runs the workload into fresh
directories until that session's share of ``--seconds`` of materialization
time has passed, at least once.  Afterwards it reads back every committed
shard and checks manifests against shard line counts and the triples
against the workload's DuckDB oracle.

Throughput is reported per CPU-second of the driver and its Ray processes
(``triples_per_cpu_s``): on a shared host whose speed drifts by a quarter
for minutes at a time, CPU time spreads about half as much as wall time.
The wall-clock ``triples_per_s`` goes to the run record line.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one further, traced materialization (see ``tracing.py``).  The
last stdout line is one JSON object: correct, attempted, failed, metrics.

On every way out, SIGTERM included, the driver kills each process still
descending from it and waits until it has ended; it is their child
subreaper, so Ray workers that outlive their raylet are among them.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

NUM_CPUS = 1            # one Ray CPU slot, whatever the host offers
SESSIONS = 3            # Ray set-ups per run, each followed by timed runs
OBJECT_STORE_BYTES = 512 << 20
_INPUT_BUILD_TIMEOUT_S = 300
_REAP_TIMEOUT_S = 30
_PR_SET_CHILD_SUBREAPER = 36
# Ray's unix sockets live under its temp dir; their paths must stay short
_MAX_RAY_TEMP_LEN = 40


def _ray_temp_dir(work: str) -> str:
    path = os.path.join(work, 'ray')
    if len(path) <= _MAX_RAY_TEMP_LEN:
        return path
    import tempfile
    return tempfile.mkdtemp(prefix='pbray')


def _start_ray(temp_dir: str, runtime_env: 'dict | None' = None) -> None:
    import ray
    import ray.data
    ray.init(num_cpus=NUM_CPUS, include_dashboard=False, logging_level='ERROR',
             log_to_driver=False, object_store_memory=OBJECT_STORE_BYTES,
             _temp_dir=temp_dir, runtime_env=runtime_env)
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger('ray.data').setLevel(logging.WARNING)


def _stop_ray() -> None:
    import ray
    from morph_kgc_ray.engine import dedup
    ray.shutdown()
    # the dedup reducer pool is keyed by job id, and a fresh session reuses
    # the first job id: drop the dead handles so the next session spawns
    # its own reducers
    dedup._REDUCER_POOL.clear()


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f'/proc/{pid}/status') as fh:
            for line in fh:
                if line.startswith('VmHWM:'):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _proc_stats() -> dict[int, tuple[int, int]]:
    """pid -> (parent pid, user plus system clock ticks) of every process."""
    out = {}
    for entry in os.listdir('/proc'):
        if not entry.isdigit():
            continue
        try:
            with open(f'/proc/{entry}/stat') as fh:
                fields = fh.read().rsplit(')', 1)[1].split()
        except OSError:
            continue
        out[int(entry)] = (int(fields[1]), int(fields[11]) + int(fields[12]))
    return out


def _children(pid: int, stats: dict) -> list[int]:
    return [child for child, (parent, _) in stats.items() if parent == pid]


def _cmdline(pid: int) -> str:
    try:
        with open(f'/proc/{pid}/cmdline', 'rb') as fh:
            return fh.read().replace(b'\0', b' ').decode('utf-8', 'replace')
    except OSError:
        return ''


def peak_rss_mb() -> tuple[float, dict]:
    """VmHWM of this driver plus the Ray worker processes of its session
    (the ``ray::`` children of the raylet this driver started), in MB, and
    the per-process figures."""
    stats = _proc_stats()
    parts = {'driver': _vm_hwm_kb(os.getpid())}
    for child in _children(os.getpid(), stats):
        if '/raylet/raylet' not in _cmdline(child):
            continue
        for worker in _children(child, stats):
            title = _cmdline(worker)
            if title.startswith('ray::'):
                parts[f'{title.split()[0]}:{worker}'] = _vm_hwm_kb(worker)
    return sum(parts.values()) / 1024.0, {k: v // 1024 for k, v in parts.items()}


def tree_cpu_ticks() -> dict[int, int]:
    """pid -> user plus system clock ticks of this process and each of its
    descendants (the Ray processes this driver started)."""
    stats, me, out = _proc_stats(), os.getpid(), {}
    for pid, (_, ticks) in stats.items():
        p = pid
        while p > 1 and p != me:
            p = stats.get(p, (0, 0))[0]
        if p == me:
            out[pid] = ticks
    return out


def cpu_s_since(start: dict[int, int]) -> float:
    """CPU seconds the process tree used since ``start`` (a process that
    exited in between loses its share rather than making the sum drop)."""
    ticks = sum(t - start.get(pid, 0) for pid, t in tree_cpu_ticks().items())
    return ticks / os.sysconf('SC_CLK_TCK')


def _locate_inputs(workload, cache, seed: int) -> None:
    """Find the workload's seeded inputs in the cache, building them first
    if they are missing (in a child process, so the driver's peak memory
    never includes input generation)."""
    try:
        workload.prepare(cache, seed, build=False)
        return
    except FileNotFoundError:
        pass
    import subprocess
    build = ('import sys; sys.path.insert(0, sys.argv[1]); '
             'from perfbench.inputs import InputCache; '
             'from perfbench.workloads import WORKLOADS; '
             'WORKLOADS[sys.argv[2]]().prepare(InputCache(sys.argv[3]), int(sys.argv[4]), build=True)')
    # on timeout subprocess.run kills the child and waits for it
    proc = subprocess.run([sys.executable, '-c', build, ROOT, workload.name, cache.root,
                           str(seed)], timeout=_INPUT_BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f'input build failed with exit code {proc.returncode}')
    workload.prepare(cache, seed, build=False)


def _traced_iteration(workload, work: str, temp_dir: str, out_dir: str):
    """One materialization with span tracing in a Ray session of its own;
    returns (wall s, spans, counts)."""
    import uuid

    from perfbench import tracing
    run_id = uuid.uuid4().hex[:12]
    trace_dir = os.path.join(work, 'trace', run_id)
    os.makedirs(trace_dir)
    _start_ray(temp_dir, tracing.worker_runtime_env(ROOT, trace_dir, run_id))
    try:
        workload.warm_up(out_dir + '-warmup')
        tracer = tracing.Tracer(run_id)
        patches = tracing.install_driver(tracer)
        try:
            with tracer.span('iteration'):
                workload.run(out_dir, tracer)
        finally:
            patches.undo()
    finally:
        _stop_ray()
    spans, counts = tracing.collect(tracer, trace_dir)
    with open(os.path.join(trace_dir, 'spans.jsonl'), 'w', encoding='utf-8') as fh:
        fh.writelines(json.dumps(s) + '\n' for s in spans)
    root = next(s for s in spans if s['name'] == 'iteration')
    return root['end'] - root['start'], spans, counts


def _metric(value: float, unit: str) -> dict:
    return {'value': value, 'unit': unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    ap.add_argument('--workload', required=True)
    ap.add_argument('--seed', type=int, required=True)
    ap.add_argument('--seconds', type=float, required=True)
    ap.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, 'morph_kgc_ray')):
        print(f'error: no morph_kgc_ray package under {ROOT}', file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)

    t0 = time.monotonic()
    import pyarrow
    import ray
    import morph_kgc_ray  # noqa: F401
    import_s = time.monotonic() - t0

    from perfbench.inputs import InputCache
    from perfbench.oracle import precision_recall, read_output
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f'error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}',
              file=sys.stderr)
        return 2
    work = os.path.join(ROOT, '.perfbench')
    runs_dir = os.path.join(work, 'out')
    shutil.rmtree(runs_dir, ignore_errors=True)
    shutil.rmtree(os.path.join(work, 'trace'), ignore_errors=True)
    os.makedirs(runs_dir)
    workload = WORKLOADS[args.workload]()
    _locate_inputs(workload, InputCache(os.path.join(work, 'inputs')), args.seed)

    temp_dir = _ray_temp_dir(work)
    shutil.rmtree(temp_dir, ignore_errors=True)
    setups, rss = [], []
    iterations = []                     # (out_dir, wall s, CPU s, error)
    try:
        # the timed materializations are spread over the set-up sessions, so
        # one run samples the host over its whole length, not one stretch
        for rep in range(SESSIONS):
            t0 = time.monotonic()
            _start_ray(temp_dir)
            workload.warm_up(os.path.join(runs_dir, f'warmup-{rep}'))
            setups.append(time.monotonic() - t0)
            session_timed = 0.0
            while session_timed < args.seconds / SESSIONS:
                out_dir = os.path.join(runs_dir, f'iter-{len(iterations)}')
                t0, c0 = time.monotonic(), tree_cpu_ticks()
                error = None
                try:
                    workload.run(out_dir)
                except Exception as e:  # a failed materialization is one failed operation
                    error = f'{type(e).__name__}: {e}'
                wall, cpu = time.monotonic() - t0, cpu_s_since(c0)
                session_timed += wall
                iterations.append((out_dir, wall, cpu, error))
            rss.append(peak_rss_mb())
            _stop_ray()

        traced = None
        if args.trace:
            out_dir = os.path.join(runs_dir, 'traced')
            try:
                traced = _traced_iteration(workload, work, temp_dir, out_dir)
                iterations.append((out_dir, traced[0], 0.0, None))
            except Exception as e:
                iterations.append((out_dir, 0.0, 0.0, f'{type(e).__name__}: {e}'))
    finally:
        if ray.is_initialized():
            _stop_ray()
        shutil.rmtree(temp_dir, ignore_errors=True)

    expected = workload.oracle()
    failed = 0
    rates, cpu_rates, walls, cpus = [], [], [], []
    precisions, recalls, problems = [], [], []
    output = None
    for out_dir, wall, cpu, error in iterations:
        output = read_output(out_dir, workload.keyed)
        precision, recall = precision_recall(output.lines, expected)
        bad = [error] if error else output.problems
        if not bad and (precision < 1.0 or recall < 1.0):
            bad = [f'precision {precision:.6f} recall {recall:.6f}']
        if bad:
            failed += 1
            problems.append(f'{os.path.basename(out_dir)}: ' + '; '.join(bad[:3]))
        precisions.append(precision)
        recalls.append(recall)
        if out_dir.endswith('traced'):
            continue
        walls.append(wall)
        cpus.append(cpu)
        rates.append(output.rows / wall if wall > 0 else 0.0)
        cpu_rates.append(output.rows / cpu if cpu > 0 else 0.0)

    info = {'workload': args.workload, 'seed': args.seed, 'trace': args.trace,
            'nproc': len(os.sched_getaffinity(0)), 'ray_num_cpus': NUM_CPUS,
            'ray': ray.__version__, 'pyarrow': pyarrow.__version__,
            'python': sys.version.split()[0], 'import_s': import_s, 'setups_s': setups,
            'iteration_walls_s': walls, 'iteration_cpu_s': cpus,
            'triples_per_s': _metric(statistics.median(rates), 'triples/s'),
            'peak_rss_parts_mb': [parts for _, parts in rss],
            'expected_triples': len(expected),
            'failure_share': failed / len(iterations), 'problems': problems}
    print(json.dumps(info))

    if args.trace:
        from perfbench.tracing import layer_metrics
        if traced is not None:
            metrics = layer_metrics(traced[1], traced[2], output, statistics.median(walls),
                                    traced[0])
        else:
            metrics = {}
    else:
        metrics = {
            'setup_s': _metric(import_s + statistics.median(setups), 's'),
            'triples_per_cpu_s': _metric(statistics.median(cpu_rates), 'triples/cpu-s'),
            'peak_rss_mb': _metric(statistics.median(mb for mb, _ in rss), 'MB'),
            'triple_precision': _metric(min(precisions), 'ratio'),
            'triple_recall': _metric(min(recalls), 'ratio'),
        }
    for name, m in metrics.items():
        print(f'{name} = {m["value"]} {m["unit"]}')
    shutil.rmtree(runs_dir, ignore_errors=True)
    print(json.dumps({'correct': failed == 0, 'attempted': len(iterations),
                      'failed': failed, 'metrics': metrics}), flush=True)
    return 0


def _become_subreaper() -> None:
    """Adopt every orphaned descendant (Ray workers outlive their raylet for
    a moment), so ``_reap_descendants`` can wait for them."""
    import ctypes
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _reap_descendants() -> None:
    """Kill every process still descending from this one and wait until
    each has ended."""
    import signal
    deadline = time.monotonic() + _REAP_TIMEOUT_S
    while time.monotonic() < deadline:
        left = [pid for pid in tree_cpu_ticks() if pid != os.getpid()]
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        while True:                     # collect the children that ended
            try:
                if os.waitpid(-1, os.WNOHANG)[0] == 0:
                    break
            except ChildProcessError:
                break
        if not left:
            return
        time.sleep(0.05)


def _entry() -> int:
    import signal

    def _terminate(signum, frame):
        raise SystemExit(128 + signum)
    signal.signal(signal.SIGTERM, _terminate)
    _become_subreaper()
    try:
        return main()
    finally:
        _reap_descendants()


if __name__ == '__main__':
    sys.exit(_entry())
