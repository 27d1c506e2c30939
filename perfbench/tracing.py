"""Span tracer for the traced benchmark run.

Spans are recorded from this package only, around calls into the library's
layers; the library itself is not edited.  Two kinds of process record:

- the driver keeps its spans and counts in memory and merges them with the
  workers' records (``collect``) once the traced iteration ends;
- Ray worker processes get their wrappers from ``install_worker`` (a
  ``worker_process_setup_hook``) and append their spans and counts to
  ``<trace dir>/worker-<pid>.jsonl`` each time their outermost span ends,
  since a worker has no end-of-run moment of its own.

Each span has a name, start, end (``time.monotonic``, one clock for every
process on the host), parent and run id.  A worker's outermost span gets as
parent the innermost driver span that was open when it started, so a layer's
self time is its spans' time minus the time of their child spans, across
processes.

In the traced run the driver wrappers also materialize each layer's output
inside its span (reads, dedup input and output), so the time of a layer
that Ray Data would otherwise fuse with its neighbours lands in its own
span.  That changes the schedule; the difference in wall time is reported as
``trace.overhead_s``.
"""

from __future__ import annotations

import contextlib
import functools
import json
import logging
import os
import threading
import time

# a span belongs to the layer its name starts with
LAYERS = ('sources', 'mapping', 'pipelines.web', 'engine.kernels',
          'engine.materializer', 'engine.dedup', 'sinks')

_TRACE_DIR_ENV = 'PERFBENCH_TRACE_DIR'
_TRACE_RUN_ENV = 'PERFBENCH_TRACE_RUN'


def layer_of(name: str) -> str:
    for layer in LAYERS:
        if name == layer or name.startswith(layer + '.'):
            return layer
    return name


class Tracer:
    """In-memory spans and counts of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = 0

    def _stack(self) -> list:
        stack = getattr(self._local, 'stack', None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> 'str | None':
        stack = self._stack()
        return stack[-1]['name'] if stack else None

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        with self._lock:
            self._ids += 1
            sid = f'{self.pid}-{self._ids}'
        frame = {'id': sid, 'name': name, 'acc': {}}
        parent = stack[-1]['id'] if stack else None
        stack.append(frame)
        start = time.monotonic()
        try:
            yield
        finally:
            end = time.monotonic()
            stack.pop()
            record = [{'id': sid, 'name': name, 'start': start, 'end': end,
                       'parent': parent, 'run': self.run_id, 'pid': self.pid}]
            # calls too frequent for a span each are summed into one child
            # span per kind, laid from the parent's start
            for i, (child, (total, calls)) in enumerate(sorted(frame['acc'].items())):
                record.append({'id': f'{sid}.{i}', 'name': child, 'start': start,
                               'end': start + total, 'parent': sid,
                               'run': self.run_id, 'pid': self.pid, 'calls': calls})
            with self._lock:
                self.spans.extend(record)
            if not stack:
                self.on_root_end()

    def accumulate(self, name: str, seconds: float) -> None:
        """Add one call's time to the open span's summed child ``name``."""
        stack = self._stack()
        if stack:
            total, calls = stack[-1]['acc'].get(name, (0.0, 0))
            stack[-1]['acc'][name] = (total + seconds, calls + 1)

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def on_root_end(self) -> None:
        pass


class _WorkerTracer(Tracer):
    def __init__(self, run_id: str, path: str):
        super().__init__(run_id)
        self.path = path

    def on_root_end(self) -> None:
        with self._lock:
            spans, counts = self.spans, self.counts
            self.spans, self.counts = [], {}
        lines = [json.dumps(s) for s in spans]
        lines += [json.dumps({'count': k, 'value': v, 'run': self.run_id,
                              'at': time.monotonic()}) for k, v in counts.items()]
        with open(self.path, 'a', encoding='utf-8') as fh:
            fh.write('\n'.join(lines) + '\n')


# --------------------------------------------------------------------------
# wrappers
# --------------------------------------------------------------------------

class Patches:
    """Attribute replacements (and other changes) that can be undone."""

    def __init__(self):
        self._undo: list = []

    def wrap(self, owner, attr: str, make):
        orig = getattr(owner, attr)
        self._undo.append(lambda: setattr(owner, attr, orig))
        setattr(owner, attr, functools.wraps(orig)(make(orig)))

    def defer(self, fn) -> None:
        self._undo.append(fn)

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


def _spanned(tracer: Tracer, name: str, on_result=None):
    def make(orig):
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                out = orig(*args, **kwargs)
                if on_result is not None:
                    on_result(args, kwargs, out)
            return out
        return wrapper
    return make


def _accumulated(tracer: Tracer, name: str):
    def make(orig):
        def wrapper(*args, **kwargs):
            t0 = time.monotonic()
            try:
                return orig(*args, **kwargs)
            finally:
                tracer.accumulate(name, time.monotonic() - t0)
        return wrapper
    return make


def install_worker() -> None:
    """``worker_process_setup_hook``: wrap the batch-level layer calls that
    run inside Ray tasks.  Does nothing without the trace environment."""
    trace_dir = os.environ.get(_TRACE_DIR_ENV)
    if not trace_dir:
        return
    from morph_kgc_ray.engine import kernels, materializer
    from morph_kgc_ray.pipelines import web
    from morph_kgc_ray.sinks import writers

    tracer = _WorkerTracer(os.environ.get(_TRACE_RUN_ENV, ''),
                           os.path.join(trace_dir, f'worker-{os.getpid()}.jsonl'))
    patches = Patches()

    def emitted(args, kwargs, out):
        tracer.count('pipelines.web.pages', args[1].num_rows)
        tracer.count('pipelines.web.triples_out', out.num_rows)

    def term(args, kwargs, out):
        tracer.count('engine.kernels.terms', len(out))

    def joined(args, kwargs, out):
        tracer.count('engine.materializer.join_rows_out', out.num_rows)

    patches.wrap(web.TripleEmitKernel, '__call__', _spanned(tracer, 'pipelines.web.emit', emitted))
    patches.wrap(web, 'extract_text', _accumulated(tracer, 'pipelines.web.extract'))
    # the web kernel calls its own binding; rule stages unpickle theirs
    # from the kernels module
    patches.wrap(web, 'materialize_term', _spanned(tracer, 'engine.kernels.term', term))
    patches.wrap(kernels, 'materialize_term', _spanned(tracer, 'engine.kernels.term', term))
    patches.wrap(kernels, 'source_prologue', _spanned(tracer, 'sources.prologue'))
    patches.wrap(materializer._BroadcastJoin, '__call__',
                 _spanned(tracer, 'engine.materializer.join', joined))
    patches.wrap(writers._TripleShardWriter, '__call__', _spanned(tracer, 'sinks.write'))
    patches.wrap(writers._PartitionedShardWriter, '__call__', _spanned(tracer, 'sinks.write'))


def worker_runtime_env(root: str, trace_dir: str, run_id: str) -> dict:
    return {'worker_process_setup_hook': 'perfbench.tracing.install_worker',
            'env_vars': {'PYTHONPATH': root, _TRACE_DIR_ENV: trace_dir,
                         _TRACE_RUN_ENV: run_id}}


def _distinct_count(cols):
    def fn(t):
        import pyarrow as pa
        from morph_kgc_ray.engine.kernels import table_distinct
        n = table_distinct(t.select(cols)).num_rows if t.num_rows else 0
        return pa.table({'n': pa.array([n], pa.int64())})
    return fn


class _RerouteCounter(logging.Handler):
    def __init__(self, tracer: Tracer):
        super().__init__(logging.INFO)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        msg = record.getMessage()
        if 'rerouting' in msg or 'falling back' in msg:
            self.tracer.count('engine.dedup.reroutes')


def install_driver(tracer: Tracer) -> Patches:
    """Wrap the driver-side layer calls.  Returns the patches to undo."""
    from morph_kgc_ray.constants import RML_TRIPLES_MAP_CLASS
    from morph_kgc_ray.engine import dedup, materializer
    from morph_kgc_ray.pipelines import web
    from morph_kgc_ray.sinks import writers

    patches = Patches()

    def mapped(args, kwargs, out):
        rml_df = out[0]
        asserted = rml_df[rml_df['triples_map_type'] == RML_TRIPLES_MAP_CLASS]
        tracer.counts['mapping.rules'] = len(asserted)
        tracer.counts['mapping.partitions'] = asserted['mapping_partition'].nunique()

    patches.wrap(materializer, 'retrieve_mappings', _spanned(tracer, 'mapping', mapped))
    patches.wrap(materializer, 'materialize_rule', _spanned(tracer, 'engine.materializer'))
    patches.wrap(web, 'web_kg_triples', _spanned(tracer, 'pipelines.web'))
    patches.wrap(writers, 'write_partitioned_ntriples', _spanned(tracer, 'sinks'))
    patches.wrap(writers, 'write_partition_column_ntriples', _spanned(tracer, 'sinks'))

    def make_read(orig):
        def read_source(*args, **kwargs):
            with tracer.span('sources'):
                return read_materialized(tracer, orig(*args, **kwargs))
        return read_source
    patches.wrap(materializer, 'read_source', make_read)

    def make_merge(orig):
        def merge_datasets(child_ds, parent_ds, join_conditions, config):
            with tracer.span('engine.materializer.join'):
                if parent_ds.count() <= config.get_broadcast_join_max_rows():
                    tracer.count('engine.materializer.broadcast_joins')
                return orig(child_ds, parent_ds, join_conditions, config)
        return merge_datasets
    patches.wrap(materializer, 'merge_datasets', make_merge)

    def make_dedup(orig):
        def dedup_call(ds, cols, *args, **kwargs):
            # the input pipeline runs first, in the caller's layer: the web
            # emit pass, else the rule pipelines of a mapping partition
            if tracer.current() == 'pipelines.web':
                ds = ds.materialize()
            else:
                with tracer.span('engine.materializer.execute'):
                    ds = ds.materialize()
            rows_in = ds.count()
            with tracer.span('trace.count'):
                counted = ds.map_batches(_distinct_count(list(cols)), batch_format='pyarrow',
                                         batch_size=None)
                local = sum(row['n'] for row in counted.take_all())
            with tracer.span('engine.dedup'):
                out = orig(ds, cols, *args, **kwargs).materialize()
            rows_out = out.count()
            tracer.count('engine.dedup.rows_in', rows_in)
            tracer.count('engine.dedup.rows_out', rows_out)
            tracer.count('engine.dedup.cross_block_dups', local - rows_out)
            return out
        return dedup_call
    patches.wrap(dedup, 'distinct_in_place', make_dedup)
    patches.wrap(materializer, 'distinct', make_dedup)

    handler = _RerouteCounter(tracer)
    logger = logging.getLogger(dedup.__name__)
    saved_level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    patches.defer(lambda: (logger.removeHandler(handler), logger.setLevel(saved_level)))
    return patches


def read_materialized(tracer: Tracer, ds):
    """Materialize a source read inside the open ``sources`` span."""
    ds = ds.materialize()
    tracer.count('sources.rows', ds.count())
    tracer.count('sources.mb', ds.size_bytes() / 1e6)
    return ds


# --------------------------------------------------------------------------
# merge and report
# --------------------------------------------------------------------------

def collect(tracer: Tracer, trace_dir: str) -> tuple[list, dict]:
    """Driver spans plus the worker spans of the traced iteration, each
    outermost worker span re-parented under the innermost driver span open
    at its start."""
    spans = list(tracer.spans)
    counts = dict(tracer.counts)
    root = next(s for s in spans if s['parent'] is None and s['name'] == 'iteration')
    driver = sorted(spans, key=lambda s: s['start'])
    for name in sorted(os.listdir(trace_dir)):
        if not name.startswith('worker-'):
            continue
        with open(os.path.join(trace_dir, name), encoding='utf-8') as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        for r in records:
            if r.get('run') != tracer.run_id:
                continue
            if 'count' in r:
                if r['at'] >= root['start']:
                    counts[r['count']] = counts.get(r['count'], 0) + r['value']
                continue
            if r['start'] < root['start']:
                continue                  # the warm-up before the iteration
            if r['parent'] is None:
                holders = [d for d in driver if d['start'] <= r['start'] <= d['end']]
                r['parent'] = holders[-1]['id'] if holders else root['id']
            spans.append(r)
    return spans, counts


def self_times(spans: list) -> dict:
    """span id -> duration minus the duration of its direct children."""
    child = {}
    for s in spans:
        if s['parent'] is not None:
            child[s['parent']] = child.get(s['parent'], 0.0) + s['end'] - s['start']
    return {s['id']: max(0.0, s['end'] - s['start'] - child.get(s['id'], 0.0)) for s in spans}


PER_LAYER_UNITS = {
    'sources.read_s': 's', 'sources.rows': 'count', 'sources.mb': 'MB',
    'mapping.plan_s': 's', 'mapping.rules': 'count', 'mapping.partitions': 'count',
    'pipelines.web.emit_s': 's', 'pipelines.web.extract_s': 's',
    'pipelines.web.pages': 'count', 'pipelines.web.triples_out': 'count',
    'engine.kernels.term_s': 's', 'engine.kernels.terms': 'count',
    'engine.materializer.join_s': 's', 'engine.materializer.join_rows_out': 'count',
    'engine.materializer.broadcast_joins': 'count', 'engine.materializer.partition_s': 's',
    'engine.dedup.s': 's', 'engine.dedup.rows_in': 'count', 'engine.dedup.rows_out': 'count',
    'engine.dedup.useful_ratio': 'ratio', 'engine.dedup.cross_block_dups': 'count',
    'engine.dedup.reroutes': 'count',
    'sinks.write_s': 's', 'sinks.shards': 'count', 'sinks.mb': 'MB', 'sinks.partitions': 'count',
    'trace.overhead_s': 's',
}


def layer_metrics(spans: list, counts: dict, output, untraced_wall: float,
                  traced_wall: float) -> dict:
    """Per-layer metrics of one traced iteration.  ``output`` is what the
    sink committed (shard count, bytes, partitions); ``untraced_wall`` is
    the median wall time of the untraced iterations."""
    own = self_times(spans)
    by_layer: dict[str, float] = {}
    by_name: dict[str, float] = {}
    for s in spans:
        by_layer[layer_of(s['name'])] = by_layer.get(layer_of(s['name']), 0.0) + own[s['id']]
        by_name[s['name']] = by_name.get(s['name'], 0.0) + own[s['id']]
    values = dict.fromkeys(PER_LAYER_UNITS, 0)
    values.update({k: v for k, v in counts.items() if k in values})
    extract = by_name.get('pipelines.web.extract', 0.0)
    values.update({
        'sources.read_s': by_layer.get('sources', 0.0),
        'mapping.plan_s': by_layer.get('mapping', 0.0),
        'pipelines.web.emit_s': by_layer.get('pipelines.web', 0.0) - extract,
        'pipelines.web.extract_s': extract,
        'engine.kernels.term_s': by_layer.get('engine.kernels', 0.0),
        'engine.materializer.join_s': by_name.get('engine.materializer.join', 0.0),
        'engine.dedup.s': by_layer.get('engine.dedup', 0.0),
        'sinks.write_s': by_layer.get('sinks', 0.0),
        'sinks.shards': output.shards,
        'sinks.mb': output.bytes / 1e6,
        'sinks.partitions': output.partitions,
        'trace.overhead_s': traced_wall - untraced_wall,
    })
    if values['mapping.partitions']:
        values['engine.materializer.partition_s'] = untraced_wall / values['mapping.partitions']
    if values['engine.dedup.rows_in']:
        values['engine.dedup.useful_ratio'] = (values['engine.dedup.rows_out']
                                               / values['engine.dedup.rows_in'])
    return {k: {'value': values[k], 'unit': u} for k, u in PER_LAYER_UNITS.items()}
