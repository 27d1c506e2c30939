"""Tests of the benchmark itself (not of the library):

    python3 -m pytest perfbench -q

The end-to-end tests shrink every workload to a tiny input and run the real
benchmark in-process, untraced and traced, so they start Ray several times
and take a few minutes on one CPU.
"""

from __future__ import annotations

import json
import os

import pytest

from perfbench import oracle, run, workloads

BENCH = os.path.join(run.ROOT, 'BENCHMARK.json')


def _spec():
    with open(BENCH, encoding='utf-8') as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# oracle check on hand-made sink output
# --------------------------------------------------------------------------

TRIPLES = ['<http://e/s1> <http://e/p> "a"', '<http://e/s2> <http://e/p> "b"',
           '<http://e/s3> <http://e/q> <http://e/o>']


def _write_partition(root, name, lines, rows=None):
    pdir = root / f'part={name}'
    pdir.mkdir(parents=True)
    (pdir / 'shard_a.nt').write_text(''.join(f'{line} .\n' for line in lines))
    manifest = {'partition': name, 'rows': len(lines) if rows is None else rows,
                'shards': ['shard_a.nt']}
    (pdir / '_MANIFEST.json').write_text(json.dumps(manifest))
    return pdir


def test_oracle_accepts_exact_output(tmp_path):
    _write_partition(tmp_path, 'p0', TRIPLES[:2])
    _write_partition(tmp_path, 'p1', TRIPLES[2:])
    out = oracle.read_output(str(tmp_path), keyed=False)
    assert out.problems == []
    assert (out.rows, out.shards, out.partitions) == (3, 2, 2)
    assert oracle.precision_recall(out.lines, set(TRIPLES)) == (1.0, 1.0)


def test_planted_wrong_triple_lowers_precision(tmp_path):
    _write_partition(tmp_path, 'p0', TRIPLES + ['<http://e/s9> <http://e/p> "planted"'])
    out = oracle.read_output(str(tmp_path), keyed=False)
    precision, recall = oracle.precision_recall(out.lines, set(TRIPLES))
    assert precision < 1.0 and recall == 1.0


def test_duplicate_and_missing_triples_are_caught(tmp_path):
    _write_partition(tmp_path, 'p0', [TRIPLES[0], TRIPLES[0]])
    out = oracle.read_output(str(tmp_path), keyed=False)
    precision, recall = oracle.precision_recall(out.lines, set(TRIPLES))
    assert precision == 0.5 and recall == pytest.approx(1 / 3)


def test_manifest_mismatch_and_missing_manifest_are_problems(tmp_path):
    _write_partition(tmp_path, 'p0', TRIPLES, rows=5)
    (tmp_path / 'part=p1').mkdir()
    problems = oracle.read_output(str(tmp_path), keyed=False).problems
    assert any('manifest rows 5 != 3' in p for p in problems)
    assert any('part=p1: no manifest' in p for p in problems)


def test_keyed_output_reads_the_root_manifest(tmp_path):
    _write_partition(tmp_path, 'p_url', TRIPLES[:1])
    (tmp_path / 'part=p_url' / '_MANIFEST.json').unlink()
    (tmp_path / '_MANIFEST.json').write_text(json.dumps(
        {'partitions': {'p_url': 1}, 'total': 1, 'shards': {'p_url': ['shard_a.nt']}}))
    out = oracle.read_output(str(tmp_path), keyed=True)
    assert out.problems == [] and out.lines == [f'p_url\t{TRIPLES[0]}']


# --------------------------------------------------------------------------
# the benchmark contract
# --------------------------------------------------------------------------

def test_benchmark_json_names_the_workloads():
    spec = _spec()
    assert [w['name'] for w in spec['workloads']] == list(workloads.WORKLOADS)
    e2e = {m['name'] for m in spec['end_to_end']}
    assert {'setup_s', 'triples_per_cpu_s', 'peak_rss_mb', 'triple_precision',
            'triple_recall'} == e2e
    from perfbench.tracing import PER_LAYER_UNITS
    assert {m['name']: m['unit'] for m in spec['per_layer']} == PER_LAYER_UNITS


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, 'SESSIONS', 1)
    monkeypatch.setattr(workloads.WebPages, 'PAGES', 400)
    monkeypatch.setattr(workloads.WebPages, 'TINY_PAGES', 40)
    # enough lineitem rows for the read to split into two blocks
    monkeypatch.setattr(workloads.TpchJoins, 'SF', 0.008)


def _run(capsys, name, trace):
    # built here: the child process that otherwise builds inputs would not
    # see the sizes patched above
    from perfbench.inputs import InputCache
    workloads.WORKLOADS[name]().prepare(
        InputCache(os.path.join(run.ROOT, '.perfbench', 'inputs')), 5, build=True)
    assert run.main(['--workload', name, '--seed', '5', '--seconds', '0.1',
                     '--trace', str(trace)]) == 0
    lines = capsys.readouterr().out.strip().split('\n')
    result = json.loads(lines[-1])
    assert set(result) == {'correct', 'attempted', 'failed', 'metrics'}
    for line in lines[:-1]:  # every metric also prints by name with its unit
        if ' = ' in line:
            name_, rest = line.split(' = ')
            assert rest.split()[-1] == result['metrics'][name_]['unit']
    return result


@pytest.mark.parametrize('name', list(workloads.WORKLOADS))
def test_every_metric_prints(tiny, capsys, name):
    spec = _spec()
    plain = _run(capsys, name, 0)
    assert plain['correct'] and plain['failed'] == 0 and plain['attempted'] >= 1
    assert {k: v['unit'] for k, v in plain['metrics'].items()} == \
        {m['name']: m['unit'] for m in spec['end_to_end']}
    assert plain['metrics']['triple_precision']['value'] == 1.0
    assert plain['metrics']['triple_recall']['value'] == 1.0
    assert all(v['value'] > 0 for v in plain['metrics'].values())

    traced = _run(capsys, name, 1)
    assert traced['correct'] and traced['failed'] == 0
    metrics = {k: v['value'] for k, v in traced['metrics'].items()}
    assert set(metrics) == {m['name'] for m in spec['per_layer']}
    assert metrics['sinks.write_s'] > 0 and metrics['sinks.partitions'] > 0
    assert metrics['engine.dedup.rows_out'] > 0
    if name == 'web_pages':
        assert metrics['pipelines.web.emit_s'] > 0 and metrics['pipelines.web.extract_s'] > 0
        assert metrics['pipelines.web.pages'] == 400
        assert metrics['engine.dedup.rows_in'] == metrics['engine.dedup.rows_out']
        assert metrics['mapping.rules'] == 0
    else:
        assert metrics['pipelines.web.pages'] == 0
        assert metrics['mapping.rules'] == metrics['mapping.partitions'] > 0
        assert metrics['engine.kernels.terms'] > 0 and metrics['sources.rows'] > 0
    if name == 'tpch_joins':
        assert metrics['engine.dedup.cross_block_dups'] > 0
        assert metrics['engine.materializer.broadcast_joins'] == 3
        assert metrics['engine.materializer.join_rows_out'] > 0
