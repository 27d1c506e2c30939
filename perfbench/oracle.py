"""Read back what the sink committed and compare it with a DuckDB oracle.

Two manifest layouts exist: ``write_web_kg`` commits one root
``_MANIFEST.json`` (per-partition row counts and shard names), and
``materialize_to_dir`` commits one ``part=<p>/_MANIFEST.json`` per mapping
partition.  Every listed shard is read, its line count checked against the
manifest, and its lines compared with the oracle's triples.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field


@dataclass
class Output:
    lines: list = field(default_factory=list)      # one entry per committed line
    rows: int = 0                                  # sum of manifest rows
    shards: int = 0
    bytes: int = 0
    partitions: int = 0
    problems: list = field(default_factory=list)


def _shard_lines(path: str) -> list[str]:
    with open(path, encoding='utf-8') as fh:
        text = fh.read()
    lines = text.split('\n')
    if lines and lines[-1] == '':
        lines.pop()
    return lines


def read_output(out_dir: str, keyed: bool) -> Output:
    """Committed lines of ``out_dir``; each line loses its `` .`` end and,
    when ``keyed``, gains a ``<partition>\\t`` prefix."""
    out = Output()
    root_manifest = os.path.join(out_dir, '_MANIFEST.json')
    if os.path.exists(root_manifest):
        with open(root_manifest, encoding='utf-8') as fh:
            m = json.load(fh)
        parts = [(p, names, m['partitions'].get(p)) for p, names in m['shards'].items()]
    else:
        parts = []
        if os.path.isdir(out_dir):
            for entry in sorted(os.listdir(out_dir)):
                if not entry.startswith('part='):
                    continue
                mpath = os.path.join(out_dir, entry, '_MANIFEST.json')
                if not os.path.exists(mpath):
                    out.problems.append(f'{entry}: no manifest')
                    continue
                with open(mpath, encoding='utf-8') as fh:
                    m = json.load(fh)
                parts.append((entry[len('part='):], m['shards'], m['rows']))
    if not parts:
        out.problems.append('no committed partition')
    from morph_kgc_ray.sinks.writers import _sanitize
    for partition, names, rows in parts:
        pdir = os.path.join(out_dir, f'part={_sanitize(partition)}')
        found = 0
        for name in names:
            path = os.path.join(pdir, name)
            if not os.path.exists(path):
                out.problems.append(f'{partition}: missing shard {name}')
                continue
            out.bytes += os.path.getsize(path)
            lines = _shard_lines(path)
            found += len(lines)
            prefix = f'{partition}\t' if keyed else ''
            for line in lines:
                out.lines.append(prefix + (line[:-2] if line.endswith(' .') else line))
        if rows != found:
            out.problems.append(f'{partition}: manifest rows {rows} != {found} shard lines')
        out.rows += rows or 0
        out.shards += len(names)
        out.partitions += 1
    return out


def precision_recall(lines: list, expected: set) -> tuple[float, float]:
    """Precision counts every committed line, so a duplicate lowers it."""
    hits = len(set(lines) & expected)
    precision = hits / len(lines) if lines else 0.0
    recall = hits / len(expected) if expected else 1.0
    return precision, recall


def oracle_lines(sql: str, views: dict, keyed: bool) -> set:
    """Run ``sql`` in DuckDB over parquet ``views`` (name -> glob).  The
    query returns (subject, predicate, object), preceded by a partition
    column when ``keyed``."""
    import duckdb
    con = duckdb.connect()
    try:
        for name, glob in views.items():
            con.execute(f"CREATE VIEW {name} AS SELECT * FROM read_parquet('{glob}')")
        rows = con.execute(sql).fetchall()
    finally:
        con.close()
    if keyed:
        return {f'{p}\t{s} {pr} {o}' for p, s, pr, o in rows}
    return {f'{s} {p} {o}' for s, p, o in rows}
