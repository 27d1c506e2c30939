"""Seeded benchmark inputs, built once per seed into an input cache.

Every input is a pure function of ``(seed, size)``: the same seed gives the
same bytes.  A finished input directory carries a ``_DONE`` marker, so a
later run with the same seed reuses it and an interrupted build is redone.

- pages: the synthetic crawl corpus from ``morph_kgc_ray.pipelines.pages``;
- tpch: TPC-H-shaped tables (customer, orders, lineitem, nation) drawn with
  numpy.  ``lineitem`` is a directory of several parquet files, so a read
  yields several blocks and duplicate triples cross block boundaries.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# TPC-H base cardinalities at scale factor 1
_CUSTOMERS, _ORDERS, _PARTS, _SUPPLIERS = 150_000, 1_500_000, 200_000, 10_000
_NATIONS = ['ALGERIA', 'ARGENTINA', 'BRAZIL', 'CANADA', 'EGYPT', 'ETHIOPIA',
            'FRANCE', 'GERMANY', 'INDIA', 'INDONESIA', 'IRAN', 'IRAQ', 'JAPAN',
            'JORDAN', 'KENYA', 'MOROCCO', 'MOZAMBIQUE', 'PERU', 'CHINA',
            'ROMANIA', 'SAUDI ARABIA', 'VIETNAM', 'RUSSIA', 'UNITED KINGDOM',
            'UNITED STATES']
_SEGMENTS = ['AUTOMOBILE', 'BUILDING', 'FURNITURE', 'HOUSEHOLD', 'MACHINERY']
_WORDS = ['carefully', 'final', 'deposits', 'boost', 'quickly', 'regular',
          'packages', 'sleep', 'furiously', 'ironic', 'accounts', 'haggle',
          'blithely', 'express', 'requests', 'among', 'even', 'pending',
          'slyly', 'bold', 'theodolites', 'dependencies', 'pinto', 'beans',
          'foxes', 'ideas', 'instructions', 'platelets', 'asymptotes', 'courts']
_INSTRUCTIONS = ['DELIVER IN PERSON', 'COLLECT COD', 'NONE', 'TAKE BACK RETURN']
_MODES = ['REG AIR', 'AIR', 'RAIL', 'SHIP', 'TRUCK', 'MAIL', 'FOB']
_EPOCH_1992 = np.datetime64('1992-01-01T00:00:00', 's')


class InputCache:
    """Directory of built inputs, one subdirectory per (kind, size, seed)."""

    def __init__(self, root: str):
        self.root = root

    def _build(self, name: str, make, build: bool) -> str:
        out = os.path.join(self.root, name)
        if os.path.exists(os.path.join(out, '_DONE')):
            return out
        if not build:
            raise FileNotFoundError(f'input {out} is not built')
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        make(out)
        with open(os.path.join(out, '_DONE'), 'w') as fh:
            fh.write('ok')
        return out

    def pages(self, rows: int, seed: int, num_files: int, build: bool) -> str:
        """Directory of page parquet files (``pages_parquet_dir`` layout)."""
        def make(out: str) -> None:
            from morph_kgc_ray.pipelines.pages import pages_parquet_dir
            pages_parquet_dir(rows, seed=seed, num_files=num_files, cache_root=out)
        out = self._build(f'pages_rows{rows}_seed{seed}_f{num_files}', make, build)
        (sub,) = [e for e in os.listdir(out) if os.path.isdir(os.path.join(out, e))]
        return os.path.join(out, sub)

    def tpch(self, sf: float, seed: int, lineitem_files: int = 4, build: bool = False) -> str:
        """Directory holding ``<table>.parquet`` files; ``lineitem.parquet``
        is itself a directory of ``lineitem_files`` parts."""
        def make(out: str) -> None:
            tables = tpch_tables(sf, seed)
            lineitem = tables.pop('lineitem')
            for name, table in tables.items():
                pq.write_table(table, os.path.join(out, f'{name}.parquet'))
            ldir = os.path.join(out, 'lineitem.parquet')
            os.makedirs(ldir)
            per = -(-lineitem.num_rows // lineitem_files)
            for i in range(lineitem_files):
                pq.write_table(lineitem.slice(i * per, per),
                               os.path.join(ldir, f'part-{i:03d}.parquet'))
        return self._build(f'tpch_sf{sf}_seed{seed}_f{lineitem_files}', make, build)


def _comments(rng: np.random.Generator, n: int, words: int) -> pa.Array:
    picks = np.array(_WORDS)[rng.integers(0, len(_WORDS), (n, words))]
    return pa.array([' '.join(row) for row in picks.tolist()], pa.string())


def _pick(rng: np.random.Generator, values: list, n: int) -> pa.Array:
    return pa.array(np.array(values)[rng.integers(0, len(values), n)], pa.string())


def _days(days) -> pa.Array:
    return pa.array((_EPOCH_1992 + days.astype('timedelta64[D]')).astype('datetime64[us]'))


def _cents(rng: np.random.Generator, lo: float, hi: float, n: int) -> pa.Array:
    return pa.array(np.round(rng.uniform(lo, hi, n), 2), pa.float64())


def tpch_tables(sf: float, seed: int) -> dict[str, pa.Table]:
    """TPC-H-shaped tables with the column names and types of the TPC-H
    test data (int64 keys, double prices, timestamp dates)."""
    rng = np.random.default_rng(seed)
    n_cust = max(10, int(_CUSTOMERS * sf))
    n_ord = max(10, int(_ORDERS * sf))
    n_part = max(10, int(_PARTS * sf))
    n_supp = max(10, int(_SUPPLIERS * sf))

    nation = pa.table({
        'n_nationkey': pa.array(np.arange(25), pa.int32()),
        'n_name': pa.array(_NATIONS, pa.string()),
        'n_regionkey': pa.array(np.arange(25) % 5, pa.int32()),
    })
    custkey = np.arange(1, n_cust + 1)
    customer = pa.table({
        'c_custkey': pa.array(custkey, pa.int64()),
        'c_name': pa.array([f'Customer#{k:09d}' for k in custkey], pa.string()),
        'c_nationkey': pa.array(rng.integers(0, 25, n_cust), pa.int32()),
        'c_acctbal': _cents(rng, -999.99, 9999.99, n_cust),
        'c_mktsegment': _pick(rng, _SEGMENTS, n_cust),
        'c_comment': _comments(rng, n_cust, 12),
    })
    orderkey = np.arange(1, n_ord + 1)
    order_days = rng.integers(0, 2405, n_ord)
    orders = pa.table({
        'o_orderkey': pa.array(orderkey, pa.int64()),
        'o_custkey': pa.array(rng.integers(1, n_cust + 1, n_ord), pa.int64()),
        'o_orderstatus': _pick(rng, ['F', 'O', 'P'], n_ord),
        'o_totalprice': _cents(rng, 900.0, 500_000.0, n_ord),
        'o_orderdate': _days(order_days),
        'o_orderpriority': _pick(rng, ['1-URGENT', '2-HIGH', '3-MEDIUM', '4-NOT SPECIFIED', '5-LOW'], n_ord),
        'o_comment': _comments(rng, n_ord, 8),
    })
    lines_per_order = rng.integers(1, 8, n_ord)
    n_line = int(lines_per_order.sum())
    l_orderkey = np.repeat(orderkey, lines_per_order)
    starts = np.repeat(np.cumsum(lines_per_order) - lines_per_order, lines_per_order)
    l_linenumber = np.arange(n_line) - starts + 1
    ship_days = np.repeat(order_days, lines_per_order) + rng.integers(1, 122, n_line)
    lineitem = pa.table({
        'l_orderkey': pa.array(l_orderkey, pa.int64()),
        'l_partkey': pa.array(rng.integers(1, n_part + 1, n_line), pa.int64()),
        'l_suppkey': pa.array(rng.integers(1, n_supp + 1, n_line), pa.int64()),
        'l_linenumber': pa.array(l_linenumber, pa.int32()),
        'l_quantity': pa.array(rng.integers(1, 51, n_line).astype(np.float64)),
        'l_extendedprice': _cents(rng, 900.0, 105_000.0, n_line),
        'l_discount': pa.array(rng.integers(0, 11, n_line) / 100.0),
        'l_tax': pa.array(rng.integers(0, 9, n_line) / 100.0),
        'l_returnflag': _pick(rng, ['A', 'N', 'R'], n_line),
        'l_linestatus': _pick(rng, ['O', 'F'], n_line),
        'l_shipdate': _days(ship_days),
        'l_commitdate': _days(ship_days + rng.integers(-60, 60, n_line)),
        'l_receiptdate': _days(ship_days + rng.integers(1, 31, n_line)),
        'l_shipinstruct': _pick(rng, _INSTRUCTIONS, n_line),
        'l_shipmode': _pick(rng, _MODES, n_line),
        'l_comment': _comments(rng, n_line, 7),
    })
    return {'nation': nation, 'customer': customer, 'orders': orders,
            'lineitem': lineitem}
