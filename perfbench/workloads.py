"""The benchmark's workloads.

Each one builds its inputs from the seed, warms up on a tiny input, runs one
materialization through the library's public entry points into a fresh
directory, and states the oracle its committed triples must equal.

- ``web_pages``: synthetic crawl pages through ``write_web_kg``.  The time
  is in ``pipelines.web`` (extraction, mentions, langid, quality score); the
  dedup takes its no-duplicate shortcut; no mapping, no joins.
- ``tpch_joins``: an RML mapping over TPC-H-shaped tables through
  ``materialize_to_dir``: class and reference POMs, three referencing object
  maps, xsd:integer/decimal/dateTime natural mapping, a language tag, and a
  duplicate-heavy rule whose duplicates cross block boundaries.  The time is
  in ``engine.kernels``, the materializer's joins and the loser filter of
  ``distinct_in_place``; ``pipelines.web`` never runs.

Sizes keep one run (three Ray set-ups, one or two materializations after
each, the checks) under a minute on one CPU, so the whole benchmark schedule
fits its time budget even when the shared host runs slow.
"""

from __future__ import annotations

import glob
import os

from perfbench.inputs import InputCache

EX = 'http://example.com'
XSD = 'http://www.w3.org/2001/XMLSchema#'


class Workload:
    name = ''
    keyed = False          # compare (partition, triple) rather than triples

    def prepare(self, cache: InputCache, seed: int, build: bool) -> None:
        """Locate (``build=False``) or build the inputs for ``seed``."""
        raise NotImplementedError

    def warm_up(self, out_dir: str) -> None:
        raise NotImplementedError

    def run(self, out_dir: str, tracer=None) -> None:
        raise NotImplementedError

    def oracle(self) -> set:
        raise NotImplementedError


# --------------------------------------------------------------------------
# web_pages
# --------------------------------------------------------------------------

class WebPages(Workload):
    name = 'web_pages'
    keyed = True
    PAGES = 10_000
    TINY_PAGES = 200
    FILES = 4

    def prepare(self, cache, seed, build):
        self.pages = cache.pages(self.PAGES, seed, self.FILES, build)
        self.tiny = cache.pages(self.TINY_PAGES, seed, self.FILES, build)

    def _write(self, pages_dir, out_dir, tracer=None):
        from morph_kgc_ray.pipelines.web import write_web_kg
        from morph_kgc_ray.sources.readers import read_parquet_clean
        cols = ['url', 'warc_ts', 'html', 'lang']
        if tracer is None:
            pages = read_parquet_clean(pages_dir, columns=cols, override_num_blocks=self.FILES)
        else:
            from perfbench.tracing import read_materialized
            with tracer.span('sources'):
                pages = read_materialized(tracer, read_parquet_clean(
                    pages_dir, columns=cols, override_num_blocks=self.FILES))
        write_web_kg(pages, out_dir, resume=False)

    def warm_up(self, out_dir):
        self._write(self.tiny, out_dir)

    def run(self, out_dir, tracer=None):
        self._write(self.pages, out_dir, tracer)

    def oracle(self):
        from morph_kgc_ray.pipelines.benchmarks import _web_kg_oracle_sql
        from perfbench.oracle import oracle_lines
        return oracle_lines(_web_kg_oracle_sql(f'{self.pages}/*.parquet'), {}, keyed=True)


# --------------------------------------------------------------------------
# tpch_joins
# --------------------------------------------------------------------------

def _materialize(mapping: str, out_dir: str) -> None:
    from morph_kgc_ray import Config, materialize_to_dir
    cfg = Config({'DS1': {}, 'output_format': 'N-TRIPLES'})
    cfg.set_mappings_document('DS1', mapping)
    materialize_to_dir(cfg, out_dir, resume=False)


def _tpch_views(tables_dir: str) -> dict:
    views = {}
    for path in sorted(glob.glob(os.path.join(tables_dir, '*.parquet'))):
        name = os.path.basename(path)[:-len('.parquet')]
        views[name] = os.path.join(path, '*.parquet') if os.path.isdir(path) else path
    return views


def tpch_mapping(tables_dir: str, warm_up: bool = False) -> str:
    """The tpch_joins mapping; ``warm_up`` keeps two join-free maps."""
    def src(table):
        return os.path.join(tables_dir, f'{table}.parquet')
    prefixes = f'''
    @prefix rml: <http://w3id.org/rml/> .
    @prefix xsd: <{XSD}> .
    '''
    nation = f'''
    <#TM_Nation> a rml:TriplesMap ;
      rml:logicalSource [ rml:source "{src('nation')}" ] ;
      rml:subjectMap [ rml:template "{EX}/nation/{{n_nationkey}}" ] ;
      rml:predicateObjectMap [
        rml:predicate <{EX}/ontology/nationName> ;
        rml:objectMap [ rml:reference "n_name" ] ] .
    '''
    part_flag = f'''
    <#TM_PartFlag> a rml:TriplesMap ;
      rml:logicalSource [ rml:source "{src('lineitem')}" ] ;
      rml:subjectMap [ rml:template "{EX}/part/{{l_partkey}}" ] ;
      rml:predicateObjectMap [
        rml:predicate <{EX}/ontology/returnFlag> ;
        rml:objectMap [ rml:reference "l_returnflag" ] ] .
    '''
    if warm_up:
        return prefixes + nation + part_flag
    return prefixes + nation + part_flag + f'''
    <#TM_Customer> a rml:TriplesMap ;
      rml:logicalSource [ rml:source "{src('customer')}" ] ;
      rml:subjectMap [ rml:template "{EX}/customer/{{c_custkey}}" ;
                       rml:class <{EX}/ontology/Customer> ] ;
      rml:predicateObjectMap [
        rml:predicate <http://xmlns.com/foaf/0.1/name> ;
        rml:objectMap [ rml:reference "c_name" ] ] ;
      rml:predicateObjectMap [
        rml:predicate <{EX}/ontology/segment> ;
        rml:objectMap [ rml:reference "c_mktsegment" ; rml:language "en" ] ] ;
      rml:predicateObjectMap [
        rml:predicate <{EX}/ontology/accountBalance> ;
        rml:objectMap [ rml:reference "c_acctbal" ; rml:datatype xsd:decimal ] ] ;
      rml:predicateObjectMap [
        rml:predicate <{EX}/ontology/nation> ;
        rml:objectMap [ rml:parentTriplesMap <#TM_Nation> ;
                        rml:joinCondition [ rml:child "c_nationkey" ; rml:parent "n_nationkey" ] ] ] .
    <#TM_Order> a rml:TriplesMap ;
      rml:logicalSource [ rml:source "{src('orders')}" ] ;
      rml:subjectMap [ rml:template "{EX}/order/{{o_orderkey}}" ] ;
      rml:predicateObjectMap [
        rml:predicate <{EX}/ontology/placedBy> ;
        rml:objectMap [ rml:parentTriplesMap <#TM_Customer> ;
                        rml:joinCondition [ rml:child "o_custkey" ; rml:parent "c_custkey" ] ] ] ;
      rml:predicateObjectMap [
        rml:predicate <{EX}/ontology/orderDate> ;
        rml:objectMap [ rml:reference "o_orderdate" ; rml:datatype xsd:dateTime ] ] ;
      rml:predicateObjectMap [
        rml:predicate <{EX}/ontology/totalPrice> ;
        rml:objectMap [ rml:reference "o_totalprice" ; rml:datatype xsd:decimal ] ] .
    <#TM_Line> a rml:TriplesMap ;
      rml:logicalSource [ rml:source "{src('lineitem')}" ] ;
      rml:subjectMap [ rml:template "{EX}/order/{{l_orderkey}}/line/{{l_linenumber}}" ] ;
      rml:predicateObjectMap [
        rml:predicate <{EX}/ontology/quantity> ;
        rml:objectMap [ rml:reference "l_quantity" ; rml:datatype xsd:integer ] ] ;
      rml:predicateObjectMap [
        rml:predicate <{EX}/ontology/partOf> ;
        rml:objectMap [ rml:parentTriplesMap <#TM_Order> ;
                        rml:joinCondition [ rml:child "l_orderkey" ; rml:parent "o_orderkey" ] ] ] .
    '''


def _iri(path: str, col: str) -> str:
    return f"'<{EX}/{path}/' || CAST({col} AS VARCHAR) || '>'"


def _lit(expr: str, suffix: str = '') -> str:
    return f"'\"' || {expr} || '\"{suffix}'"


def tpch_oracle_sql() -> str:
    """The library's ``rml_*`` oracles for the rules they cover, plus one
    SELECT DISTINCT for each further rule of ``tpch_mapping``."""
    from morph_kgc_ray.pipelines.benchmarks import ORACLE_SQL
    extra = [
        (_iri('customer', 'c_custkey'), f'<{EX}/ontology/segment>',
         _lit('c_mktsegment', '@en'), 'customer'),
        (_iri('customer', 'c_custkey'), f'<{EX}/ontology/accountBalance>',
         _lit('CAST(c_acctbal AS VARCHAR)', f'^^<{XSD}decimal>'), 'customer'),
        (_iri('customer', 'c_custkey'), f'<{EX}/ontology/nation>',
         _iri('nation', 'n_nationkey'), 'customer JOIN nation ON c_nationkey = n_nationkey'),
        (_iri('nation', 'n_nationkey'), f'<{EX}/ontology/nationName>', _lit('n_name'), 'nation'),
        (_iri('order', 'o_orderkey'), f'<{EX}/ontology/orderDate>',
         _lit("REPLACE(CAST(o_orderdate AS VARCHAR), ' ', 'T')", f'^^<{XSD}dateTime>'), 'orders'),
        (_iri('order', 'o_orderkey'), f'<{EX}/ontology/totalPrice>',
         _lit('CAST(o_totalprice AS VARCHAR)', f'^^<{XSD}decimal>'), 'orders'),
        (f"'<{EX}/order/' || CAST(l_orderkey AS VARCHAR) || '/line/' || "
         f"CAST(l_linenumber AS VARCHAR) || '>'", f'<{EX}/ontology/partOf>',
         _iri('order', 'o_orderkey'), 'lineitem JOIN orders ON l_orderkey = o_orderkey'),
        (_iri('part', 'l_partkey'), f'<{EX}/ontology/returnFlag>', _lit('l_returnflag'), 'lineitem'),
    ]
    parts = [ORACLE_SQL[q] for q in ('rml_customer_triples', 'rml_join_order_customer',
                                      'rml_lineitem_datatype')]
    parts += [f"SELECT DISTINCT {s}, '{p}', {o} FROM {src}" for s, p, o, src in extra]
    return '\nUNION\n'.join(parts)


class TpchJoins(Workload):
    name = 'tpch_joins'
    # the tables must stay above the materializer's 4 MiB small-input
    # threshold, or the partitions take the small distinct, not the in-place one
    SF = 0.015
    TINY_SF = 0.0002

    def prepare(self, cache, seed, build):
        self.tables = cache.tpch(self.SF, seed, build=build)
        self.tiny = cache.tpch(self.TINY_SF, seed, build=build)

    def warm_up(self, out_dir):
        import ray.data
        from morph_kgc_ray.engine.dedup import distinct_in_place
        _materialize(tpch_mapping(self.tiny, warm_up=True), out_dir)
        # the tiny mapping takes the small-input distinct; the full one
        # takes the in-place distinct, whose reducer pool starts here
        distinct_in_place(ray.data.from_items([{'t': 'a'}, {'t': 'b'}]), ['t']).count()

    def run(self, out_dir, tracer=None):
        _materialize(tpch_mapping(self.tables), out_dir)

    def oracle(self):
        from perfbench.oracle import oracle_lines
        return oracle_lines(tpch_oracle_sql(), _tpch_views(self.tables), keyed=False)


WORKLOADS = {w.name: w for w in (WebPages, TpchJoins)}

