"""uniparser_ray — a Ray-Data-native crawl/extraction engine.

A brand-new engine with the query/data-processing capabilities of the
reference rule-driven extractor (ClericPy/uniparser): CrawlerRule /
ParseRule chains of [parser, param, value] triples (CSS / XML / regex /
JSONPath / JMESPath / ObjectPath / UDF / python / loader / time /
context parsers) re-expressed as ``ray.data.Dataset`` pipelines of
``map_batches`` over Arrow batches, paired with a from-scratch
10^10-URL frontier/fetch scheduler (sharded bloom URL-seen actors,
a per-host politeness grant with per-host request pacing, robots cache,
priority frontier with explicit skew splitting) emitting Lance-layout rows of image+caption
pairs.

Everything here derives from public knowledge only: the Ray / Ray Data
and Apache Arrow APIs, the public reference repo, and published papers.
"""

__version__ = "0.1.0"


def __getattr__(name):
    # lazy exports so submodules (e.g. dom) are importable standalone
    if name in ("CrawlerRule", "HostRule", "ParseRule"):
        from .rulevm import rules
        return getattr(rules, name)
    if name in ("RuleVM", "Uniparser"):
        from .rulevm import vm
        return getattr(vm, name)
    if name == "Crawler":
        from .crawl import oracle
        return oracle.Crawler
    if name in ("CrawlConfig", "run_crawl"):
        from .crawl import loop
        return getattr(loop, name)
    if name == "parse_dataset":
        from .stages import rule_engine
        return rule_engine.parse_dataset
    if name in ("TransportAdapter", "RequestsAdapter", "SyntheticWebAdapter",
                "AsyncTransportAdapter", "AiohttpAdapter", "HttpxAdapter",
                "SyntheticAsyncWebAdapter", "Frequency", "AsyncFrequency"):
        from .rulevm import transport
        return getattr(transport, name)
    raise AttributeError(name)
