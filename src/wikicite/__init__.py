"""Journal-citation extraction from MediaWiki dumps, with rank-correlation
comparison against external journal statistics."""

from .aggregate import (
    CountTable,
    RegistryMismatchError,
    growth_report,
    merge,
    tally,
    tally_scans,
)
from .dump_reader import (
    DumpParseError,
    DumpReader,
    WikiPage,
    filter_namespaces,
    infer_namespace,
    open_dump,
)
from .extractor import (
    CitationRecord,
    JournalRecord,
    PageScan,
    scan_page,
)
from .registry import (
    JournalRegistry,
    RegistryLoadError,
    Resolution,
    ResolutionKind,
    load_default_registry,
    load_registry,
    near_misses,
    normalize_key,
    parse_registry,
)

__version__ = "0.1.0"


# The names in ``__all__`` not imported above are the statistics', which load
# on first use so that commands that never correlate do not import them.
def __getattr__(name: str):
    if name in __all__:
        from . import bibliometrics

        return getattr(bibliometrics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CitationRecord",
    "CorrelationResult",
    "CountTable",
    "DegenerateInputError",
    "DumpParseError",
    "DumpReader",
    "JcrFormatError",
    "JcrRecord",
    "JoinResult",
    "JournalMetrics",
    "JournalRecord",
    "JournalRegistry",
    "PageScan",
    "RegistryLoadError",
    "RegistryMismatchError",
    "Resolution",
    "ResolutionKind",
    "WikiPage",
    "combined_top_overlap",
    "correlate",
    "filter_namespaces",
    "growth_report",
    "infer_namespace",
    "join",
    "kendall_tau_b",
    "load_default_registry",
    "load_registry",
    "merge",
    "near_misses",
    "normalize_key",
    "open_dump",
    "parse_registry",
    "read_jcr_csv",
    "scan_page",
    "scatter_export",
    "tally",
    "tally_scans",
    "tau_p_value",
    "topn_sweep",
]
