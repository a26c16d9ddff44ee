"""Exception types shared across the toolkit.

Every error a caller can reasonably handle derives from ToolkitError, so the
CLI can map the whole family to its data-error exit code in one place.
"""


class ToolkitError(Exception):
    """Base class for all piiprep errors."""


class TaxonomyError(ToolkitError):
    """Bad taxonomy data: duplicate types, unknown groups, malformed lines."""


class LabelError(ToolkitError):
    """A BIO label string that does not parse, or a label outside the space."""


class TagError(ToolkitError):
    """Malformed inline tag markup: unclosed, mismatched, nested, or junk tags."""


class SpanError(ToolkitError):
    """Character spans that do not fit the text they annotate."""


class RecordError(ToolkitError):
    """A record that violates the artifact schema."""


class AlignmentError(ToolkitError):
    """Gold and prediction streams that cannot be paired up."""


class AllocationError(ToolkitError):
    """Infeasible allocation request (negative target, target beyond total)."""


class ConfigError(ToolkitError):
    """Invalid pipeline configuration."""


class AnalysisError(ToolkitError):
    """Bad comparative-analysis input (missing system, zero support, dupes)."""


class UnwrittenError(OSError):
    """A workers.Spill could not be made or written.

    An I/O error like any other OSError, except in a forked worker
    (piiprep.workers): there it ends the worker, and the calling process
    runs the range itself.
    """
