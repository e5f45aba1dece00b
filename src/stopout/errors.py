"""Exception types shared across pipeline stages, and the failure policy: a
command stopped by one prints `<label>: <message>` and exits with its exit_code;
a grid cell or importance problem stopped by one with a status records it instead."""


class PipelineError(Exception):
    """Base class for typed pipeline failures."""

    exit_code: int
    label: str


class ConfigError(PipelineError):
    """Bad or missing run configuration."""

    exit_code, label = 2, "config error"


class DataError(PipelineError):
    """Input files are structurally unusable (missing, unparseable header, ...)."""

    exit_code, label = 3, "data error"


class InsufficientDataError(PipelineError):
    """A modeling step has too few rows to proceed."""

    exit_code, label, status = 3, "insufficient data", "insufficient_data"


class DegenerateLabelsError(PipelineError):
    """A label vector contains a single class where two are required."""

    exit_code, label, status = 4, "degenerate labels", "degenerate_labels"
