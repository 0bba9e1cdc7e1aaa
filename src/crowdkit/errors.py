"""Exception types shared across crowdkit modules."""

from __future__ import annotations


class CrowdkitError(Exception):
    """Base class for all crowdkit errors."""


class GraphError(CrowdkitError):
    """Invalid graph construction or mutation."""


class EdgeListError(GraphError):
    """Malformed edge-list input. Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GexfError(CrowdkitError):
    """Malformed or unsupported GEXF document."""


class MetricError(CrowdkitError):
    """Centrality computation failed (unknown metric, divergence, bad k)."""


class ConfigError(CrowdkitError):
    """Invalid configuration document. Carries the document path to the bad node."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        if path:
            message = f"{path}: {message}"
        super().__init__(message)


class HookError(CrowdkitError):
    """A lifecycle hook raised or returned an uncollectible value."""

    def __init__(self, message: str, hook: str = "", iteration: int | None = None):
        self.detail = message
        self.hook = hook
        self.iteration = iteration
        super().__init__(self._text())

    def locate(self, hook: str, iteration: int) -> "HookError":
        """Fill in the hook and iteration where they are unset; the message follows. Returns self."""
        self.hook = self.hook or hook
        self.iteration = iteration if self.iteration is None else self.iteration
        self.args = (self._text(),)
        return self

    def _text(self) -> str:
        where = self.hook
        if self.iteration is not None:
            where = f"{self.hook} (iteration {self.iteration})" if self.hook else f"iteration {self.iteration}"
        return f"hook {where}: {self.detail}" if where else self.detail


class CollectError(CrowdkitError):
    """Data collection or merge failure."""
