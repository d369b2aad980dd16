"""Exception types shared across the package."""


class HgctError(Exception):
    """Base class for all package-specific errors."""


class DegenerateInput(HgctError):
    """Too few correspondences: fewer than a minimal set for `register`, or
    fewer than 3 point pairs per rigid fit. The solver masks rank-deficient
    (collinear or coincident) fits in its `ok` flags instead of raising."""


class EmptyGraph(HgctError):
    """Every off-diagonal compatibility entry was thresholded away."""


class NoEdges(HgctError):
    """Hypergraph has no non-empty hyperedge."""


class NonFinite(HgctError):
    """A NaN or Inf appeared in a network intermediate or gradient."""


class NoHypothesis(HgctError):
    """Every candidate transform was degenerate; nothing to rank."""


class ConfigError(HgctError):
    """Malformed or unknown configuration input."""
