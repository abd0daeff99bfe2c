"""Exception types shared across the package."""


class DatasetParseError(ValueError):
    """A dataset file is missing, malformed, or has a bad token."""


class StructuralError(ValueError):
    """Graph data violates a structural invariant (ids, symmetry, overlap)."""


class ConfigurationError(ValueError):
    """A configuration value is out of range or inconsistent."""


class TrainingDiverged(RuntimeError):
    """The training loss, or a graph's score, left the finite range."""


class CheckpointError(ValueError):
    """A parameter checkpoint is unreadable or inconsistent with its config."""
