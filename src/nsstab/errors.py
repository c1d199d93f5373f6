"""Exception types shared across the package."""


class NsstabError(Exception):
    """Base class for all package errors."""


class ConfigError(NsstabError):
    """Invalid or inconsistent experiment configuration."""


class DealiasingError(NsstabError):
    """Grid resolution too small for alias-free products at the requested cutoff."""


class UnreachableTargetError(NsstabError):
    """Projected endpoint not reachable through the actuator; raise M or the horizon."""


class ResolutionTooSmallError(NsstabError):
    """No admissible mode cutoff below the truncation achieves the requested decay."""


class RiccatiBlowupError(NsstabError):
    """Backward cost-operator sweep exceeded its cap; system not stabilizable at this M."""


class StepSolveError(NsstabError):
    """Implicit step system could not be solved."""


class VerificationError(NsstabError):
    """A run-level correctness assertion failed (exit code 4)."""
