"""Exception taxonomy: parameter problems are ValueError subclasses, runtime
numerics (non-convergence, collapse) are NumericalError subclasses.  The CLI
maps the former and file errors to exit code 2, the latter to 1.  A time
integration that blows up raises nothing: it stops and flags its trace."""

__all__ = ["NumericalError", "ConvergenceError", "NoSolitaryWaveError"]


class NumericalError(RuntimeError):
    """A solve or time integration failed for numerical reasons."""


class ConvergenceError(NumericalError):
    """An iteration exhausted its budget without meeting its tolerance."""


class NoSolitaryWaveError(NumericalError):
    """The fixed-point iteration collapsed to the zero profile."""

