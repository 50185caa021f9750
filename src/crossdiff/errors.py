"""Errors of the solver and of the run monitor; each carries the step of a
run it happened at, once the run has filled that in."""

from __future__ import annotations


class SchemeError(Exception):
    #: the step of a run the error happened at; ``run`` fills it in after
    #: the step raised, so messages that name it are rendered on demand
    step_index: int | None = None

    def _at_step(self) -> str:
        return f" at step {self.step_index}" if self.step_index is not None else ""


class InvalidInput(SchemeError, ValueError):
    pass


class NonConvergence(SchemeError):
    """A failed nonlinear solve; ``cause`` says why, when the solver knows
    better than the stock guess."""

    def __init__(self, iterations: int, residual: float, step_index: int | None = None,
                 cause: str | None = None):
        super().__init__(iterations, residual, step_index, cause)
        self.iterations, self.residual, self.step_index = iterations, residual, step_index
        self.cause = cause or "time step too large or state too degenerate"

    def __str__(self) -> str:
        return (f"nonlinear solve did not converge{self._at_step()}: "
                f"residual {self.residual:.3e} after {self.iterations} iterations "
                f"({self.cause})")


class RhoTooSmall(InvalidInput):
    def __init__(self, rho: float, sup: float):
        super().__init__(
            f"truncation level rho={rho} is below the state bound {sup}; "
            f"choose rho >= max(1, ||prev||_inf)"
        )


class InvariantViolation(SchemeError):
    """A structural inequality failed beyond its slack; names the inequality."""

    def __init__(self, inequality: str, step_index: int | None, detail: str):
        super().__init__(inequality, step_index, detail)
        self.inequality, self.step_index, self.detail = inequality, step_index, detail

    def __str__(self) -> str:
        return (f"violated inequality [{self.inequality}]"
                f"{self._at_step()}: {self.detail}")
