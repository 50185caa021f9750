"""Errors of the solver and of the run monitor; each carries the step of a
run it happened at, once the run has filled that in."""

from __future__ import annotations


class SchemeError(Exception):
    pass


class InvalidInput(SchemeError):
    pass


def _at_step(step_index: int | None) -> str:
    return f" at step {step_index}" if step_index is not None else ""


class NonConvergence(SchemeError):
    # the message is rendered on demand, because ``run`` fills in
    # ``step_index`` after the step raised
    def __init__(self, iterations: int, residual: float, step_index: int | None = None):
        super().__init__(iterations, residual, step_index)
        self.iterations = iterations
        self.residual = residual
        self.step_index = step_index

    def __str__(self) -> str:
        return (f"nonlinear solve did not converge{_at_step(self.step_index)}: "
                f"residual {self.residual:.3e} after {self.iterations} iterations "
                f"(time step too large or state too degenerate)")


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
        self.inequality = inequality
        self.step_index = step_index
        self.detail = detail

    def __str__(self) -> str:
        return (f"violated inequality [{self.inequality}]"
                f"{_at_step(self.step_index)}: {self.detail}")
