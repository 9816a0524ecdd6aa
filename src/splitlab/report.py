"""The check record: one re-measured bound, judged against its limit.

Every task's report and the acceptance battery build their checks here,
so a command that runs no battery needs no battery module.
"""

from dataclasses import asdict, dataclass

LEVELS = ("quick", "full")


@dataclass(frozen=True)
class CheckResult:
    """One re-measured bound: the margin actually observed and its limit."""

    name: str
    passed: bool
    measured: float
    bound: float
    direction: str          # how measured relates to bound when passing
    reference: str          # which library quantity the check certifies
    detail: str = ""
    seconds: float = 0.0    # wall time of the check's whole group, not of this check

    def to_json(self) -> dict:
        """Report entry: every field but ``seconds``, so reports stay reproducible."""
        return {k: v for k, v in asdict(self).items() if k != "seconds"}

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (f"[{tag}] {self.name}: measured {self.measured:.6g} "
                f"{self.direction} bound {self.bound:.6g} ({self.detail})")


def verdict(name, measured, bound, direction, reference, detail=""):
    """Judge ``measured`` against ``bound``; ``direction`` is "<=" or ">="."""
    measured = float(measured)
    bound = float(bound)
    ok = measured <= bound if direction == "<=" else measured >= bound
    return CheckResult(name=name, passed=bool(ok), measured=measured,
                       bound=bound, direction=direction, reference=reference,
                       detail=detail)
