"""Structured pass/fail records with witnesses.

Three-valued status: a check either passes, fails (the verified identity is
violated, with a witness), or its hypotheses are violated (the identity is
conditional and the condition does not hold, so no claim is made either way).
"""

from __future__ import annotations

from collections import Counter

from .records import field, record

PASS = "pass"
FAIL = "fail"
HYPOTHESIS_VIOLATED = "hypothesis-violated"


class ReductionHypothesisViolated(ValueError):
    """A hypothesis of the reduction pipeline does not hold on its input, so
    no record is made: the CLI prints a hypothesis-violated document."""


@record
class CheckRecord:
    check_id: str
    status: str
    detail: str = ""
    witness: dict | None = None
    ranks: tuple | None = None

    def to_json(self) -> dict:
        out: dict = {"check": self.check_id, "status": self.status}
        if self.detail:
            out["detail"] = self.detail
        if self.witness is not None:
            out["witness"] = self.witness
        if self.ranks is not None:
            out["ranks"] = list(self.ranks)
        return out


@record
class VerificationReport:
    suite: str
    records: list[CheckRecord] = field(default_factory=list)

    def add(self, check_id: str, ok: bool, detail: str = "",
            witness: dict | None = None, ranks=None) -> None:
        status = PASS if ok else FAIL
        if ranks is not None:
            ranks = tuple(ranks)
        self.records.append(CheckRecord(check_id, status, detail, witness, ranks))

    def add_hypothesis_violation(self, check_id: str, detail: str = "",
                                 witness: dict | None = None) -> None:
        self.records.append(CheckRecord(check_id, HYPOTHESIS_VIOLATED, detail, witness))

    def merge(self, other: "VerificationReport") -> None:
        self.records.extend(other.records)

    @property
    def passed(self) -> bool:
        return all(r.status == PASS for r in self.records)

    @property
    def hypothesis_ok(self) -> bool:
        return all(r.status != HYPOTHESIS_VIOLATED for r in self.records)

    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if r.status != PASS]

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "records": [r.to_json() for r in self.records],
        }


def witness_vector(v) -> dict:
    return {"vector": [str(x) for x in v]}


def witness_subspace(s) -> dict:
    return {"basis": [[str(x) for x in row] for row in s.basis],
            "ambient_dim": s.ambient_dim}


def witness_difference(a, b) -> dict:
    """A basis vector of one of two unequal subspaces that the other does
    not contain: the first one of a if there is one, else of b."""
    extra = ([v for v in a.basis if not b.contains(v)]
             or [v for v in b.basis if not a.contains(v)])
    return witness_vector(extra[0])


def witness_failures(rep: VerificationReport) -> dict:
    """The id of each record of rep that did not pass, with its count."""
    return {"failing": dict(Counter(r.check_id for r in rep.failures()))}
