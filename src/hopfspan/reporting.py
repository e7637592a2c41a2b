"""Small result types shared by the checkers, and the one rule every law
equation goes through: CheckReport.holds records a 2-cell verdict of
spanv_core.eq2, and CheckReport.equal decides an equation on base values
once per distinct pair of operands.  The law loops on base values walk
only the tuples they decide and build each side through
CheckReport.once, once per distinct operands, so a shape whose structure
maps are a few shared values builds a few sides however many tuples it
has, and still records every tuple in loop order.  When every operand
of a law is one object at all its tuples, the law is one equation
(CheckReport.uniform), and its loop is walked only if that fails."""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Verdict:
    """A yes/no answer that carries a witness when the answer is no."""

    ok: bool
    witness: object = None

    def __bool__(self):
        return self.ok


@dataclass
class CheckReport:
    """Outcome of an axiom suite: named failures with located witnesses.
    _decided keys equal, and _built keys once, by the ids of their
    operands and holds them, so an id is not reused while the report
    lives."""

    name: str
    failures: list = field(default_factory=list)
    _decided: dict = field(default_factory=dict, repr=False, compare=False)
    _built: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def ok(self):
        return not self.failures

    def __bool__(self):
        return self.ok

    def fail(self, law, witness):
        self.failures.append((law, witness))

    def holds(self, law, verdict, *where):
        """Record law as failed, at (*where, witness), unless verdict."""
        if not verdict:
            self.fail(law, (*where, verdict.witness) if where
                      else verdict.witness)

    def equal(self, law, key, be, lhs, rhs):
        """The law lhs = rhs on base values at key, decided by backend be
        once per distinct (lhs, rhs) pair and recorded as holds does,
        unless law is None; returns whether it holds."""
        pair = (id(lhs), id(rhs))
        hit = self._decided.get(pair)
        if hit is None:
            ok = bool(be.eq2(lhs, rhs))
            hit = self._decided[pair] = (lhs, rhs, Verdict(
                ok, None if ok else be.first_diff(lhs, rhs)))
        verdict = hit[2]
        if not verdict.ok and law is not None:
            self.fail(law, (key, verdict.witness))
        return verdict.ok

    def uniform(self, be, *sides):
        """Whether each (lhs, rhs) of sides holds, decided as equal
        decides it and recorded nowhere: the one equation of each law
        whose operands are one object at every tuple.  The law's loop is
        walked only when one fails, to record every failing tuple."""
        return all(self.equal(None, None, be, lhs, rhs) for lhs, rhs in sides)

    def once(self, build, *operands):
        """build(*operands), built once per build and distinct operands:
        a loop reads the sides of each tuple from here and still records
        every tuple through equal."""
        key = (build, *map(id, operands))
        hit = self._built.get(key)
        if hit is None:
            hit = self._built[key] = (operands, build(*operands))
        return hit[1]

    def merge(self, other):
        self.failures.extend(other.failures)
        return self

    def summary(self):
        if self.ok:
            return "%s: pass" % self.name
        law, witness = self.failures[0]
        return "%s: FAIL %d law(s), first %s at %r" % (
            self.name, len(self.failures), law, witness)
