"""Tiny pass/fail report used by the verification suites and the CLI."""


class Report:

    def __init__(self, title):
        self.title = title
        self.checks = []  # (name, passed, detail); passed None: skipped

    def add(self, name, passed, detail=""):
        self.checks.append((name, bool(passed), detail))

    def tally(self, name, count, failures):
        """A check over `count` cases, which passes when `failures` is zero
        or false; with no case at all it is skipped (passed is None)."""
        if count:
            self.add(name, not failures)
        else:
            self.checks.append((name, None, "nothing to check"))

    @property
    def ok(self):
        """True iff at least one check ran and every check that ran
        passed; a skipped check counts for neither."""
        ran = [passed for _, passed, _ in self.checks if passed is not None]
        return bool(ran) and all(ran)

    def lines(self):
        out = []
        for name, passed, detail in self.checks:
            line = "%s: %s" % (name, "SKIP" if passed is None
                               else "PASS" if passed else "FAIL")
            if detail:
                line += " (%s)" % detail
            out.append(line)
        out.append("%s: %s" % (self.title, "ALL PASS" if self.ok else "FAILED"))
        return out

    def to_json(self):
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": [{"name": n, "passed": p, "detail": d}
                       if p is not None else
                       {"name": n, "passed": False, "skipped": True,
                        "detail": d}
                       for n, p, d in self.checks],
        }

    def __repr__(self):
        return "Report(%r, ok=%s)" % (self.title, self.ok)
