"""Tiny pass/fail report used by the verification suites and the CLI."""


class Report:

    def __init__(self, title):
        self.title = title
        self.checks = []  # (name, passed, detail)

    def add(self, name, passed, detail=""):
        self.checks.append((name, bool(passed), detail))

    @property
    def ok(self):
        """True iff at least one check ran and every check passed."""
        return bool(self.checks) and all(passed for _, passed, _ in self.checks)

    def lines(self):
        out = []
        for name, passed, detail in self.checks:
            line = "%s: %s" % (name, "PASS" if passed else "FAIL")
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
                       for n, p, d in self.checks],
        }

    def __repr__(self):
        return "Report(%r, ok=%s)" % (self.title, self.ok)
