"""Every setting, from every source, through one check (flock.settings).

A bad value is a BindError that names where it came from: the
``FLOCK_*`` variable, when the code that reads it runs, or the
``SET flock.*`` statement, which leaves the old value in place.
"""

from __future__ import annotations

import pytest

from flock.db import Database
from flock.errors import BindError
from flock.proc import proc_available, proc_enabled
from flock.proc.supervisor import request_timeout

#: setting -> (what reads its variable, bad variable texts, bad SET values)
BAD = {
    "encodings": (Database, ["off", "false", "2", "yes"], [2, -1]),
    "indexes": (Database, ["off", "false", "2", "yes"], [2, -1]),
    "memory_budget": (Database, ["-7", "abc", "1.5"], [-5]),
    "proc": (lambda: proc_enabled(None), ["off", "true", "2"], []),
    "proc_timeout": (request_timeout, ["abc", "0", "-1", "nan", "inf"], []),
}

CASES = [
    (name, source, raw)
    for name, (_, texts, values) in BAD.items()
    for source, raws in (("env", texts), ("SET", values))
    for raw in raws
]


@pytest.mark.parametrize("name, source, raw", CASES)
def test_bad_setting_rejected(monkeypatch, name, source, raw):
    if name == "proc" and not proc_available():
        pytest.skip("FLOCK_PROC is only read where workers can run")
    if source == "env":
        variable = "FLOCK_" + name.upper()
        monkeypatch.setenv(variable, raw)
        with pytest.raises(BindError, match=f"^{variable} must be .*'{raw}'"):
            BAD[name][0]()
    else:
        db = Database()
        before = getattr(db.settings, name)
        with pytest.raises(BindError, match=f"^SET flock.{name} must be "):
            db.execute(f"SET flock.{name} = {raw}")
        assert getattr(db.settings, name) == before
        db.close()
