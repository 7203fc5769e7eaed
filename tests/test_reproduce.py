"""The reproduction as a library call: plain records, no side effects."""

from gapbench import reproduce


def test_run_passes_and_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    records = reproduce.run(seed=11)
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr() == ("", "")
    assert records[0] == {"record": "config", "seed": 11, "constant": None}
    criteria = [r for r in records if r["record"] == "criterion"]
    assert len(criteria) == 9 and all(c["ok"] for c in criteria)
    assert records[-1] == {"record": "summary", "ok": True, "criteria": 9, "passed": 9}


def test_non_default_constants_flag_rows_and_skip_the_check():
    records = reproduce.run(constant=0.25)
    rows = [r for r in records if r.get("table") == "estimates"]
    assert len(rows) == 6 and all(r["non_default_constants"] for r in rows)
    est = next(r for r in records if r.get("name") == "estimates")
    assert est["skipped"] is True and est["ok"] is True
