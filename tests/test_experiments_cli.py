"""`python -m repro.experiments` CLI tests."""

from repro.experiments.__main__ import main


def test_unknown_experiment_rejected(capsys, monkeypatch):
    import repro.experiments.__main__ as cli

    def run_all(**kwargs):
        raise AssertionError("an experiment ran")

    monkeypatch.setattr(cli, "run_all", run_all)
    assert main(["nope"]) == 2
    assert "unknown experiments" in capsys.readouterr().out
    # An unknown flag is named and nothing runs, also next to a valid id.
    assert main(["--bogus", "fig01"]) == 2
    assert "unknown flags: ['--bogus']" in capsys.readouterr().out
    # The removed --profile flag is one of them.
    assert main(["--profile", "fig01"]) == 2
    assert "unknown flags: ['--profile']" in capsys.readouterr().out


def test_single_fast_experiment(capsys):
    assert main(["--fast", "fig01"]) == 0
    out = capsys.readouterr().out
    assert "fig01" in out and "paper anchors" in out


def test_multiple_selection(capsys):
    assert main(["--fast", "fig01", "table1"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out and "fig01" in out


def test_chart_flag(capsys):
    assert main(["--fast", "--chart", "fig01"]) == 0
    # fig01 has no chart adapter; output still renders normally
    assert "fig01" in capsys.readouterr().out


def test_json_export(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["--fast", "--json", str(out), "fig01"]) == 0
    from repro.experiments.report import anchors_table, load_json

    results = load_json(out)
    assert results[0].exp_id == "fig01"
    anchors = anchors_table(results)
    assert any("plain memcopy" in a[1] for a in anchors)


def test_json_without_path_rejected(capsys):
    assert main(["--json"]) == 2
