"""The experiments CLI runner: listing, running, unknown names."""


def test_cli_list():
    from repro.experiments.__main__ import main
    assert main(["list"]) == 0


def test_cli_runs_table_experiments(capsys):
    from repro.experiments.__main__ import main
    assert main(["table2", "table3"]) == 0
    output = capsys.readouterr().out
    assert "RAN CapEx" in output
    assert "-43%" in output


def test_cli_unknown_experiment():
    from repro.experiments.__main__ import main
    assert main(["figure-nine-thousand"]) == 2


def test_cli_quick_ablation(capsys):
    from repro.experiments.__main__ import main
    assert main(["ablation-quota"]) == 0
    assert "quota" in capsys.readouterr().out
