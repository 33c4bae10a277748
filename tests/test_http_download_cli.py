"""HttpDownload workload + the experiments CLI runner."""

import pytest

from repro.deploy import build
from repro.workloads import HttpDownload, DEFAULT_RATE_MBPS


def test_download_default_rate_matches_paper():
    assert DEFAULT_RATE_MBPS == 1.5


def test_endless_stream_sets_rate_and_never_completes():
    site = build(num_ues=1)
    ue = site.ues[0]
    assert site.run_attach(ue).success
    download = HttpDownload(site.sim, ue, rate_mbps=2.0)
    done = download.start()
    site.sim.run(until=site.sim.now + 30.0)
    assert ue.offered_mbps == 2.0
    assert not done.triggered


def test_finite_download_completes_and_stops_offering():
    site = build(num_ues=1)
    ue = site.ues[0]
    assert site.run_attach(ue).success
    # 1 MB at 8 Mbps = 1 second of offered time.
    download = HttpDownload(site.sim, ue, rate_mbps=8.0,
                            size_bytes=1_000_000)
    done = download.start()
    result = site.sim.run_until_triggered(done, limit=site.sim.now + 60.0)
    assert result.requested_bytes == 1_000_000
    assert result.finished_at - result.started_at <= 3.0
    assert ue.offered_mbps == 0.0


def test_download_validation():
    site = build(num_ues=1)
    with pytest.raises(ValueError):
        HttpDownload(site.sim, site.ues[0], rate_mbps=0)
    with pytest.raises(ValueError):
        HttpDownload(site.sim, site.ues[0], rate_mbps=1.0, size_bytes=0)


# -- CLI runner -----------------------------------------------------------------------


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
