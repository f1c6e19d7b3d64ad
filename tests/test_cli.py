import pytest

from edgeslice.cli import main
from edgeslice.scenario import calibrated_text

from test_scenario import MINIMAL
from util import CALIBRATED_YAML as SCENARIO


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_bench_create_writes_outputs(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["bench-create", "--requests", "5", "--out", str(out)]) == 0
    assert (out / "samples.csv").exists()
    assert (out / "summary.txt").exists()
    stdout = capsys.readouterr().out
    assert "cloud create" in stdout and "edge create" in stdout


def test_bench_create_single_mode(tmp_path):
    out = tmp_path / "o"
    assert main(["bench-create", "--mode", "cloud", "--requests", "3", "--out", str(out)]) == 0
    body = read(out / "samples.csv").decode()
    assert ",edge," not in body


def test_bench_retrieve_reports_ratio(tmp_path, capsys):
    assert main(["bench-retrieve", "--requests", "4", "--out", str(tmp_path / "o")]) == 0
    assert "ratio" in capsys.readouterr().out


def test_bench_prepare_warm_and_cold(tmp_path, capsys):
    assert main(["bench-prepare", "--repetitions", "2", "--out", str(tmp_path / "w")]) == 0
    warm = capsys.readouterr().out
    assert main(
        ["bench-prepare", "--repetitions", "2", "--cold", "--out", str(tmp_path / "c")]
    ) == 0
    cold = capsys.readouterr().out
    assert "warm cache" in warm and "cold cache" in cold


def test_road_scenario_exit_code(tmp_path, capsys):
    assert main(["road-scenario", "--out", str(tmp_path / "o")]) == 0
    assert "[PASS]" in capsys.readouterr().out


def test_road_scenario_failures_exit_3(tmp_path, monkeypatch, capsys):
    import edgeslice.cli as cli
    from edgeslice.bench import RoadReport
    from edgeslice.netsim import LatencySample

    broken = RoadReport()
    broken.check("synthetic failing assertion", False, "forced")
    broken.samples = [LatencySample("road-scenario", "edge", "retrieve", 0, 1.0)]
    monkeypatch.setattr(cli, "run_road_scenario", lambda seed: broken)
    assert main(["road-scenario", "--out", str(tmp_path / "o")]) == 3
    assert "[FAIL]" in capsys.readouterr().out


def test_run_scenario_file(tmp_path):
    out = tmp_path / "o"
    assert main(["run", SCENARIO, "--seed", "42", "--requests", "5", "--out", str(out)]) == 0
    body = read(out / "samples.csv").decode()
    assert body.count("\n") == 1 + 5 * 2 * 2  # header + 5 reqs x 2 ops x 2 modes


def test_run_deterministic_across_invocations(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", SCENARIO, "--seed", "42", "--requests", "5", "--out", str(out1)]) == 0
    assert main(["run", SCENARIO, "--seed", "42", "--requests", "5", "--out", str(out2)]) == 0
    assert read(out1 / "samples.csv") == read(out2 / "samples.csv")
    assert read(out1 / "summary.txt") == read(out2 / "summary.txt")


def test_missing_scenario_file_is_config_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "ghost.yaml"), "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["bench-create"], ["run", SCENARIO]], ids=["bench-create", "run"]
)
def test_invalid_requests_is_config_error(tmp_path, command):
    assert main([*command, "--requests", "0", "--out", str(tmp_path)]) == 2


def test_bad_scenario_content_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("scenario: {name: broken}\n")
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_a_scenario_section_of_the_wrong_type_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(MINIMAL.replace("cloud: {create: 1.0}", "cloud: 5"))
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "must be a mapping" in capsys.readouterr().err


@pytest.mark.parametrize("before, after", [
    ("target: IN-CSE/Things/Box/values", "target: 5"),
    ("tasks:", "catalogue: {pre_seeded: \"no\"}\ntasks:"),
], ids=["target-number", "pre-seeded-string"])
def test_a_scenario_scalar_of_the_wrong_type_is_a_config_error(tmp_path, capsys, before, after):
    bad = tmp_path / "bad.yaml"
    bad.write_text(MINIMAL.replace(before, after))
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "must be a " in capsys.readouterr().err


def test_a_misspelt_scenario_key_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(MINIMAL.replace("seed: 1", "sede: 1"))
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "scenario.sede" in capsys.readouterr().err


@pytest.mark.parametrize("capacity, error", [
    ("0", "error: capacity_bytes must be positive"),
    ("300000000", "error: service preparation failed: 4000 'edge0' cannot reserve 256000000 more bytes"),
], ids=["zero", "below-the-slice"])
def test_a_capacity_that_cannot_hold_the_slice_is_a_config_error_naming_its_cause(tmp_path, capsys,
                                                                                   capacity, error):
    bad = tmp_path / "bad.yaml"
    text = calibrated_text()
    assert "capacity_bytes: 4000000000" in text
    bad.write_text(text.replace("capacity_bytes: 4000000000", f"capacity_bytes: {capacity}"))
    assert main(["run", str(bad), "--requests", "3", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.strip() == error


def test_topology_override_flag(tmp_path):
    topo = tmp_path / "topo.yaml"
    topo.write_text(
        "nodes:\n"
        "  - {id: dev0, role: device}\n"
        "  - {id: edge0, role: edge}\n"
        "  - {id: cloud, role: cloud}\n"
        "links:\n"
        "  - {a: dev0, b: edge0, delay_ms: 2.0, bandwidth_bytes_per_s: 100e6}\n"
        "  - {a: edge0, b: cloud, delay_ms: 2.4, bandwidth_bytes_per_s: 100e6}\n"
    )
    out = tmp_path / "o"
    assert main(
        ["bench-create", "--mode", "edge", "--requests", "2", "--out", str(out),
         "--topology", str(topo)]
    ) == 0
    body = read(out / "samples.csv").decode()
    # doubled device-edge delay: rtt = 2*2.0 + 2*0.004 + 4.092 = 8.1
    assert ",8.100000" in body


def test_seed_must_fit_in_64_bits():
    with pytest.raises(SystemExit):
        main(["bench-create", "--seed", str(2**64)])
