import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from okstab.cli import _random_heights, build_parser, dispatch
from okstab.energy import el_residual, energy, volume_corrected_perturbation
from okstab.shapes import (Droplet, Lamella, alpha_distance, boundary_mesh, graph_alpha,
                           lamella, rasterize, save_shape)
from okstab.torus import make_grid

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")
# each README command's CSV, as written when the file was made; a change
# that moves one regenerates it and says why
GOLDEN = Path(__file__).parent / "golden"


def _readme_commands():
    with open(README) as fh:
        block = fh.read().split("## CLI", 1)[1].split("```")[1]
    return [line.split()[1:] for line in block.splitlines()
            if line.startswith("okstab ")]


def _run(tmp_path, argv, name="out.csv"):
    out = os.path.join(str(tmp_path), name)
    rc = dispatch(argv + ["--out", out])
    return rc, out


def test_energy_row(tmp_path):
    rc, out = _run(tmp_path, ["energy", "--shape", "lamella", "--k", "1",
                              "--m", "0.0", "--gamma", "1.0"])
    assert rc == 0
    lines = [l for l in Path(out).read_text().splitlines()
             if not l.startswith("#")]
    header, row = lines[0].strip(), lines[1].strip().split(",")
    assert header == "m,gamma,k,perimeter,nonlocal,total"
    assert float(row[3]) == 2.0
    assert abs(float(row[5]) - (2.0 + 1.0 / 48.0)) < 1e-6


def test_provenance_and_determinism(tmp_path):
    argv = ["threshold", "--mode", "gamma", "--m", "0.0", "--k", "1"]
    rc1, out1 = _run(tmp_path, argv, "a.csv")
    rc2, out2 = _run(tmp_path, argv, "b.csv")
    assert rc1 == rc2 == 0
    b1, b2 = Path(out1).read_bytes(), Path(out2).read_bytes()
    assert b1 == b2  # byte-identical reruns
    text = b1.decode()
    assert text.startswith("# okstab ")
    assert "# m=0.0" in text and "# k=1" in text
    val = float(text.strip().splitlines()[-1].split(",")[-1])
    assert abs(val - 94.87206216585848) < 2e-6


def test_config_file_merge(tmp_path):
    cfg = os.path.join(str(tmp_path), "run.cfg")
    with open(cfg, "w") as fh:
        fh.write("# comment\nmode=gamma\nm=0.0\nk=1\n")
    rc, out = _run(tmp_path, ["threshold", "--config", cfg, "--mode", "gamma",
                              "--m", "0.0"])
    assert rc == 0
    # values from the file are type-coerced (k=1 as int)
    assert "# k=1" in Path(out).read_text()


def test_config_value_applies_unless_flag_given(tmp_path):
    cfg = os.path.join(str(tmp_path), "run.cfg")
    with open(cfg, "w") as fh:
        fh.write("k=3\ngamma=2.5\n")
    rc, out = _run(tmp_path, ["energy", "--shape", "lamella",
                              "--config", cfg])
    assert rc == 0
    text = Path(out).read_text()
    assert "# k=3\n" in text and "# gamma=2.5\n" in text
    rc, out = _run(tmp_path, ["energy", "--shape", "lamella",
                              "--config", cfg, "--k", "2"], "b.csv")
    assert rc == 0
    text = Path(out).read_text()
    assert "# k=2\n" in text and "# gamma=2.5\n" in text


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = os.path.join(str(tmp_path), "bad.cfg")
    # `gam` is no option, although argparse would take --gam for --gamma
    for line, named in (("bogus_key=3", "bogus"), ("gam=3", "'gam'")):
        with open(cfg, "w") as fh:
            fh.write(f"mode=gamma\nm=0.0\n{line}\n")
        rc = dispatch(["threshold", "--config", cfg, "--mode", "gamma",
                       "--m", "0.0"])
        assert rc == 1
        assert named in capsys.readouterr().err


@pytest.mark.parametrize("argv,key,val", [
    (["perturb-test", "--gamma", "40", "--trials", "2"], "grid", "128"),
    (["energy", "--shape", "lamella"], "dim", "2"),
    (["criticality", "--shape", "droplet"], "dim", "2"),
])
@pytest.mark.parametrize("where", ["flag", "config"])
def test_retired_options_are_rejected(tmp_path, capsys, argv, key, val, where):
    # perturb-test takes alpha from the heights, on no grid; a droplet's
    # dimension is the length of --center, and a lamella's energy has none
    cfg = os.path.join(str(tmp_path), "run.cfg")
    with open(cfg, "w") as fh:
        fh.write(f"{key}={val}\n")
    extra = [f"--{key}", val] if where == "flag" else ["--config", cfg]
    assert dispatch(argv + extra + ["--out", str(tmp_path / "out.csv")]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("where", ["config", "out"])
def test_missing_file_is_one_error_line(tmp_path, capsys, where):
    missing = os.path.join(str(tmp_path), "nodir", "run.cfg")
    argv = ["threshold", "--mode", "gamma", "--m", "0.0", f"--{where}", missing]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert missing in err


def test_config_supplies_required_options(tmp_path):
    cfg = os.path.join(str(tmp_path), "run.cfg")
    with open(cfg, "w") as fh:
        fh.write("mode=gamma\nm=0.0\nk=1\n")
    rc, out = _run(tmp_path, ["threshold", "--config", cfg])
    assert rc == 0
    text = Path(out).read_text()
    assert "# mode=gamma\n" in text and "# m=0.0\n" in text
    assert abs(float(text.strip().splitlines()[-1].split(",")[-1])
               - 94.87206216585848) < 2e-6


def test_threshold_past_the_caps(tmp_path, capsys):
    # gamma_c past 1e6 is a number, not "stable"
    rc, out = _run(tmp_path, ["threshold", "--mode", "gamma", "--m", "0.0", "--k", "40"])
    assert rc == 0
    assert Path(out).read_text().splitlines()[-1] == "0.0,40,gamma_c,3073894.950130379"
    # at gamma = 1e9 no k <= 200 is stable (k0 = 276): one error line naming the
    # k_max = 200 cap and gamma_c(0, 200), where the k = 200 lamella turns unstable
    out = str(tmp_path / "k.csv")
    assert dispatch(["threshold", "--mode", "k", "--m", "0.0", "--gamma", "1e9",
                     "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "k_max = 200" in err and "gamma_c(m, 200) = 384009474.8174" in err
    assert not os.path.exists(out)


def test_bad_shape_option_is_one_error_line(capsys):
    assert dispatch(["energy", "--shape", "droplet", "--center", "abc"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "'center'" in err[0]


@pytest.mark.parametrize("argv", _readme_commands(), ids=lambda a: " ".join(a[:3]))
def test_readme_example_echoes_every_option(argv, tmp_path, monkeypatch):
    # ... and writes its CSV byte for byte as tests/golden/<n>-<subcommand>.csv
    monkeypatch.chdir(tmp_path)
    save_shape(Droplet((0.3, 0.4), 0.2), "a.shape")
    save_shape(Droplet((0.6, 0.5), 0.22), "b.shape")
    assert dispatch(argv + ["--out", "out.csv"]) == 0
    golden = GOLDEN / f"{_readme_commands().index(argv)}-{argv[0]}.csv"
    assert Path("out.csv").read_bytes() == golden.read_bytes(), golden.name
    with open("out.csv") as fh:
        echoed = {line[2:].rstrip("\n") for line in fh if line.startswith("# ")}
    options = vars(build_parser().parse_args(argv))
    for key in ("command", "func", "out", "config"):
        del options[key]
    assert {f"{k}={v}" for k, v in options.items() if v is not None} <= echoed


def test_readme_commands_load_no_scipy(tmp_path):
    # every README command, run in one process, loads numpy alone
    import okstab
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(okstab.__file__)))
    code = textwrap.dedent("""
        import json, sys
        import okstab.cli
        from okstab.shapes import Droplet, save_shape
        save_shape(Droplet((0.3, 0.4), 0.2), "a.shape")
        save_shape(Droplet((0.6, 0.5), 0.22), "b.shape")
        for i, argv in enumerate(json.loads(sys.argv[1])):
            assert okstab.cli.dispatch(argv + ["--out", f"{i}.csv"]) == 0, argv
        print([m for m in sys.modules if m == "scipy" or m.startswith("scipy.")])
    """)
    commands = _readme_commands()
    assert commands
    out = subprocess.run([sys.executable, "-c", code, json.dumps(commands)],
                         capture_output=True, text=True, check=True, env=env,
                         cwd=str(tmp_path)).stdout
    assert out.strip() == "[]"
    assert len(list(tmp_path.glob("*.csv"))) == len(commands)


_FLOW = ["flow", "--epsilon", "0.0625", "--grid", "16", "--steps", "2"]
_PERTURB = ["perturb-test", "--gamma", "40", "--trials", "2"]


@pytest.mark.parametrize("argv,named", [
    (["fd-check", "--gamma", "1", "--t", "0"], "t must"),
    (["fd-check", "--gamma", "1", "--t", "-0.01"], "t must"),
    (["fd-check", "--gamma", "1", "--t", "nan"], "t must"),
    (["perturb-test", "--gamma", "40", "--trials", "2", "--modes", "0"], "--modes"),
    (["perturb-test", "--gamma", "40", "--trials", "0"], "--trials"),
    (["stability-scan", "--m", "0", "--gamma", "5", "--k-min", "5", "--k-max", "3"],
     "--k-min (5) exceeds --k-max (3)"),
    (["stability-scan", "--m", "0", "--gamma", "5", "--k-min", "0"],
     "--k-min must be >= 1, got 0"),
    (_FLOW + ["--stride", "0"], "--stride"),
    (_FLOW + ["--noise", "-0.01"], "--noise"),
    (_FLOW + ["--noise", "nan"], "--noise"),
    (_FLOW + ["--steps", "-5"], "max_steps"),
    (_FLOW + ["--dt", "nan"], "dt must"),
    (["flow", "--epsilon", "inf", "--grid", "16"], "epsilon must"),
    (_FLOW + ["--stop-tol", "-1"], "--stop-tol"),
    (_FLOW + ["--stop-tol", "nan"], "--stop-tol"),
    (_PERTURB + ["--amplitude", "0"], "--amplitude"),
    (_PERTURB + ["--amplitude", "-0.1"], "--amplitude"),
    (_PERTURB + ["--amplitude", "nan"], "--amplitude"),
    (_PERTURB + ["--amplitude", "inf"], "--amplitude"),
    (_PERTURB + ["--amplitude", "0.44"], "--amplitude 0.44: perturbation too large"),
    (["fd-check", "--gamma", "1", "--t", "0.3"], "--t 0.3: perturbation too large"),
    (["criticality", "--shape", "droplet", "--gamma", "nan"], "gamma must"),
    (["energy", "--shape", "lamella", "--gamma", "nan"], "gamma must"),
    (["energy", "--shape", "lamella", "--gamma", "inf"], "gamma must"),
    (["energy", "--shape", "lamella", "--gamma", "-1"],
     "gamma must be finite and nonnegative, got -1.0"),
    (["fd-check", "--gamma", "nan"], "gamma must"),
    (["fd-check", "--gamma", "1", "--interface", "5"], "--interface must lie in 0..1"),
    (["fd-check", "--gamma", "1", "--interface", "-1"], "--interface must lie in 0..1"),
    (["fd-check", "--gamma", "1", "--q", "40"], "--q must lie in 1..32"),
    (["fd-check", "--gamma", "1", "--q", "0"], "--q must lie in 1..32"),
    (["fd-check", "--gamma", "1", "--q", "-1"], "--q must lie in 1..32"),
    (["criticality", "--shape", "lamella", "--gamma", "1", "--grid", "64"], "--grid"),
    (["criticality", "--shape", "droplet", "--gamma", "0", "--grid", "64"], "--grid"),
    (["energy", "--shape", "droplet", "--grid", "0", "--gamma", "1"], "grid size 0"),
    (["energy", "--shape", "lamella", "--radius", "0.3"], "--radius"),
    (["criticality", "--shape", "lamella", "--center", "0.1,0.1"], "--center"),
    (["energy", "--shape", "droplet", "--m", "0.5"], "--m"),
    (["criticality", "--shape", "droplet", "--k", "2"], "--k"),
    (["energy", "--shape", "lamella", "--grid", "64", "--gamma", "1"], "--grid"),
    (["threshold", "--mode", "gamma", "--m", "0", "--gamma", "5"], "--gamma"),
    (["threshold", "--mode", "k", "--m", "0", "--k", "2"], "--k"),
    (["energy", "--shape", "droplet", "--center", "nan,0.5", "--gamma", "1"], "center"),
    (["criticality", "--shape", "droplet", "--center", "inf,0.5", "--gamma", "1"],
     "center"),
], ids=["t=0", "t<0", "t=nan", "modes=0", "trials=0", "k-min>k-max", "k-min=0",
        "stride=0", "noise<0", "noise=nan", "steps<0", "dt=nan", "epsilon=inf",
        "stop-tol<0", "stop-tol=nan", "amplitude=0", "amplitude<0", "amplitude=nan",
        "amplitude=inf", "amplitude-too-large", "t-too-large",
        "criticality-gamma=nan", "energy-gamma=nan", "energy-gamma=inf", "energy-gamma<0",
        "fd-check-gamma=nan", "fd-check-interface=5", "fd-check-interface<0",
        "fd-check-q=40", "fd-check-q=0", "fd-check-q<0", "criticality-lamella-grid",
        "criticality-gamma0-grid",
        "energy-grid=0", "lamella-radius", "lamella-center", "droplet-m", "droplet-k",
        "energy-lamella-grid", "threshold-gamma-mode-gamma", "threshold-k-mode-k",
        "center=nan", "center=inf"])
def test_bad_step_count_or_range_is_one_error_line(tmp_path, capsys, argv, named):
    out = os.path.join(str(tmp_path), "out.csv")
    assert dispatch(argv + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert not os.path.exists(out)


def test_flow_seed_only_with_noise(tmp_path, capsys):
    # --seed without --noise is one error line naming it; with noise it
    # defaults to 0 and is echoed, and a given seed reaches the noise
    out = os.path.join(str(tmp_path), "out.csv")
    assert dispatch(_FLOW + ["--seed", "7", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err == "error: --seed has no use without --noise; drop it\n"
    assert not os.path.exists(out)
    rc, out = _run(tmp_path, _FLOW, "quiet.csv")
    assert rc == 0 and "# seed=" not in Path(out).read_text()
    texts = []
    for seed in ([], ["--seed", "0"], ["--seed", "7"]):
        rc, out = _run(tmp_path, _FLOW + ["--noise", "0.01"] + seed, f"{len(texts)}.csv")
        assert rc == 0
        texts.append(Path(out).read_text())
    assert "# seed=0\n" in texts[0] and texts[0] == texts[1]
    rows = [[l for l in t.splitlines() if not l.startswith("#")] for t in texts]
    assert "# seed=7\n" in texts[2] and rows[2] != rows[0]


def test_droplet_energy_row_leaves_m_and_k_empty(tmp_path):
    rc, out = _run(tmp_path, ["energy", "--shape", "droplet", "--gamma", "1",
                              "--grid", "32"])
    assert rc == 0
    text = Path(out).read_text()
    assert "# grid=32\n" in text and "# k=" not in text and "# m=" not in text
    row = text.splitlines()[-1].split(",")
    assert row[0] == row[2] == ""
    want = energy(Droplet((0.5, 0.5), 0.25), 1.0, make_grid(2, (32, 32)))
    assert float(row[4]) == want.nonlocal_term


def test_one_dimensional_droplet_energy_row_has_a_two_point_perimeter(tmp_path):
    rc, out = _run(tmp_path, ["energy", "--shape", "droplet", "--center", "0.5",
                              "--radius", "0.2", "--gamma", "1.0"])
    assert rc == 0
    row = Path(out).read_text().splitlines()[-1].split(",")
    strip = energy(Lamella(k=1, m=4 * 0.2 - 1, axis=0, dim=1), 1.0)
    assert float(row[3]) == strip.perimeter == 2.0


def test_criticality_grid_sets_the_raster(tmp_path):
    rc, out = _run(tmp_path, ["criticality", "--shape", "droplet", "--gamma", "2",
                              "--grid", "32", "--n-points", "64"])
    assert rc == 0
    text = Path(out).read_text()
    assert "# grid=32\n" in text
    got = float(text.splitlines()[-2].split(",")[1])
    want = el_residual(boundary_mesh(Droplet((0.5, 0.5), 0.25), 64), 2.0,
                       make_grid(2, (32, 32))).lam
    assert got == want


def test_alpha_matches_library(tmp_path):
    pa = os.path.join(str(tmp_path), "a.shape")
    pb = os.path.join(str(tmp_path), "b.shape")
    save_shape(lamella(1, 0.0), pa)
    save_shape(lamella(2, 0.2), pb)
    rc, out = _run(tmp_path, ["alpha", "--a", pa, "--b", pb, "--grid", "64"])
    assert rc == 0
    row = [l for l in Path(out).read_text().splitlines()
           if not l.startswith(("#", "alpha"))][0]
    got = float(row.split(",")[0])
    g = make_grid(2, (64, 64))
    want, _ = alpha_distance(rasterize(lamella(1, 0.0), g),
                             rasterize(lamella(2, 0.2), g))
    assert got == want


def test_alpha_malformed_shape_file(tmp_path, capsys):
    pa = os.path.join(str(tmp_path), "a.shape")
    pb = os.path.join(str(tmp_path), "b.shape")
    save_shape(lamella(1, 0.0), pa)
    with open(pb, "w") as fh:
        fh.write("kind=droplet\ncenter=0.5,0.5\nradius 0.2\n")
    assert dispatch(["alpha", "--a", pa, "--b", pb, "--grid", "32"]) == 1
    assert "'radius 0.2'" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["kind=droplet\ncenter=0.5,0.5\n",
                                  "kind=droplet\ncenter=0.5,0.5\nradius=abc\n"])
def test_alpha_shape_file_missing_or_bad_key(tmp_path, capsys, text):
    pa = os.path.join(str(tmp_path), "a.shape")
    pb = os.path.join(str(tmp_path), "b.shape")
    save_shape(lamella(1, 0.0), pa)
    with open(pb, "w") as fh:
        fh.write(text)
    assert dispatch(["alpha", "--a", pa, "--b", pb, "--grid", "32"]) == 1
    assert "'radius'" in capsys.readouterr().err


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the thread count from /proc")
def test_thread_cap_applies_at_import():
    import okstab
    env = {k: v for k, v in os.environ.items()
           if k not in okstab.config.THREAD_VARS}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(okstab.__file__))
    code = ("import okstab; print([l.split()[1] for l in open('/proc/self/status')"
            " if l.startswith('Threads:')][0])")

    def run(cap):
        return subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=dict(env, OKSTAB_THREADS=cap))
    assert run("1").stdout.strip() == "1"
    bad = run("two")
    assert bad.returncode == 1 and "OKSTAB_THREADS" in bad.stderr


def test_bad_thread_cap_is_one_error_line_at_the_cli(tmp_path):
    # both CLI entry points report an invalid OKSTAB_THREADS as one line;
    # a plain import still raises the ValidationError
    import okstab
    env = dict(os.environ, OKSTAB_THREADS="abc",
               PYTHONPATH=os.path.dirname(os.path.dirname(okstab.__file__)))
    script = tmp_path / "okstab"     # what the installed console script runs
    script.write_text("import sys\nfrom okstab.cli import main\n"
                      "if __name__ == '__main__':\n    sys.exit(main())\n")
    args = ["energy", "--shape", "lamella", "--k", "1", "--m", "0", "--gamma", "1"]
    for cmd in ([sys.executable, "-m", "okstab.cli"], [sys.executable, str(script)]):
        out = subprocess.run(cmd + args, capture_output=True, text=True, env=env)
        assert out.returncode == 1 and out.stdout == ""
        assert out.stderr.splitlines() == [
            "error: OKSTAB_THREADS must be a positive integer, got 'abc'"]
    code = ("import sys\ntry:\n    import okstab\nexcept ValueError as exc:\n"
            "    print(type(exc).__module__, type(exc).__name__)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env)
    assert out.stdout.split() == ["okstab.config", "ValidationError"]


def test_library_runs_without_scipy():
    # the indicator-field energy (marching squares and the spectral solve),
    # the droplet Euler-Lagrange residual (trigonometric interpolation), the
    # constrained eigensolve and the strip/disc crossing are numpy alone;
    # scipy is a test oracle only
    import okstab
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(okstab.__file__)))
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from okstab import (Droplet, assemble_boundary_form, boundary_mesh,
                            constrained_min_eig, el_residual, make_grid,
                            rasterize, strip_disc_crossing)
        from okstab.energy import energy
        g = make_grid(2, (32, 32))
        energy(rasterize(Droplet((0.5, 0.5), 0.2), g), 1.0)
        mesh = boundary_mesh(Droplet((0.5, 0.5), 0.25), 64)
        el_residual(mesh, 1.0, g)
        form = assemble_boundary_form(mesh, 1.0)
        constrained_min_eig(form)
        strip_disc_crossing()
        print([m for m in sys.modules if m == "scipy" or m.startswith("scipy.")])
    """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "[]"


def test_iso_compare_flags_minimum(tmp_path):
    rc, out = _run(tmp_path, ["iso-compare", "--m", "-0.95", "--dim", "2"])
    assert rc == 0
    rows = [l.strip().split(",") for l in Path(out).read_text().splitlines()
            if not l.startswith(("#", "candidate"))]
    flagged = [r[0] for r in rows if r[-1] == "min"]
    assert flagged == ["disc"]


def test_flow_history(tmp_path):
    rc, out = _run(tmp_path, ["flow", "--epsilon", "0.0625", "--grid", "32",
                              "--dt", "1e-3", "--steps", "20"])
    assert rc == 0
    rows = [l.strip().split(",") for l in Path(out).read_text().splitlines()
            if not l.startswith(("#", "step"))]
    es = [float(r[2]) for r in rows]
    assert len(es) == 21
    assert all(b <= a * (1 + 1e-12) + 1e-12 for a, b in zip(es, es[1:]))


def test_exit_codes():
    assert dispatch([]) == 1
    assert dispatch(["no-such-command"]) == 1
    # m outside (-1, 1) is a validation error
    assert dispatch(["energy", "--shape", "lamella", "--m", "1.5"]) == 1
    assert dispatch(["energy", "--shape", "lamella"]) in (0,)


def test_stability_scan(tmp_path):
    rc, out = _run(tmp_path, ["stability-scan", "--m", "0.0", "--gamma",
                              "10.0", "--k-max", "3"])
    assert rc == 0
    rows = [l.strip().split(",") for l in Path(out).read_text().splitlines()
            if not l.startswith(("#", "k,"))]
    assert [int(r[0]) for r in rows] == [1, 2, 3]
    assert all(float(r[3]) > 0 for r in rows)  # gamma below threshold


def test_fd_check_output(tmp_path):
    rc, out = _run(tmp_path, ["fd-check", "--gamma", "1.0", "--q", "1"])
    assert rc == 0
    text = Path(out).read_text()
    ratio = [l for l in text.splitlines() if l.startswith("ratio,")][0]
    assert abs(float(ratio.split(",")[1]) - 1.0) < 0.01


def test_perturb_test_rows_take_alpha_from_the_heights(tmp_path):
    argv = ["perturb-test", "--gamma", "40", "--k", "2", "--m", "0.3", "--trials", "3",
            "--seed", "5", "--modes", "3"]
    rc, out = _run(tmp_path, argv)
    assert rc == 0
    rows = [l.split(",") for l in Path(out).read_text().splitlines()
            if not l.startswith("#")][1:]
    base = lamella(2, 0.3)
    rng = np.random.default_rng(5)
    for trial, (idx, excess, alpha, ratio) in enumerate(rows[:-1]):
        psi = _random_heights(rng, 4, 12, 3, 0.25 * base.interface_gap)
        gp = volume_corrected_perturbation(base, psi)
        assert int(idx) == trial and float(alpha) == graph_alpha(gp)
        assert float(ratio) == float(excess) / float(alpha) ** 2
    assert rows[-1] == ["min", "", "", str(min(float(r[3]) for r in rows[:-1]))]
