import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import invdist
from invdist.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# `invdist dist` on the README's twelve domain documents x {carath, lempert,
# bergman}: exit code, stdout and stderr, recorded before the domain classes
# took over their charts, JSON writers and samplers
DIST_REPORTS = json.loads(
    (Path(__file__).with_name("data") / "dist_reports.json").read_text())


def _numeric(case):
    """Whether a case's value comes from numpy's array loops (a Riemann map,
    or the annulus Bergman geodesic), whose rounding differs per host."""
    kind = json.loads(case["domain"])["kind"]
    return kind in ("hull", "jordan") or (kind, case["kind"]) == ("annulus", "bergman")


@pytest.mark.parametrize("case", DIST_REPORTS,
                         ids=[f"{c['domain']}-{c['kind']}" for c in DIST_REPORTS])
def test_dist_reports_are_pinned(capsys, case):
    # closed forms and the annulus series / covering: the same bytes; the
    # numeric values: within 1e-12 of the distance
    code, out, err = run(capsys, "dist", "--domain", case["domain"], "--kind", case["kind"],
                         "--z", case["z"], "--w", case["w"])
    assert (code, err) == (case["exit"], case["stderr"])
    if not _numeric(case):
        assert out == case["stdout"]
        return
    got, want = json.loads(out), json.loads(case["stdout"])
    scale = want["value"]["hi"]
    for doc, ref in ((got, want), (got["value"], want["value"])):
        assert doc.keys() == ref.keys()
        for key, x in ref.items():
            if isinstance(x, float):
                assert doc[key] == pytest.approx(x, rel=1e-12, abs=1e-12 * scale), key
            elif key != "value":
                assert doc[key] == x, key


class TestDist:
    def test_disc_caratheodory(self, capsys):
        code, out, _ = run(capsys, "dist", "--domain", '{"kind":"disc"}',
                           "--kind", "carath", "--z", "0+0i", "--w", "0.5+0i")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["value"]["lo"] == pytest.approx(math.atanh(0.5), abs=1e-12)
        assert doc["value"]["scale"] == "atanh"
        assert doc["d_z"] == 1.0
        assert doc["d_w"] == 0.5

    def test_annulus_coincident(self, capsys):
        code, out, _ = run(capsys, "dist", "--domain", '{"kind":"annulus","r":2}',
                           "--kind", "lempert", "--z", "1+0i", "--w", "1+0i")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["value"]["lo"]) < 1e-9

    def test_disc_bergman(self, capsys):
        code, out, _ = run(capsys, "dist", "--domain", '{"kind":"disc"}',
                           "--kind", "bergman", "--z", "0+0i", "--w", "0.5+0i")
        assert code == 0
        doc = json.loads(out)
        assert doc["value"]["lo"] == pytest.approx(math.sqrt(2) * math.atanh(0.5), abs=1e-9)

    def test_narrow_sector(self, capsys):
        code, out, _ = run(capsys, "dist", "--domain", '{"kind":"sector","theta":0.001}',
                           "--kind", "carath", "--z", "0.5+0i", "--w", "0.6+0i")
        assert code == 0
        want = math.pi / 0.004 * math.log(1.2)
        assert json.loads(out)["value"]["lo"] == pytest.approx(want, rel=1e-12)

    def test_ball_vector_points(self, capsys):
        code, out, _ = run(capsys, "dist", "--domain", '{"kind":"ball","dim":2,"radius":1.0}',
                           "--kind", "carath", "--z", '["0+0i","0+0i"]',
                           "--w", '["0.5+0i","0+0i"]')
        assert code == 0
        doc = json.loads(out)
        assert doc["value"]["lo"] == pytest.approx(math.atanh(0.5), abs=1e-10)

    @pytest.mark.parametrize("domain, z", [
        ('{"kind":"disc"}', '["0+0i"]'),                        # vector on a planar domain
        ('{"kind":"ball","dim":2,"radius":1.0}', '["0+0i"]'),   # too short
        ('{"kind":"ball","dim":2,"radius":1.0}', '["0+0i","0+0i","0+0i"]'),
        ('{"kind":"polydisc","radii":[1.0,2.0]}', '["0+0i"]'),
        ('{"kind":"ball","dim":2,"radius":1.0}', '["0+0i",["0+0i"]]'),
    ])
    def test_point_of_the_wrong_shape_exit_2(self, capsys, domain, z):
        code, out, err = run(capsys, "dist", "--domain", domain, "--kind", "carath",
                             "--z", z, "--w", z)
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    @pytest.mark.parametrize("domain, z", [
        ('{"kind":"hull","z":"0+0i","d_z":"nan","w":"2.5+0i","d_w":0.7}', "0+0i"),
        ('{"kind":"hull","z":"0+0i","d_z":"inf","w":"2.5+0i","d_w":0.7}', "0+0i"),
        ('{"kind":"jordan","curve":"ellipse","a":"inf","b":1.0}', "0+0i"),
        ('{"kind":"jordan","curve":"wobbly","seed":"x"}', "0+0i"),
        ('{"kind":"annulus","r":Infinity}', "1+0i"),
        ('{"kind":"disc","radius":"inf"}', "0+0i"),
        ('{"kind":"disc","center":NaN}', "0+0i"),
        ('{"kind":"ball","dim":2,"radius":NaN}', '["0+0i","0+0i"]'),
        ('{"kind":"ball","dim":"nan","radius":1.0}', '["0+0i","0+0i"]'),
        ('{"kind":"ball","dim":0,"radius":1.0}', "[]"),
        ('{"kind":"polydisc","radii":[NaN]}', '["0+0i"]'),
        ('{"kind":"polydisc","radii":[1.0,"inf"]}', '["0+0i","0+0i"]'),
        ('{"kind":"polydisc","radii":[]}', "[]"),
        ('{"kind":"polydisc","radii":2.0}', '["0+0i"]'),
        ('{"kind":"ball","dim":100000000,"radius":1.0}', '["0+0i","0+0i"]'),
        ('{"kind":"ball","dim":4097,"radius":1.0}', '["0+0i","0+0i"]'),
        ('{"kind":"ball","dim":2.5,"radius":1.0}', '["0+0i","0+0i"]'),
        ('{"kind":"polydisc","radii":[%s]}' % ",".join(["1.0"] * 4097), '["0+0i"]'),
        ('{"kind":"jordan","curve":"wobbly","seed":7.9}', "0+0i"),
        ('{"kind":"jordan","curve":"wobbly","seed":-1}', "0+0i"),
    ])
    def test_bad_domain_parameter_exit_2(self, capsys, domain, z):
        # the document is refused, whatever the points
        code, out, err = run(capsys, "dist", "--domain", domain, "--kind", "carath",
                             "--z", z, "--w", z)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "inside" not in err

    @pytest.mark.parametrize("domain, z", [
        ('{"kind":"disc","radius":true,"center":true}', "0+0i"),
        ('{"kind":"halfplane","normal":true}', "1+0i"),
        ('{"kind":"ball","dim":true,"radius":1}', '["0+0i"]'),
        ('{"kind":"jordan","curve":"wobbly","seed":false}', "0+0i"),
        ('{"kind":"polydisc","radii":[true,true]}', '["0+0i","0+0i"]'),
        ('{"kind":"ball","dim":2,"radius":1}', '["0+0i",false]'),
    ])
    def test_boolean_for_a_number_exit_2(self, capsys, domain, z):
        # JSON's true and false are not the numbers 1 and 0
        code, out, err = run(capsys, "dist", "--domain", domain, "--kind", "carath",
                             "--z", z, "--w", z)
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "dist", "--domain", '{"kind":"disc"}',
                           "--kind", "carath", "--z", "zebra", "--w", "0+0i")
        assert code == 2
        assert "error" in err

    def test_unknown_field_exit_2(self, capsys):
        code, _, _ = run(capsys, "dist", "--domain", '{"kind":"disc","x":1}',
                         "--kind", "carath", "--z", "0+0i", "--w", "0.5+0i")
        assert code == 2

    def test_unsupported_exit_3(self, capsys):
        code, _, _ = run(capsys, "dist", "--domain", '{"kind":"ball","dim":2,"radius":1.0}',
                         "--kind", "bergman", "--z", '["0+0i","0+0i"]',
                         "--w", '["0.5+0i","0+0i"]')
        assert code == 3

    def test_exterior_point_exit_2(self, capsys):
        code, _, _ = run(capsys, "dist", "--domain", '{"kind":"disc"}',
                         "--kind", "carath", "--z", "0+0i", "--w", "2+0i")
        assert code == 2

    def test_negative_real_part_after_a_space(self, capsys):
        code, out, _ = run(capsys, "dist", "--domain", '{"kind":"disc"}',
                           "--kind", "carath", "--z", "0.5+0i", "--w", "-0.5+0i")
        assert code == 0
        assert json.loads(out)["value"]["lo"] == pytest.approx(math.atanh(0.8), abs=1e-12)
        _, out_eq, _ = run(capsys, "dist", "--domain", '{"kind":"disc"}',
                           "--kind", "carath", "--z=0.5+0i", "--w=-0.5+0i")
        assert out_eq == out

    def test_non_finite_value_exit_4(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, err = run(capsys, "dist", "--domain", '{"kind":"annulus","r":1.005}',
                             "--kind", "lempert", "--z", "1+0i", "--w", "-1+0i",
                             "--out", str(path))
        assert code == 4
        assert "non-convergence" in err
        assert out == ""
        assert not path.exists()

    def test_thin_annulus_carath_exit_4(self, capsys):
        # the A_1.0001 theta products overflow, so the engine gives an
        # interval whose upper end, the covering distance, is inf
        code, out, err = run(capsys, "dist", "--domain", '{"kind":"annulus","r":1.0001}',
                             "--kind", "carath", "--z", "1+0i", "--w", "0+1i")
        assert code == 4
        assert err.startswith("non-convergence: ") and "hi=inf" in err
        assert "Traceback" not in err and out == ""

    def test_complex_needs_trailing_i(self, capsys):
        code, _, _ = run(capsys, "dist", "--domain", '{"kind":"disc"}',
                         "--kind", "carath", "--z", "0.5", "--w", "0+0i")
        assert code == 2


class TestVerify:
    def test_remark_a_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "remark-a", "--samples", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert abs(doc["constants"]["final_ratio"] - math.pi / 4) < 0.02

    def test_prop2_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "prop2",
                           "--samples", "100", "--seed", "7")
        assert code == 0

    def test_prop6_disc_domain_flag(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "prop6",
                           "--samples", "60", "--seed", "7",
                           "--domain", '{"kind":"disc"}')
        assert code == 0
        doc = json.loads(out)
        assert math.isfinite(doc["constants"]["c"])

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run(capsys, "verify", "--suite", "prop4", "--samples", "30", "--seed", "9")
        _, out2, _ = run(capsys, "verify", "--suite", "prop4", "--samples", "30", "--seed", "9")
        assert out1 == out2

    def test_negative_tolerance_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "prop4", "--tol", "-1")
        assert code == 2

    @pytest.mark.parametrize("suite", ["remark-a", "remark-b", "prop7"])
    def test_report_states_its_seed(self, capsys, suite):
        code, out, _ = run(capsys, "verify", "--suite", suite, "--samples", "8",
                           "--seed", "7")
        assert code == 0
        assert json.loads(out)["seed"] == 7

    def test_timing_adds_runtime(self, capsys):
        args = ("verify", "--suite", "remark-b", "--samples", "5")
        _, plain, _ = run(capsys, *args)
        code, timed, _ = run(capsys, *args, "--timing")
        assert code == 0
        doc = json.loads(timed)
        assert "runtime_seconds" not in json.loads(plain)
        assert doc.pop("runtime_seconds") > 0
        assert doc == json.loads(plain)

    def test_unknown_suite_exit_2(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "prop99")
        assert code == 2

    @pytest.mark.parametrize("suite", ["eq-le", "prop4", "comp", "annulus"])
    def test_zero_samples_exit_2(self, capsys, suite):
        code, out, err = run(capsys, "verify", "--suite", suite, "--samples", "0")
        assert code == 2
        assert "samples" in err
        assert out == ""

    @pytest.mark.parametrize("suite", ["prop5", "boundary-slope"])
    def test_fixed_size_suite_rejects_samples_exit_2(self, capsys, suite):
        code, out, err = run(capsys, "verify", "--suite", suite, "--samples", "20")
        assert code == 2
        assert "fixed size" in err
        assert out == ""

    @pytest.mark.parametrize("suite, floor", [("remark-a", 5), ("remark-b", 5), ("prop7", 8)])
    def test_samples_below_floor_exit_2(self, capsys, suite, floor):
        code, out, err = run(capsys, "verify", "--suite", suite, "--samples", str(floor - 1))
        assert code == 2
        assert f"at least {floor} samples" in err
        assert out == ""

    @pytest.mark.parametrize("suite, domain", [
        ("eq-le", '{"kind":"disc"}'),
        ("prop4", '{"kind":"sector","theta":0.7}'),
        ("prop6", '{"kind":"annulus","r":2.0}'),
        ("boundary-slope", '{"kind":"disc"}'),
        ("prop2", '{"kind":"sector","theta":0.7}'),
    ])
    def test_domain_the_suite_cannot_use_exit_3(self, capsys, suite, domain):
        code, out, err = run(capsys, "verify", "--suite", suite, "--samples", "5",
                             "--domain", domain)
        assert code == 3
        assert "unsupported" in err
        assert out == ""


class TestSweep:
    """Sweep tables: the rows of a suite, written by `verify --format csv`."""

    def test_slit_coefficient_csv(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "remark-b",
                           "--samples", "5", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,carath,neg_log_d,quotient,exact_gap"
        assert len(lines) == 6
        quot = float(lines[-1].split(",")[3])
        assert quot == pytest.approx(0.25, abs=1e-6)

    def test_boundary_slope(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "boundary-slope",
                           "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "case,slope"

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "--suite", "remark-b",
                           "--samples", "5", "--out", str(path))
        assert code == 0
        assert out == ""
        doc = json.loads(path.read_text())
        assert doc["suite"] == "remark-b"


class TestFit:
    """Fitted constants: the `constants` of a suite's `verify` report."""

    def test_fit_prop6(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "prop6", "--samples", "60",
                           "--seed", "11")
        assert code == 0
        doc = json.loads(out)
        assert 1.0 <= doc["constants"]["c"] <= 4.2


def fresh(code, *argv):
    """stdout of `code` run in a fresh interpreter that imports this tree's invdist."""
    src = os.path.dirname(os.path.dirname(invdist.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout


class TestImportFootprint:
    """A cold command loads only the layers it uses: the suites, the Bergman
    layer, numpy and numpy.polynomial's quadrature tables load on first use.
    `numpy` itself is always in sys.modules (the package enters the module
    that loads it on first use); `numpy._core` marks that it has loaded."""

    HEAVY = ("invdist.bounds", "invdist.bergman", "csv", "numpy._core", "numpy.polynomial")
    # the public names `import invdist` bound when it imported every module
    NAMESPACE = {
        "annulus": ["AnnulusCaratheodory", "annulus_kobayashi_distance",
                    "annulus_kobayashi_metric", "theta_product"],
        "bergman": ["bergman_distance", "bergman_field", "bergman_kernel", "bergman_metric",
                    "shortest_path_length"],
        "bounds": ["BoundReport", "bound_ccvx_lower", "bound_convex_lower", "bound_prop1_R",
                   "boundary_slope_regression", "envelope_residual_pla",
                   "experiment_ratio_c_over_l", "experiment_sector_ratio",
                   "experiment_slit_coefficient", "fit_min_constant", "run_suite",
                   "sandwich_gen", "verify_prop5_product"],
        "conformal": ["AnnulusCover", "ConformalMap", "cayley_map", "disc_scale_map",
                      "mobius_disc_automorphism", "riemann_map", "sector_map", "slit_sqrt_map"],
        "distances": ["CertifiedValue", "MetricField", "annulus_caratheodory", "caratheodory",
                      "chart_distances", "cn_model_distance", "halfplane_hyperbolic_distance",
                      "hull_distance", "kobayashi_field", "kobayashi_metric", "lempert",
                      "poincare_distance"],
        "domains": ["Annulus", "Ball", "Disc", "HalfPlane", "JordanDomain", "PlanarDomain",
                    "Polydisc", "Sector", "SlitPlane", "TwoDiscHull", "UnitDisc",
                    "domain_from_json", "domain_to_json", "ellipse_domain", "lens_domain",
                    "two_disc_hull", "wobbly_domain"],
        "errors": ["BranchViolation", "DegenerateInput", "DomainViolation",
                   "InsufficientSamples", "InvalidDomain", "InvdistError", "NoFiniteConstant",
                   "NonConvergence", "SchemaError", "UnsupportedDomain"],
    }

    def loaded_after(self, argv):
        """The HEAVY modules loaded after `import invdist.cli`, and after
        main(argv) has run, in one fresh interpreter."""
        code = ("import json, sys\n"
                "import invdist.cli\n"
                "heavy = json.loads(sys.argv[1])\n"
                "seen = [[m for m in heavy if m in sys.modules]]\n"
                "code = invdist.cli.main(json.loads(sys.argv[2]))\n"
                "seen.append([m for m in heavy if m in sys.modules])\n"
                "print(json.dumps([code, *seen]))\n")
        return json.loads(fresh(code, json.dumps(self.HEAVY), json.dumps(argv)).splitlines()[-1])

    def dist(self, kind, domain='{"kind":"disc"}', z="0+0i", w="0.5+0i"):
        return ["dist", "--domain", domain, "--kind", kind, "--z", z, "--w", w]

    def test_cli_and_disc_dist_load_no_heavy_module(self):
        assert self.loaded_after(self.dist("carath")) == [0, [], []]

    def test_bergman_dist_loads_bergman_only(self):
        assert self.loaded_after(self.dist("bergman")) == [0, [], ["invdist.bergman"]]

    @pytest.mark.parametrize("kind,domain", [
        ("lempert", '{"kind":"halfplane"}'),
        ("carath", '{"kind":"sector","theta":0.7}'),
    ])
    def test_closed_form_dist_leaves_numpy_unloaded(self, kind, domain):
        assert self.loaded_after(self.dist(kind, domain, "1+0.1i", "0.5+0.2i")) == [0, [], []]

    @pytest.mark.parametrize("argv", [
        ["lempert", '{"kind":"annulus","r":2}', "1+0i", "-1+0i"],
        ["carath", '{"kind":"jordan","curve":"ellipse","a":2.0,"b":1.0}', "0+0i", "0.3+0.2i"],
        ["carath", '{"kind":"ball","dim":2,"radius":1.0}', '["0+0i","0+0i"]', '["0.5+0i","0+0i"]'],
    ], ids=["annulus", "ellipse", "ball"])
    def test_array_dist_loads_numpy_and_prints_what_an_eager_import_prints(self, argv):
        args = json.dumps(self.dist(*argv))
        run = ("import json, sys\n"
               "{}from invdist.cli import main\n"
               "code = main(json.loads(sys.argv[1]))\n"
               "print(code, 'numpy._core' in sys.modules)\n")
        lazy, eager = (fresh(run.format(pre), args) for pre in ("", "import numpy\n"))
        assert lazy == eager and lazy.endswith("0 True\n")

    def test_numpy_imported_after_the_package_is_the_package_numpy(self):
        code = ("import sys, invdist\n"
                "before = 'numpy._core' in sys.modules\n"
                "import numpy\n"
                "print(before, numpy is invdist._np, numpy.arange(4).sum())\n")
        assert fresh(code).split() == ["False", "True", "6"]

    def test_numpy_imported_before_the_package_is_bound_as_is(self):
        code = ("import types, numpy\n"
                "import invdist\n"
                "print(invdist._np is numpy, type(numpy) is types.ModuleType)\n")
        assert fresh(code).split() == ["True", "True"]

    def test_missing_numpy_raises_what_import_numpy_raises(self):
        # drop every sys.path entry that holds numpy, then import each
        code = ("import json, os, sys\n"
                "sys.path = [p for p in sys.path if not os.path.exists(os.path.join(p, 'numpy'))]\n"
                "out = []\n"
                "for name in ('numpy', 'invdist'):\n"
                "    try:\n"
                "        __import__(name)\n"
                "    except ImportError as exc:\n"
                "        out.append([type(exc).__name__, str(exc), exc.name])\n"
                "    sys.modules.pop('numpy', None)\n"
                "print(json.dumps(out))\n")
        numpy_err, package_err = json.loads(fresh(code))
        assert numpy_err == package_err == ["ModuleNotFoundError", "No module named 'numpy'", "numpy"]

    def test_verify_loads_the_suites(self):
        code, _, loaded = self.loaded_after(["verify", "--suite", "prop2", "--samples", "5"])
        assert code == 0 and "invdist.bounds" in loaded

    def test_namespace_resolves_every_name(self):
        code = ("import importlib, json, sys\n"
                "import invdist\n"
                "names = json.loads(sys.argv[1])\n"
                "flat = [n for ns in names.values() for n in ns]\n"
                "listed = dir(invdist)\n"
                "star = {}\n"
                "exec('from invdist import *', star)\n"
                "got = {}\n"
                "exec('from invdist import ' + ', '.join(flat), got)\n"
                "bad = [n for mod, ns in names.items() for n in ns\n"
                "       if not (got[n] is getattr(invdist, n) is star.get(n)\n"
                "               is getattr(importlib.import_module('invdist.' + mod), n))]\n"
                "print(json.dumps({'not_listed': [n for n in flat if n not in listed],\n"
                "                  'mismatched': bad, 'unknown': hasattr(invdist, 'nope')}))\n")
        out = json.loads(fresh(code, json.dumps(self.NAMESPACE)).splitlines()[-1])
        assert out == {"not_listed": [], "mismatched": [], "unknown": False}
