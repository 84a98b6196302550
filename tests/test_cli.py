import io
import json
import math
import random
import re
import subprocess
import sys

import pytest

from secint.cli import run
from secint.engine import integrate_trig
from secint.errors import SingularPoint
from secint.integrate import eval_antiderivative
from secint.parse import parse_trig
from secint.render import format_antiderivative


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def invoke_json(*argv):
    code, out, err = invoke(*argv)
    assert code == 0, (code, out, err)
    assert err == ""
    return json.loads(out)


def test_integrate_gregory_secant():
    doc = invoke_json("integrate", "--method", "gregory", "sec(x)")
    assert doc["method"] == "gregory"
    assert doc["antiderivative"] == "ln|sec(x)+tan(x)| + C"
    assert doc["input"] == "sec(x)"
    assert set(doc) == {"input", "method", "antiderivative", "failures"}


def test_integrate_auto_reports_failures():
    doc = invoke_json("integrate", "sin(x)^2 * cos(x)^0 + 0")
    assert any(f["method"] == "barrow" for f in doc["failures"])


def test_integrate_high_secant_power():
    doc = invoke_json("integrate", "sec(x)^10")
    assert doc["method"] == "gregory"
    assert doc["antiderivative"].startswith("1/9*sec(x)^8*tan(x)+")


def test_triples_bare_list():
    code, out, err = invoke("triples", "--max-hypotenuse", "13")
    assert code == 0
    assert json.loads(out) == [[3, 4, 5], [5, 12, 13]]


def test_mercator_equator():
    doc = invoke_json("mercator", "--lat", "0", "--lon", "0.3")
    assert doc == {"x": 0.3, "y": 0.0}


def test_mercator_numeric():
    doc = invoke_json(
        "mercator", "--lat", repr(math.pi / 3), "--lon", "1.0", "--numeric",
        "--tol", "1e-10",
    )
    assert abs(doc["y"] - math.log(2 + math.sqrt(3))) < 1e-9
    assert doc["x"] == 1.0


def test_param_subcommand():
    doc = invoke_json("param", "--curve", "circle-b", "--value", "1/2")
    assert (doc["x"], doc["y"]) == ("3/5", "4/5")
    doc = invoke_json("param", "--curve", "circle-d", "--value", "2")
    assert (doc["x"], doc["y"]) == ("4/5", "3/5")
    doc = invoke_json("param", "--curve", "hyperbola", "--value", "2")
    assert (doc["x"], doc["y"]) == ("5/4", "3/4")


def test_convert_subcommand():
    doc = invoke_json("convert", "--from", "t", "--to", "s", "--value", "1/2")
    assert doc["value"] == "3"
    doc = invoke_json("convert", "--from", "u", "--to", "v", "--value", "3")
    assert doc["value"] == "3/2"


def test_verify_logderiv_subcommand():
    doc = invoke_json("verify-logderiv", "sec(x)", "sec(x)+tan(x)")
    assert doc["is_log_derivative"] is True
    doc = invoke_json("verify-logderiv", "sin(x)", "sec(x)")
    assert doc["is_log_derivative"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ("integrate", "--method", "weierstrass", "1/(2+cos(x))"),
        ("param", "--curve", "hyperbola", "--value", "0"),
        ("convert", "--from", "t", "--to", "s", "--value", "1"),
        ("mercator", "--lat", "1.6", "--lon", "0"),
        ("integrate", "sec(y)"),
        ("verify-logderiv", "sec(x)", "0*sin(x)"),
    ],
)
def test_domain_errors_exit_1_with_json(argv):
    code, out, err = invoke(*argv)
    assert code == 1
    doc = json.loads(out)
    assert "error" in doc and doc["error"]


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("bogus",),
        ("integrate",),
        ("integrate", "--method", "parts", "sec(x)"),
        ("integrate", "--domain", "1", "sec(x)"),
        ("param", "--curve", "circle-b", "--value", "x/y"),
        ("triples",),
        ("triples", "--max-hypotenuse", "0"),
        ("convert", "--from", "w", "--to", "t", "--value", "1"),
        ("mercator", "--lat", "0"),
        ("integrate", "--domain=-1.0,1.0", "sec(x)"),
        ("integrate", "--samples", "9", "sec(x)"),
    ],
)
def test_usage_errors_exit_2_and_keep_stdout_clean(argv):
    code, out, err = invoke(*argv)
    assert code == 2
    assert out == ""


def test_help_exits_zero():
    code, out, err = invoke("--help")
    assert code == 0
    assert "integrate" in out


def test_output_is_deterministic():
    first = invoke("integrate", "sec(x)")
    second = invoke("integrate", "sec(x)")
    assert first == second


def test_fuzzed_invocations_always_emit_json():
    rng = random.Random(2026)
    expressions = [
        "sec(x)", "tan(x)", "sin(x)*cos(x)", "1/(1+sin(x))", "cos(x)",
        "1/(2+cos(x))", "sec(x)^2", "csc(x)",
    ]
    methods = ["auto", "gregory", "barrow", "weierstrass", "modified-weierstrass"]
    kinds = ["t", "s", "u", "v"]
    for _ in range(60):
        choice = rng.randrange(6)
        if choice == 0:
            argv = [
                "integrate", "--method", rng.choice(methods), rng.choice(expressions)
            ]
        elif choice == 1:
            argv = [
                "param",
                "--curve", rng.choice(["circle-b", "circle-d", "hyperbola"]),
                f"--value={rng.randint(-9, 9)}/{rng.randint(1, 9)}",
            ]
        elif choice == 2:
            argv = ["triples", "--max-hypotenuse", str(rng.randint(1, 150))]
        elif choice == 3:
            argv = [
                "convert",
                "--from", rng.choice(kinds),
                "--to", rng.choice(kinds),
                f"--value={rng.randint(-6, 6)}/{rng.randint(1, 6)}",
            ]
        elif choice == 4:
            argv = ["mercator", f"--lat={rng.uniform(-2, 2)!r}", "--lon", "0.5"]
            if rng.random() < 0.5:
                argv += ["--numeric", "--tol", "1e-8"]
        else:
            argv = [
                "verify-logderiv", rng.choice(expressions), rng.choice(expressions)
            ]
        code, out, err = invoke(*argv)
        assert code in (0, 1), (argv, code, err)
        json.loads(out)


def _eval_rendered(text, x):
    """Test-only reader for antiderivative strings."""
    body = text.rsplit(" + C", 1)[0]
    body = re.sub(r"ln\|([^|]+)\|", r"log(abs(\1))", body)
    body = body.replace("ln(", "log(").replace("^", "**")
    env = {
        "__builtins__": {},
        "log": math.log,
        "abs": abs,
        "atan": math.atan,
        "sin": math.sin,
        "cos": math.cos,
        "tan": math.tan,
        "sec": lambda v: 1 / math.cos(v),
        "x": x,
    }
    return eval(body, env)


def test_rendered_string_matches_structured_result():
    expressions = [
        "sec(x)", "tan(x)", "sin(x)*cos(x)", "1/(1+sin(x))",
        "sec(x)^2", "sec(x)*tan(x)", "(1-sin(x))/cos(x)", "sin(x)",
    ]
    points = [-1.3 + 0.27 * k for k in range(10)]
    for source in expressions:
        report = integrate_trig(parse_trig(source))
        rendered = format_antiderivative(report.antiderivative)
        doc = invoke_json("integrate", source)
        assert doc["antiderivative"] == rendered
        for x in points:
            try:
                structured = eval_antiderivative(report.antiderivative, x)
            except SingularPoint:
                continue
            assert abs(_eval_rendered(rendered, x) - structured) < 1e-10, (
                source, x, rendered,
            )


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "secint.cli", "triples", "--max-hypotenuse", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == [[3, 4, 5]]


def test_public_names_resolve_once():
    import secint

    assert len(set(secint.__all__)) == len(secint.__all__)
    for name in secint.__all__:
        assert hasattr(secint, name), name
