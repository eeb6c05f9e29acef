import importlib.util
from pathlib import Path

from scipy.stats import norm

from core.stats import Q_ALPHA

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "generate_critical_values.py"
_spec = importlib.util.spec_from_file_location("generate_critical_values", SCRIPT)
generate_critical_values = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate_critical_values)


def test_generated_table_matches_committed_module():
    committed = (ROOT / "src" / "core" / "_critical_values.py").read_bytes()
    assert generate_critical_values.module_text().encode() == committed


def test_two_methods_is_the_normal_quantile():
    # For k = 2 the range of two standard normals is |N(0, 2)|, so q_alpha is the two-sided normal quantile.
    for alpha in generate_critical_values.ALPHAS:
        assert Q_ALPHA[alpha][2] == round(norm.ppf(1 - alpha / 2), 6)
