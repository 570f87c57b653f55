"""Every packed kernel at the least width its exactness guard allows.

With ``scalars._WIDTH_QUANTUM = 1``, `scalars._width_for` gives each bound
its least width, bound.bit_length() + 1 bits, and `scalars._ring_for` hands
every kernel a ring of exactly that width: a guard that undercounts its
digits by even one bit then decodes wrongly wherever its bound is tight.
The algebras are built afresh under the patch, so no ring or packed table
of the session's shared fixtures, chosen at the normal width, is reused.
"""

from test_cli_digests import _load_script
from test_double import TABLE_DIGESTS, _table_digest
from test_qexp import MU_U

from hopfqexp import scalars
from hopfqexp.cli import main
from hopfqexp.double import drinfeld_double, drinfeld_element
from hopfqexp.hopf import element_minimal_polynomial, validate
from hopfqexp.presets import ZOO, get_preset
from hopfqexp.qexp import u_min_poly_via_t
from hopfqexp.suite import _Context
from hopfqexp.twist import twist_hopf

T_ROUTE_PRESETS = ZOO + ["taft:6", "taft:7", "taft:8", "uqb2:5", "uqb2:7"]
POWER_PRESETS = ["sweedler", "taft:3", "uqb2:3"]


def _validate_corrupted_doubles(tmp_path) -> None:
    """Validate the two corrupted double documents of scripts/cli_digests.py."""
    digests = _load_script()
    digests.write_corrupted_doubles(str(tmp_path))
    for path in digests.corrupted_files():
        assert main(["validate", "--in", path.replace("$TMP", str(tmp_path))]) == 2


def test_every_kernel_is_exact_at_its_least_width(monkeypatch, tmp_path, capsys, suite_twists):
    _validate_corrupted_doubles(tmp_path)
    witnesses = capsys.readouterr().out
    assert "associativity fails at basis (8,35,35)" in witnesses
    twisted = {name: twist_hopf(T).comult for name, T in suite_twists.items()}

    monkeypatch.setattr(scalars, "_WIDTH_QUANTUM", 1)
    assert scalars._ring_for(3, 9).width == 5
    for name in T_ROUTE_PRESETS:
        assert u_min_poly_via_t(get_preset(name)) == MU_U[name], name
    doubles = {}
    for name in ZOO:
        H = get_preset(name)
        if H.dim <= 9:
            qt = doubles[name] = drinfeld_double(H)
            assert _table_digest(qt) == TABLE_DIGESTS[name], name
            assert validate(qt.algebra) == [], name
    for name in POWER_PRESETS:
        assert element_minimal_polynomial(drinfeld_element(doubles[name])) == MU_U[name], name
    _validate_corrupted_doubles(tmp_path)
    assert capsys.readouterr().out == witnesses
    assert {name: twist_hopf(T).comult
            for name, T, _ in _Context(deep=False, max_dim=None).twists()} == twisted
