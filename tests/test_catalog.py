import json

import pytest

from maltsev import (
    AlgebraFileError,
    builtin,
    check_builtin,
    load_algebra,
    save_algebra,
)
from maltsev.catalog import (
    _cd_unit_mul,
    algebra_to_data,
    full_catalog,
    validate_algebra_data,
)

from .oracle import _cd_conj, _cd_mul


def test_builtin_names():
    assert builtin("abelian(5)").dim == 5
    assert builtin("so3").basis == ("e1", "e2", "e3")
    assert builtin("sl2").basis == ("h", "e", "f")
    assert builtin("m7").dim == 7
    assert builtin("nc3").name == "nc3"


@pytest.mark.parametrize("name", ["abelian(0)", "abelian(-2)", "su2", "m8", "",
                                  "abelian(\u0663)", "abelian(\uff13)"])  # non-ASCII digits
def test_builtin_rejects_unknown(name):
    with pytest.raises(ValueError):
        builtin(name)


def test_sl2_constants():
    sl2 = builtin("sl2")
    h, e, f = (sl2.basis_vector(k) for k in range(3))
    from maltsev import bracket
    assert bracket(sl2, h, e) == 2 * e
    assert bracket(sl2, h, f) == -2 * f
    assert bracket(sl2, e, f) == h


def test_nc3_constants():
    nc3 = builtin("nc3")
    e1, e2, e3 = (nc3.basis_vector(k) for k in range(3))
    from maltsev import bracket
    assert bracket(nc3, e1, e2) == e1
    assert bracket(nc3, e2, e3) == e2
    assert bracket(nc3, e3, e1) == e3


# ------------------------------------------------------------- octonions

def test_octonion_units_square_to_minus_one():
    for i in range(1, 8):
        u = tuple(1 if k == i else 0 for k in range(8))
        sq = _cd_mul(u, u)
        assert sq == (-1,) + (0,) * 7


def test_octonion_imaginary_units_anticommute():
    for i in range(1, 8):
        for j in range(i + 1, 8):
            ui = tuple(1 if k == i else 0 for k in range(8))
            uj = tuple(1 if k == j else 0 for k in range(8))
            assert _cd_mul(ui, uj) == tuple(-t for t in _cd_mul(uj, ui))


def test_octonion_conjugation_is_involutive():
    x = (3, -1, 4, 1, -5, 9, 2, -6)
    assert _cd_conj(_cd_conj(x)) == x


def _unit(k):
    return tuple(1 if i == k else 0 for i in range(8))


def test_unit_products_are_the_whole_octonion_products():
    for a in range(8):
        for b in range(8):
            sign, c = _cd_unit_mul(a, b, 8)
            assert tuple(sign * t for t in _unit(c)) == _cd_mul(_unit(a), _unit(b)), (a, b)


def test_m7_is_read_off_the_whole_octonion_products():
    want = []
    for i in range(1, 8):
        for j in range(i + 1, 8):
            comm = tuple(p - q for p, q in zip(_cd_mul(_unit(i), _unit(j)),
                                               _cd_mul(_unit(j), _unit(i))))
            assert comm[0] == 0
            want.append(((i - 1, j - 1), comm[1:]))
    got = [(pair, v.coords) for pair, v in builtin("m7").pairs()]
    assert got == want
    assert all(type(c) is int for _, coords in got for c in coords)


def test_m7_structure_constants_shape(m7):
    # every nonzero bracket of basis elements is +-2 times a basis element
    count = 0
    for (_i, _j), v in m7.pairs():
        nz = [(k, c) for k, c in enumerate(v.coords) if c]
        assert len(nz) == 1
        assert abs(nz[0][1]) == 2
        count += 1
    assert count == 21


def test_m7_is_maltsev_but_not_lie(m7):
    # the whole point of generating m7: the result certifies itself
    assert check_builtin(m7, "maltsev").holds
    jac = check_builtin(m7, "jacobi")
    assert not jac.holds


def test_so3_sl2_pass_jacobi(so3, sl2):
    assert check_builtin(so3, "jacobi").holds
    assert check_builtin(sl2, "jacobi").holds


# ------------------------------------------------------------ file format

def test_roundtrip_all_catalog_algebras(tmp_path):
    for A in full_catalog():
        path = tmp_path / f"{A.name.replace('(', '_').replace(')', '')}.alg.json"
        save_algebra(A, path)
        assert load_algebra(path) == A


def test_roundtrip_preserves_fractions(tmp_path):
    from fractions import Fraction
    from maltsev import Algebra
    A = Algebra("halves", ("a", "b"), {(0, 1): (Fraction(1, 2), Fraction(-3, 4))})
    path = tmp_path / "halves.alg.json"
    save_algebra(A, path)
    B = load_algebra(path)
    assert B == A
    assert B.structure_constant(0, 1).coords == (Fraction(1, 2), Fraction(-3, 4))


def _write(tmp_path, data):
    path = tmp_path / "case.alg.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_load_rejects_swapped_indices(tmp_path):
    data = {"name": "bad", "dim": 3, "basis": ["e1", "e2", "e3"],
            "brackets": [{"i": 2, "j": 1, "result": {"0": "1"}}]}
    with pytest.raises(AlgebraFileError, match="i must be < j"):
        load_algebra(_write(tmp_path, data))


def test_load_rejects_out_of_range_result_index(tmp_path):
    data = {"name": "bad", "dim": 3, "basis": ["e1", "e2", "e3"],
            "brackets": [{"i": 0, "j": 1, "result": {"3": "1"}}]}
    with pytest.raises(AlgebraFileError, match="out of range"):
        load_algebra(_write(tmp_path, data))


def test_load_rejects_zero_denominator(tmp_path):
    data = {"name": "bad", "dim": 2, "basis": ["e1", "e2"],
            "brackets": [{"i": 0, "j": 1, "result": {"0": "1/0"}}]}
    with pytest.raises(AlgebraFileError, match="zero denominator"):
        load_algebra(_write(tmp_path, data))


def test_load_rejects_non_ascii_digits(tmp_path):
    data = {"name": "bad", "dim": 2, "basis": ["e1", "e2"],
            "brackets": [{"i": 0, "j": 1, "result": {"0": "\uff11"}}]}
    with pytest.raises(AlgebraFileError, match="bad rational"):
        load_algebra(_write(tmp_path, data))


def test_load_rejects_duplicate_pairs(tmp_path):
    data = {"name": "bad", "dim": 2, "basis": ["e1", "e2"],
            "brackets": [{"i": 0, "j": 1, "result": {"0": "1"}},
                         {"i": 0, "j": 1, "result": {"1": "1"}}]}
    with pytest.raises(AlgebraFileError, match="duplicate"):
        load_algebra(_write(tmp_path, data))


@pytest.mark.parametrize("alias", ["01", " 1", "+1", "1_0"])
def test_load_rejects_result_keys_that_alias_an_index(tmp_path, alias):
    # int() reads each of these as a basis index ("1_0" as 10)
    data = {"name": "bad", "dim": 3, "basis": ["e1", "e2", "e3"],
            "brackets": [{"i": 0, "j": 1, "result": {"1": "2", alias: "3"}}]}
    with pytest.raises(AlgebraFileError, match="key is not a basis index"):
        load_algebra(_write(tmp_path, data))


def test_load_rejects_repeated_object_keys(tmp_path):
    # json.loads alone would keep only the last "1"
    path = tmp_path / "case.alg.json"
    path.write_text('{"name": "bad", "dim": 3, "basis": ["e1", "e2", "e3"], "brackets": '
                    '[{"i": 0, "j": 1, "result": {"1": "2", "1": "3"}}]}', encoding="utf-8")
    with pytest.raises(AlgebraFileError, match="duplicate key '1'"):
        load_algebra(path)


def test_load_rejects_bool_indices(tmp_path):
    data = {"name": "bad", "dim": 2, "basis": ["e1", "e2"],
            "brackets": [{"i": False, "j": True, "result": {"0": "1"}}]}
    with pytest.raises(AlgebraFileError, match="i and j must be integers"):
        load_algebra(_write(tmp_path, data))


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.alg.json"
    for text in ("{not json", "[" * 200_000):  # the second nests too deeply to decode
        path.write_text(text, encoding="utf-8")
        with pytest.raises(AlgebraFileError, match="invalid JSON"):
            load_algebra(path)


def test_validate_algebra_data_collects_everything():
    bad = validate_algebra_data({
        "name": "", "dim": 3, "basis": ["a", "b", "c"],
        "brackets": [
            {"i": 1, "j": 1, "result": {"0": "1"}},
            {"i": 0, "j": 2, "result": {"9": "1", "0": "nope"}},
        ],
    })
    assert any("name" in v for v in bad)
    assert any("i must be < j" in v for v in bad)
    assert any("out of range" in v for v in bad)
    assert any("bad rational" in v for v in bad)


def test_validate_algebra_data_accepts_catalog():
    for A in full_catalog():
        assert validate_algebra_data(algebra_to_data(A)) == []


def test_saved_file_omits_zero_and_orders_entries(tmp_path, so3):
    path = tmp_path / "so3.alg.json"
    save_algebra(so3, path)
    data = json.loads(path.read_text(encoding="utf-8"))
    keys = [(e["i"], e["j"]) for e in data["brackets"]]
    assert keys == sorted(keys)
    for e in data["brackets"]:
        assert all(v != "0" for v in e["result"].values())
