"""Report bytes pinned by sha256 digest.

The digests were computed from the commit before builtin identities became
DSL text (``m7 --exhaustive`` from the commit before reports were built from
the scan's stream positions alone), so any change to a verdict, a count, a counterexample or the
formatting of a report shows up here.  Each digest covers the exit code and
the stdout bytes of ``maltsev`` runs made in-process through ``cli.main``.
"""
import contextlib
import hashlib
import io

import pytest

from maltsev import cli
from maltsev.catalog import save_algebra

from .support import random_dim3_algebras

CATALOG = ("abelian(3)", "so3", "sl2", "m7", "nc3")
CHECK = ("--identity", "all", "--identity", "jacobi", "--json")

GOLDEN = {
    "list":
        "c12f7c59ef8136a90251a1435e933dbce0c5ee395c94d133e47209026bcafc5e",
    "list --json":
        "7785be2a92f41b313f20e68180456ebd3820852a69cdf617e6d4b070f9aea089",
    "abelian(3)":
        "7a960a4ecaa24dd2199b45ea52f8bed23e18300bbb507b31134d64f56fd1798e",
    "abelian(3) --exhaustive":
        "ea949dde340391f3c8653bae232da3f25a16d44a0922bcd6488af20b3ba40c98",
    "so3":
        "7b5854b09821845efbbdf259e5ec72c0817e0fc939094f8bb5b30e53e3f41927",
    "so3 --exhaustive":
        "24bc1eac18b065708c73b0a140566efa0f9dbc80e95ee002a2140dbf2eb1426b",
    "sl2":
        "ca8b9178157d875cfc85c24cbd9b92d4c0734aa21ffc2dc8aa897ca501b1e1da",
    "sl2 --exhaustive":
        "503c7bf4e7f938d21cc179a474023e8783f95d76fdeeb290fa39356755b69121",
    "m7":
        "9f4fdb82a4ccfda447978f3a5c2aa0a19047e66dec07a71665052bde8e043884",
    "m7 --exhaustive":
        "e69e74d89bfa92ead28d219c3e9d2bdf7ad914524afacdb435e392fe5a7ddd10",
    "nc3":
        "e33a0e2c45457b772fb1723f0edec0d6eebda4a71d1f883feb4ccc24ad033041",
    "nc3 --exhaustive":
        "85f33b800bbeeef865cccc2b569bbdaae31aa431d8bfdc6aab6d94a9942bfdaa",
    "rand3 x100":
        "399cb54f8b3b7dc4083e2a57587de3d23118a66c5adb6e0a1ba25f63d9e0c14d",
    "rand3 x100 --exhaustive":
        "02a17a526595784f5080a5ea65f3a47002e3b8d151e07e2af4e9c392a8f4f2da",
}


def _digest(*argvs):
    h = hashlib.sha256()
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        h.update(f"{code}\n".encode())
        h.update(out.getvalue().encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("argv", [["list"], ["list", "--json"]], ids=" ".join)
def test_list_bytes(argv):
    assert _digest(argv) == GOLDEN[" ".join(argv)]


@pytest.mark.parametrize("name,exhaustive", [
    (name, exhaustive) for name in CATALOG for exhaustive in (False, True)])
def test_catalog_check_bytes(name, exhaustive):
    flags = ("--exhaustive",) if exhaustive else ()
    key = name + " --exhaustive" * exhaustive
    assert _digest(["check", name, *CHECK, *flags]) == GOLDEN[key]


@pytest.fixture(scope="module")
def rand3_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("rand3")
    paths = []
    for A in random_dim3_algebras(100):
        path = root / f"{A.name}.alg.json"
        save_algebra(A, path)
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("exhaustive", [False, True], ids=["first", "exhaustive"])
def test_random_dim3_check_bytes(rand3_files, exhaustive):
    flags = ("--exhaustive",) if exhaustive else ()
    key = "rand3 x100" + " --exhaustive" * exhaustive
    assert _digest(*(["check", p, *CHECK, *flags] for p in rand3_files)) == GOLDEN[key]
