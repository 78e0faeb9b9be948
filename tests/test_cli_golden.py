"""Golden CLI corpus: exit code and stdout digest of a fixed command list.

Covers every family in every display form and output format, the parameter
edge cases (cycle-chord with a < b, the one-vertex path, flags a family
ignores) and the usage and budget errors.  Failing commands must print one
stderr line and no traceback.

Re-record with ``PYTHONPATH=src python tests/test_cli_golden.py`` only when a
change is meant to alter CLI output, and paste the printed table below.
"""

import contextlib
import hashlib
import io

import pytest

import csfkit.cli as cli

_FAMILY_FORMS = (
    "path --n 6",
    "cycle --n 6",
    "tadpole --a 4 --l 3",
    "cycle-chord --a 4 --b 3 --form delta",
    "cycle-chord --a 4 --b 3 --form theta-sum",
    "theta --a 4 --b 3 --c 2 --variant c",
    "theta --a 4 --b 3 --c 2 --variant c-prime",
    "clock --a 5 --b 3",
)

CORPUS = [
    f"expand --family {family} --format {fmt}"
    for family in _FAMILY_FORMS
    for fmt in ("text", "csv", "json")
] + [
    # parameter edge cases
    "expand --family cycle-chord --a 2 --b 5",
    "expand --family cycle-chord --a 2 --b 5 --form theta-sum",
    "expand --family path --n 1",
    "expand --family tadpole --a 2 --l 3",
    "expand --family tadpole --a 5 --l 0",
    # flags the family ignores
    "expand --family cycle-chord --a 3 --b 3 --variant c-prime",
    "expand --family theta --a 3 --b 3 --c 3 --form theta-sum",
    "expand --family clock --a 4 --b 2 --variant c-prime --form theta-sum",
    "expand --family path --n 4 --a 9 --c 2",
    # every family against the oracle
    "oracle-check --family path --n 5",
    "oracle-check --family path --n 1",
    "oracle-check --family cycle --n 5",
    "oracle-check --family tadpole --a 4 --l 2",
    "oracle-check --family cycle-chord --a 3 --b 3",
    "oracle-check --family cycle-chord --a 2 --b 5",
    "oracle-check --family theta --a 3 --b 3 --c 3",
    "oracle-check --family theta --a 4 --b 2 --c 1",
    "oracle-check --family clock --a 4 --b 3",
    # suites and fibers built on the clock coefficients
    "verify --suite lemma-bounds --n 8",
    "verify --suite fiber --n 9",
    "verify --suite fiber --a 6 --b 4",
    "verify --suite c-doubleprime --a-max 5 --b-max 5",
    "verify --suite positivity --n-max 9",
    "verify --suite positivity --n-max 8 --format json",
    "fibers --I 7,2,2 --a 6 --b 4",
    "fibers --I 2,5,2,2 --a 6 --b 4",
    "fibers --I 1,4,2,3 --a 6 --b 3",
    # usage errors: exit 2
    "expand --family theta --a 2 --b 1 --c 1",
    "expand --family theta --a 3 --b 4 --c 2",
    "expand --family cycle --n 2",
    "expand --family tadpole --a 4",
    "expand --family tadpole --a 1 --l 3",
    "expand --family clock --a 2 --b 3",
    "expand --family cycle-chord --a 1 --b 3",
    "expand --family path --n 0",
    "oracle-check --family cycle --n 2",
    "oracle-check --family tadpole --a 2 --l 3",
    "oracle-check --family clock --a 2 --b 3",
    "oracle-check --family theta --a 3 --b 3",
    "fibers --I 7,2,2 --a 6 --b 5",
    "fibers --I 7,0,2 --a 6 --b 4",
    # budget errors: exit 3
    "expand --family path --n 21",
    "expand --family clock --a 10 --b 10",
    "oracle-check --family theta --a 9 --b 9 --c 8",
    "verify --suite positivity --n-max 21",
    "verify --suite fiber --a 15 --b 10",
]

GOLDEN = {
    'expand --family path --n 6 --format text': (0, 'f5f4fbf1ebf1ce331426602940bfbec29fcadefd43304656af7116d15b39d6ee'),
    'expand --family path --n 6 --format csv': (0, '5e56f07f6883434130506842396c3bfbaa49f8810d780fce5bfbcec4561a18ec'),
    'expand --family path --n 6 --format json': (0, '0638c10833c086245385ab748a09513c60adc1396c87a9dc6b481d13d9668048'),
    'expand --family cycle --n 6 --format text': (0, '011bb6f9bbe4afa8e67dc82317bd551d7f9dbc9158632bf831337eeb5d47a888'),
    'expand --family cycle --n 6 --format csv': (0, '11a21109daae7a050317c3fcfd61938877d9d4ef8cb1a6151b52602f78979677'),
    'expand --family cycle --n 6 --format json': (0, 'a37e629ee3d165e300ff573bc8720c09bebcabdf1221e4263d81c505506a328a'),
    'expand --family tadpole --a 4 --l 3 --format text': (0, '22fb42c5af138eb4a9af232874c9517d6f3a8981bc2117d230b7785191f53850'),
    'expand --family tadpole --a 4 --l 3 --format csv': (0, '828e3d107b0ebd93fe15e894b29ddb762e1222e6accd4fbf48d224ca33793fd7'),
    'expand --family tadpole --a 4 --l 3 --format json': (0, '4b2e202c79b58b770cb8da697a11dc178d590117c06e879ec4458211d0bb0919'),
    'expand --family cycle-chord --a 4 --b 3 --form delta --format text': (0, 'e09ab9fb8d5281635b8041f37602d4fc7cb67518503d24f8e8c20d6dd4a3e76a'),
    'expand --family cycle-chord --a 4 --b 3 --form delta --format csv': (0, 'cd3cf00f1299d287083f906a2860223f9be8cebf4421ddd3083109a121fd0241'),
    'expand --family cycle-chord --a 4 --b 3 --form delta --format json': (0, 'e0145b3527b68e9ce998311ade611e4ee1c2ce588703733899c1b44c787d02c2'),
    'expand --family cycle-chord --a 4 --b 3 --form theta-sum --format text': (0, 'e09ab9fb8d5281635b8041f37602d4fc7cb67518503d24f8e8c20d6dd4a3e76a'),
    'expand --family cycle-chord --a 4 --b 3 --form theta-sum --format csv': (0, 'cd3cf00f1299d287083f906a2860223f9be8cebf4421ddd3083109a121fd0241'),
    'expand --family cycle-chord --a 4 --b 3 --form theta-sum --format json': (0, 'e0145b3527b68e9ce998311ade611e4ee1c2ce588703733899c1b44c787d02c2'),
    'expand --family theta --a 4 --b 3 --c 2 --variant c --format text': (0, 'cef73d7233b41f43c698409c505cba4d0fe666d8621c2a100641163b2e4a3a43'),
    'expand --family theta --a 4 --b 3 --c 2 --variant c --format csv': (0, 'f278255b7a17aef262ac985f639f8f9f2f4990b71d8eef7370b1332f6f3cd820'),
    'expand --family theta --a 4 --b 3 --c 2 --variant c --format json': (0, '2f0e17ca755e11409c5d41d2ce7e4e59325b1c0a933bb1047550ca075ddc6cf5'),
    'expand --family theta --a 4 --b 3 --c 2 --variant c-prime --format text': (0, 'cef73d7233b41f43c698409c505cba4d0fe666d8621c2a100641163b2e4a3a43'),
    'expand --family theta --a 4 --b 3 --c 2 --variant c-prime --format csv': (0, 'f278255b7a17aef262ac985f639f8f9f2f4990b71d8eef7370b1332f6f3cd820'),
    'expand --family theta --a 4 --b 3 --c 2 --variant c-prime --format json': (0, '2f0e17ca755e11409c5d41d2ce7e4e59325b1c0a933bb1047550ca075ddc6cf5'),
    'expand --family clock --a 5 --b 3 --format text': (0, '26b74826248d697fa36bad482afdd60f927531420ec8fbb01e9741bc37e4eea1'),
    'expand --family clock --a 5 --b 3 --format csv': (0, '8c3826e862e24739381c57e59007c2cec4881c1bb3e4c88dc6ee1beba7f98487'),
    'expand --family clock --a 5 --b 3 --format json': (0, '25aed230a1de77ffa5fd63fcf667c9cbd1e6feb391b7f35f4ebb2aa405363b18'),
    'expand --family cycle-chord --a 2 --b 5': (0, 'ca5a0313c10416ca13ed848a2bff40f6ac3decea26d9cf36edef578a606094e9'),
    'expand --family cycle-chord --a 2 --b 5 --form theta-sum': (0, 'ca5a0313c10416ca13ed848a2bff40f6ac3decea26d9cf36edef578a606094e9'),
    'expand --family path --n 1': (0, '4b1330a190a81132e4146441384fff4eac9ee58e71a75fcc704be3c9e80d06f9'),
    'expand --family tadpole --a 2 --l 3': (0, '8ce2c41c95275026e3547f2f414e65a6443e2c6dfcede0a021b0650da84772c4'),
    'expand --family tadpole --a 5 --l 0': (0, '27eb8a958de242f63d4419525399e189092fdee1d389b83e108ebf70edb5dc86'),
    'expand --family cycle-chord --a 3 --b 3 --variant c-prime': (0, '4ee198bc687b3f7ecbfef0bb9aed40392061aa7252b6c72093c1e9d3e87fb878'),
    'expand --family theta --a 3 --b 3 --c 3 --form theta-sum': (0, 'bb8e2693a5c62f7e83cabe3f35176d23b204182da04e078be8886014c9187e21'),
    'expand --family clock --a 4 --b 2 --variant c-prime --form theta-sum': (0, '3785d3a12fc3aff030bcb1fad15052448181313425f839108b89b6e51907fad8'),
    'expand --family path --n 4 --a 9 --c 2': (0, '484d66c51c709e84de5a3b3586a07a740ae43239fefa50409b048345572f521a'),
    'oracle-check --family path --n 5': (0, 'cd822be448f70bd14b39b897eef60e35f4d144958bb6e6d019816177247e97cf'),
    'oracle-check --family path --n 1': (0, '9ebf664514eaca2715a61ba5e6776dad30a648b037f955fa4a4b8f011faf5d03'),
    'oracle-check --family cycle --n 5': (0, '7a0386e70055c6ed5945dc5963ab6b2b68f7b838a5e605bc2326496601b5f161'),
    'oracle-check --family tadpole --a 4 --l 2': (0, '9ab411e2945dd2c2d92439c5037d0f515e48179c66190915de37eb5680378f1b'),
    'oracle-check --family cycle-chord --a 3 --b 3': (0, 'd8f496355a8ba65a53b1c85ee9ffeb02081c2ea37d70b2b517574b24719e7a9b'),
    'oracle-check --family cycle-chord --a 2 --b 5': (0, 'db1b4bb0cc31822f53dcec30b2b3b4bc19ae194a46adf7c247131b0340c3975f'),
    'oracle-check --family theta --a 3 --b 3 --c 3': (0, '14551153fa9043dfdc1b5c2191e9b20309b3975bdbe912555ef91a26b5e5bf90'),
    'oracle-check --family theta --a 4 --b 2 --c 1': (0, '986c1a4f7b1b9c01e744428cf18ed7cbe35cae53548adf58ad6a4a0c2c7d33e0'),
    'oracle-check --family clock --a 4 --b 3': (0, 'b3d81ed2647f24490bc5ec8b54817fb9483b2ee072d5994b9be16bf5175dd00b'),
    'verify --suite lemma-bounds --n 8': (0, '05894da7b3b9a48df4aec153ede7bb415bed788f96c9538adfe666a0451df927'),
    'verify --suite fiber --n 9': (0, 'b8cce147386d3c75b035ea02200569a4021c7f39ed0eb5c75df94db33ad7b01a'),
    'verify --suite fiber --a 6 --b 4': (0, 'b8cce147386d3c75b035ea02200569a4021c7f39ed0eb5c75df94db33ad7b01a'),
    'verify --suite c-doubleprime --a-max 5 --b-max 5': (0, '9c8558ec701c22eca0d035e522e27dd9a2ea20d7cf96db3a7e424cc5c1785587'),
    'verify --suite positivity --n-max 9': (0, '97a243ede439d15f7241f7cb5059080ccdec5d95b37d4a2d50421ea3c0ba76bd'),
    'verify --suite positivity --n-max 8 --format json': (0, '21537cf79d22b2a63a8fa3715d83a0e262fa0415da2863e3f187ae0fe67e04aa'),
    'fibers --I 7,2,2 --a 6 --b 4': (0, '08f7c773885cbe7d0a46cba0b647eeaa1a7bc5b1c19c41b639ef81318d6c50e9'),
    'fibers --I 2,5,2,2 --a 6 --b 4': (0, '21481cb1f35a41df47af82d69d94ca7d0fad5f5f453f32f9a1d355f2c7ecd0a3'),
    'fibers --I 1,4,2,3 --a 6 --b 3': (0, 'ec3a1dd77528535742f81da7f29130da64d864169173760a07c7855c8e296cc3'),
    'expand --family theta --a 2 --b 1 --c 1': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'expand --family theta --a 3 --b 4 --c 2': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'expand --family cycle --n 2': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'expand --family tadpole --a 4': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'expand --family tadpole --a 1 --l 3': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'expand --family clock --a 2 --b 3': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'expand --family cycle-chord --a 1 --b 3': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'expand --family path --n 0': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'oracle-check --family cycle --n 2': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'oracle-check --family tadpole --a 2 --l 3': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'oracle-check --family clock --a 2 --b 3': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'oracle-check --family theta --a 3 --b 3': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fibers --I 7,2,2 --a 6 --b 5': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'fibers --I 7,0,2 --a 6 --b 4': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'expand --family path --n 21': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'expand --family clock --a 10 --b 10': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'oracle-check --family theta --a 9 --b 9 --c 8': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite positivity --n-max 21': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify --suite fiber --a 15 --b 10': (3, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
}


def run(command):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(command.split())
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return code, digest, err.getvalue()


def test_corpus_is_recorded():
    assert sorted(GOLDEN) == sorted(CORPUS)


@pytest.mark.parametrize("command", CORPUS)
def test_golden_command(command, monkeypatch):
    monkeypatch.delenv("CSFKIT_MAX_N", raising=False)
    code, digest, err = run(command)
    assert (code, digest) == GOLDEN[command]
    assert "Traceback" not in err
    assert len(err.splitlines()) == (0 if code == 0 else 1)


if __name__ == "__main__":
    print("GOLDEN = {")
    for command in CORPUS:
        code, digest, _ = run(command)
        print(f"    {command!r}: ({code}, {digest!r}),")
    print("}")
