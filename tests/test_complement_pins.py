"""Pinned complement outputs: SHA-256 digests of what ``agree complement``,
``strict_complement`` and ``agree check-rule`` print.

The digests were recorded while the engine still computed each strict
complement twice, categorically and directly, and compared the two.  The
engine now computes it once, directly; its outputs must stay byte for byte
what they were.
"""

import hashlib
import pathlib
import random

import pytest

from agree import default_instance, strict_complement
from agree.cli import main
from agree.io import dumps
from agree.laws import _Gen

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
RULES = sorted(FIXTURES.glob("*_rule.json"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def generated_complements(kind: str) -> str:
    """The canonical JSON of the strict complements of 30 seeded monos in
    one setting, concatenated in seed order."""
    inst = default_instance(kind)
    texts = []
    for seed in range(30):
        m = _Gen(random.Random(f"complement/{kind}/{seed}"), (8, 12), inst).mono()
        comp, incl = strict_complement(m, inst)
        texts.append(dumps({"complement": comp, "inclusion": incl}))
    return "".join(texts)


def cli_output(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


COMPLEMENT_ARROW = "921e546a001fe774044e669b65c01a58c74f983ed18d01c389c5a0fff0dfe8a5"

GENERATED = {
    "gr": "bb6538b97d011eda5d1e408a1ba26b3d336a1caddef23736c2d8af38423fdf1b",
    "typed": "7e57a7c5ff1ed308c44db2a021c67a2fd421c8f168641c328bd5b55c99b73be8",
    "grpol": "38a8e47139a30d8e9b0e670a3bcd994ffdde404cd0fe0ad214d07933fa0c5da9",
}

CHECK_RULE = {
    "anonymize_rule.json": "393616fb9dc752f735786982b48b139cf3641ec57a8e275521fcddd0527893b9",
    "clone_node_rule.json": "bff502c18645da59b74352b2657aa294bf91e7455881a3080a9066ed9ae75c26",
    "clone_outgoing_rule.json": "aec1ff48558980972b09c4ff1030d4b28ae75988b4a818a52ec09b4cbe31e94a",
    "delete_node_rule.json": "bff502c18645da59b74352b2657aa294bf91e7455881a3080a9066ed9ae75c26",
    "nonlocal_keep_one_rule.json": "05488304c58ad7a35675e799baa77ebed8e193c814e1f779d0e27ae3f8dccba4",
    "web_copy_rule.json": "393616fb9dc752f735786982b48b139cf3641ec57a8e275521fcddd0527893b9",
}


def test_cli_complement_of_the_fixture_arrow(capsys):
    out = cli_output(capsys, ["complement", "--m", str(FIXTURES / "complement_arrow.json")])
    assert digest(out) == COMPLEMENT_ARROW


@pytest.mark.parametrize("kind", sorted(GENERATED))
def test_complements_of_generated_monos(kind):
    assert digest(generated_complements(kind)) == GENERATED[kind]


def test_every_fixture_rule_is_pinned():
    assert sorted(CHECK_RULE) == [path.name for path in RULES]


@pytest.mark.parametrize("path", RULES, ids=lambda path: path.stem)
def test_check_rule_on_fixture_rules(capsys, path):
    assert digest(cli_output(capsys, ["check-rule", "--rule", str(path)])) == CHECK_RULE[path.name]
