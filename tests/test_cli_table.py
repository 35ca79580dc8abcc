"""The subcommand table is the one declaration of the command line: the
parser, the recipe checks and the option choices all follow it."""

import argparse

import pytest

from mdelab.cli import (_CHOICES, _SUBCOMMANDS, _build_parser, main,
                        recipe_to_config, run)
from mdelab.errors import ValidationError

# a value of the right type for every option some subcommand requires
SAMPLE = {"pvf": "p.json", "init": "i.json", "kernel": "k.json",
          "oracle": "o.json", "n": 5, "n_grid": [5, 10], "horizon": 1.0,
          "inputs": ["a.json", "b.json"]}


def subparsers() -> dict:
    parser = _build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_the_parser_has_one_subparser_per_table_row():
    assert list(subparsers()) == list(_SUBCOMMANDS)


@pytest.mark.parametrize("name", list(_SUBCOMMANDS))
def test_subparser_matches_its_table_row(name):
    command = _SUBCOMMANDS[name]
    actions = [a for a in subparsers()[name]._actions if a.dest != "help"]
    options = command.required + command.optional
    assert [a.dest for a in actions] == list(options)
    assert {a.dest for a in actions if a.required} == set(command.required)
    assert {a.dest: tuple(a.choices) for a in actions if a.choices} == {
        key: allowed for key, allowed in _CHOICES.items() if key in options}


@pytest.mark.parametrize("name", list(_SUBCOMMANDS))
def test_help_exits_0(name, capsys):
    with pytest.raises(SystemExit) as info:
        main([name, "--help"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: mdelab {name} ")


@pytest.mark.parametrize("name, missing", [
    (name, option) for name, command in _SUBCOMMANDS.items()
    for option in command.required])
def test_a_recipe_without_a_required_option_names_it(name, missing):
    options = {key: SAMPLE[key] for key in _SUBCOMMANDS[name].required
               if key != missing}
    config = recipe_to_config({"subcommand": name, "options": options})
    with pytest.raises(ValidationError) as info:
        run(config)
    assert info.value.field == missing


@pytest.mark.parametrize("key, value", [("kind", "bogus"),
                                        ("format", "xml")])
def test_a_recipe_choice_outside_the_table_is_refused(key, value):
    with pytest.raises(ValidationError) as info:
        recipe_to_config({"subcommand": "fiber-dist",
                          "options": {"inputs": SAMPLE["inputs"],
                                      key: value}})
    assert info.value.field == key
