"""The JSON examples and commands in README.md pass the schemas and the parser that check them.

Every scenario config in a README ``json`` block validates and resolves
(its scenario reads every key it holds), and the block that spells out each
scenario's defaults equals ``verify.DEFAULTS``.  The
``--mu``/``--nu``/``--support`` measure specs and the ``--kernel`` specs of
the command examples validate against their commands' schemas, a kernel
spec's params are those its kernel reads (``cli._kernel``), and every
``framelab`` command of a README ``sh`` block parses, so none names a
subcommand or flag the parser does not have.
"""
import json
import re
import shlex
from pathlib import Path

from framelab import cli
from framelab.verify import DEFAULTS, MEASURE_SCHEMA, resolve_config, validate_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
ARG_SCHEMAS = {
    "mu": MEASURE_SCHEMA,
    "nu": MEASURE_SCHEMA,
    "kernel": cli._KERNEL_SCHEMA,
    "support": MEASURE_SCHEMA,
}


def json_blocks() -> list[list[dict]]:
    """The objects of each README json block; an object starts at a line beginning with '{'."""
    blocks = re.findall(r"```json\n(.*?)```", README, re.S)
    return [[json.loads(obj) for obj in re.split(r"\n(?=\{)", block.strip())] for block in blocks]


def test_scenario_configs_validate():
    configs = [cfg for block in json_blocks() for cfg in block]
    assert len(configs) == 1 + len(DEFAULTS)
    for cfg in configs:
        resolve_config(validate_config(cfg))


def test_defaults_block_is_the_defaults_table():
    spelled = {cfg.pop("scenario"): cfg for cfg in json_blocks()[1]}
    assert spelled == {name: {k: v for k, v in d.items() if v is not None} for name, d in DEFAULTS.items()}


def test_command_arguments_validate():
    args = re.findall(r"--(mu|nu|kernel|support) '(\{.*?\})'", README)
    assert sorted(key for key, _ in args) == sorted(ARG_SCHEMAS)
    for key, text in args:
        spec = validate_config(json.loads(text), ARG_SCHEMAS[key])
        if key == "kernel":
            cli._kernel(spec)


def framelab_commands() -> list[list[str]]:
    """The arguments of each framelab command in the README's sh blocks, continuation lines joined."""
    blocks = re.findall(r"```sh\n(.*?)```", README, re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("framelab ")]


def test_commands_parse(tmp_path, monkeypatch):
    # --out and --out-dir are checked against the working directory
    monkeypatch.chdir(tmp_path)
    commands = framelab_commands()
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)
    assert {argv[0] for argv in commands} == {"run", "density", "localize", "gram"}
