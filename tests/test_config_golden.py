"""What a user sees of the config: the written defaults and one error per key.

`default.cfg` is `dump_config(default_config())` byte for byte, the `.cfg`
every run writes.  `config_errors.txt` holds, for each key of the seven
sections and of `[material:dlp-fs9]`, the line `loads_config` gives when
that key alone is set to `nan` (`0` for an integer key, which cannot
read `nan`, and `gold` for `base` and `filler`), or `loads` where the
value is accepted.  A key that loses its rule, or a message that
changes by a word, fails here.

Re-record both after a deliberate change with
`PYTHONPATH=src python tests/test_config_golden.py`.
"""

from dataclasses import fields
from pathlib import Path

from ramcell import config
from ramcell.config import ConfigError, default_config, dump_config, loads_config

GOLDEN = Path(__file__).parent / "golden"
MATERIAL = "dlp-fs9"
BAD_TEXT = {"base": "gold", "filler": "gold"}


def _keys() -> list[tuple[str, object]]:
    keys = [(f.name, k) for f in fields(config.Config) if f.name != "materials"
            for k in fields(f.default_factory)]
    return keys + [(f"material:{MATERIAL}", f) for f in fields(config.Material)]


def error_lines() -> str:
    lines = []
    for section, field in _keys():
        key = field.name
        value = BAD_TEXT.get(key, "0" if field.type == "int" else "nan")
        try:
            loads_config(f"[{section}]\n{key} = {value}\n")
            outcome = "loads"
        except ConfigError as exc:
            outcome = str(exc)
        lines.append(f"[{section}] {key} = {value}: {outcome}\n")
    return "".join(lines)


def test_default_cfg_is_byte_identical():
    assert dump_config(default_config()) == (GOLDEN / "default.cfg").read_text()


def test_every_key_gives_its_recorded_error():
    assert error_lines() == (GOLDEN / "config_errors.txt").read_text()


if __name__ == "__main__":
    (GOLDEN / "default.cfg").write_text(dump_config(default_config()))
    (GOLDEN / "config_errors.txt").write_text(error_lines())
