"""Every machine record the CLI prints validates against its schema under
`schema/`: the golden outputs of `tests/test_golden_output.py` and the
partial trace of a run out of fuel."""

import json
from pathlib import Path

import pytest

from test_golden_output import CASES, T0, machine_output, run

jsonschema = pytest.importorskip("jsonschema")
referencing = pytest.importorskip("referencing")

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schema"
SCHEMAS = {p.name: json.loads(p.read_text()) for p in SCHEMA_DIR.glob("*.schema.json")}
REGISTRY = referencing.Registry().with_resources(
    (name, referencing.Resource.from_contents(schema)) for name, schema in SCHEMAS.items())

# record kind -> the schema that pins it
RECORD_SCHEMAS = {
    "header": "trace.schema.json",
    "step": "trace.schema.json",
    "footer": "trace.schema.json",
    "derivation": "derivation_record.schema.json",
    "translation": "translation.schema.json",
    "check": "check.schema.json",
    "term": "term.schema.json",
    "normal_form": "normal_form.schema.json",
    "classification": "classification.schema.json",
}


def validate(out: str) -> list[str]:
    """Validate each line of machine output; the record kinds, in order."""
    kinds = []
    for line in out.splitlines():
        record = json.loads(line)
        schema = SCHEMAS[RECORD_SCHEMAS[record["record"]]]
        jsonschema.Draft202012Validator(schema, registry=REGISTRY).validate(record)
        kinds.append(record["record"])
    return kinds


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_machine_output_validates(name):
    assert validate(machine_output(name))


def test_partial_trace_validates():
    code, out = run("trace", "--output", "machine", "--fuel", "2", T0)
    assert code == 3
    assert validate(out) == ["header", "step", "step", "footer"]


def test_a_broken_record_does_not_validate():
    _, out = run("infer", "--output", "machine", T0)
    record = json.loads(out)
    for broken in ({**record, "extra": 1}, {**record, "size": -1},
                   {**record, "derivation": {**record["derivation"], "rule": "nope"}},
                   {**record, "counters": [0, 0, 0], "tight": True}):
        with pytest.raises(jsonschema.ValidationError):
            validate(json.dumps(broken))


def test_derivation_schema_pins_the_tree_not_the_record():
    _, out = run("infer", "--output", "machine", T0)
    validator = jsonschema.Draft202012Validator(SCHEMAS["derivation.schema.json"], registry=REGISTRY)
    record = json.loads(out)
    assert validator.is_valid(record["derivation"]) and not validator.is_valid(record)


def test_classification_shapes_do_not_mix():
    _, bang = run("classify", "--output", "machine", "x !y")
    _, lam = run("classify", "--calculus", "cbn", "--output", "machine", "x y")
    bang, lam = json.loads(bang), json.loads(lam)
    assert validate(json.dumps(bang)) == validate(json.dumps(lam)) == ["classification"]
    for broken in ({**bang, "cbn": []}, {**lam, "normal": True}, {**lam, "cbn": ["no"]},
                   {**bang, "clash": {"position": [], "kind": "nope"}}):
        with pytest.raises(jsonschema.ValidationError):
            validate(json.dumps(broken))
