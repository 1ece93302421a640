"""A seeded subset of the structural input fuzz of `fuzz_inputs.py`; run
that file as a script for the full sweep."""

import fuzz_inputs


def test_seeded_structural_fuzz():
    faults, runs = fuzz_inputs.sweep(sample=450, seed=21)
    assert runs == 450
    assert not faults, faults[:5]


def test_fault_rules():
    # a message in Python's own words, or naming no field, is a fault
    for err in ("input error: f.json: bad mesh ('int' object is not "
                "iterable)\n",
                "input error: f.json: $: object of type 'int' has no len()\n"):
        assert fuzz_inputs.fault(2, err) == "Python type-error text"
    for err in ("input error: f.json: boundary of boundary nonzero in "
                "dimension 2\n",
                "input error: f.json: bad mesh (boundary.2[1]: boundary of "
                "boundary nonzero)\n"):
        assert fuzz_inputs.fault(2, err) == (
            "exit 2 names no JSON path")
    assert fuzz_inputs.fault(1, "Traceback (most recent call last)\n") == (
        "exit 1")
    for err in ("input error: f.json: boundary.1[0]: expected a list, got 3\n",
                "input error: f.json: boundary.2[1]: boundary of boundary "
                "nonzero in dimension 2\n",
                "input error: f.json: $: expected an object, got 5\n"):
        assert fuzz_inputs.fault(2, err) is None
