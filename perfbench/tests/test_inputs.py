from harness.inputs import (
    framed_inputs,
    input_digest,
    line_inputs,
    recorded_digest,
    reload_config,
    training_config,
)


def test_line_inputs_repeat_for_a_seed_and_change_with_it():
    first = input_digest(line_inputs(5).wires)
    assert first == input_digest(line_inputs(5).wires)
    assert first != input_digest(line_inputs(6).wires)


def test_framed_inputs_repeat_for_a_seed_and_change_with_it():
    first = input_digest(framed_inputs(5).wires)
    assert first == input_digest(framed_inputs(5).wires)
    assert first != input_digest(framed_inputs(6).wires)


def test_both_trained_sets_have_recorded_digests():
    assert training_config().seed != reload_config().seed
    for config in (training_config(), reload_config()):
        assert len(recorded_digest(config) or "") == 64
