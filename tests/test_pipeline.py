import numpy as np
import pytest

from dircp.comms import build_message, serialize
from dircp.pipeline import RunSettings, prepare_scene, run_pipeline
from dircp.scenario import ScenarioConfig, generate

WORLDS = {
    "default": {},
    "dense": dict(n_vehicles=24, n_collaborators=8, density_profile=(0.4, 0.4, 0.1, 0.1)),
}
BUDGETS = (0.02, 0.05, 0.1, 0.2, 0.5, 1.0)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("world_name", sorted(WORLDS))
def test_directed_reference_run_sends_nothing_into_masked_off_sectors(world_name, seed):
    """The paper's core claim: the budget goes only to the sectors the mask keeps.

    Checked through the scene's cell -> sector map, at every budget, and the
    ledger must account for exactly the bytes that went over the wire.
    """
    settings = RunSettings()
    scene = prepare_scene(generate(ScenarioConfig(seed=seed, **WORLDS[world_name])),
                          settings)
    off_cells = np.asarray(scene.mask.mask)[scene.sector_map] == 0
    assert off_cells.any() and not off_cells.all()
    for budget in BUDGETS:
        result = run_pipeline(scene, "directed", budget, settings)
        bits = result.query.bits
        assert bits.sum() > 0, budget
        assert bits[off_cells].sum() == 0, budget
        sent = [serialize(build_message(result.query, scene.collaborator_map(k),
                                        sender=k + 1))
                for k in range(scene.n_collaborators) if bits[:, :, k].any()]
        assert result.ledger.messages == len(sent)
        assert result.ledger.total_entries == int(bits.sum())
        assert result.ledger.total_bytes == sum(len(payload) for payload in sent)
