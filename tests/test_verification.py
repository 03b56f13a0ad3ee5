import pytest

from dergrade import CapabilityError, group_from_name, zder_grading_demo
from dergrade.sampling import Sampler
from dergrade.verification import run_all

SUITES = ["leibniz", "char-composition", "bracket-equivalence", "closure", "direct-sum"]


@pytest.mark.parametrize("name", ["heisenberg", "zn:3", "perm:a4"])
def test_run_all_suites_in_order(name):
    samples = 2
    results = run_all(group_from_name(name), seed=5, samples=samples)
    assert [r.name for r in results] == SUITES
    checks = [r.passed + r.failed for r in results]
    assert checks == [samples, samples, 10 * samples, samples, samples]
    assert all(r.ok for r in results)


def test_perm_sampler_draws_no_central_derivation(monkeypatch):
    sampler = Sampler(group_from_name("perm:a4"), seed=3)
    with pytest.raises(TypeError, match="no central derivations sampled for perm:a4"):
        sampler.central_derivation()

    def central_drawn(self):
        raise AssertionError("central derivation drawn for a permutation group")

    monkeypatch.setattr(Sampler, "central_derivation", central_drawn)
    for _ in range(40):
        sampler.derivation()


def test_zder_grading_demo_needs_free_abelianization():
    with pytest.raises(CapabilityError, match="perm:s4 has no free abelianization basis"):
        zder_grading_demo(group_from_name("perm:s4"))
