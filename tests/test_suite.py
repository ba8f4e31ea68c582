from eqprox import suite
from eqprox.errors import InternalCheckFailure


def test_sigma_trap_is_recorded_as_a_labelled_failure(monkeypatch):
    def broken(*args):
        raise InternalCheckFailure("sup over translates broke")

    monkeypatch.setattr(suite, "sup_pseudometric", broken)
    report = suite.run_suite(filters=["sigma"])
    (sigma,) = [r for r in report.results if r.name == "sigma"]
    assert not sigma.ok
    label, detail = sigma.failure
    assert label.startswith("sigma/") and "/sup" in label
    assert detail == "sup over translates broke"
    assert not report.ok
