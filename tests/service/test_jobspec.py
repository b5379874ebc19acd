"""JobSpec: the one study description under CLI, api, and HTTP."""

import argparse
import json

import pytest

from repro import api
from repro.core.jobspec import JOBSPEC_VERSION, JobSpec, JobSpecError, SourceSpec


def cli_namespace(**overrides):
    """A ``repro study`` argparse namespace with defaults, like the parser's."""
    ns = argparse.Namespace(
        molecule="water", size=4, block_size=6, tau=1.0e-10, seed=0,
        models=["static_block", "counter_dynamic", "work_stealing"],
        ranks=[16, 64], machine="commodity", faults=None, jobs=1,
        no_cache=False, artifact_cache=True, cache_dir=None,
        timeout=None, max_attempts=None, executor="local",
        bind="127.0.0.1:0", lease=30.0,
    )
    for key, value in overrides.items():
        setattr(ns, key, value)
    return ns


class TestRoundTrip:
    def test_json_round_trips_exactly(self):
        spec = JobSpec(
            source=SourceSpec(molecule="alkane", size=6, block_size=4, tau=1e-9),
            models=("work_stealing",),
            ranks=(8, 32),
            machine="fast_network",
            seed=3,
            faults="crash:2@0.3",
            executor="local",
            jobs=4,
            timeout=30.0,
            max_attempts=2,
            tag="round-trip",
        )
        assert JobSpec.from_json(spec.to_json()) == spec
        assert JobSpec.from_json(json.dumps(spec.to_json())) == spec

    def test_cli_to_json_to_spec(self):
        ns = cli_namespace(models=["work_stealing"], ranks=[8], jobs=2)
        spec = JobSpec.from_cli_args(ns)
        again = JobSpec.from_json(json.dumps(spec.to_json()))
        assert again == spec
        assert again.job_key() == spec.job_key()

    def test_lists_and_tuples_are_one_spelling(self):
        a = JobSpec(models=["work_stealing"], ranks=[8, 16])
        b = JobSpec(models=("work_stealing",), ranks=(8, 16))
        assert a == b
        assert a.job_key() == b.job_key()

    def test_wire_form_carries_version(self):
        assert JobSpec().to_json()["v"] == JOBSPEC_VERSION

    def test_foreign_version_rejected(self):
        payload = JobSpec().to_json()
        payload["v"] = 99
        with pytest.raises(JobSpecError, match="version"):
            JobSpec.from_json(payload)

    def test_unknown_field_rejected(self):
        payload = JobSpec().to_json()
        payload["modles"] = ["work_stealing"]  # the typo this guards against
        with pytest.raises(JobSpecError, match="unknown field"):
            JobSpec.from_json(payload)

    def test_unknown_source_field_rejected(self):
        payload = JobSpec().to_json()
        payload["source"]["sizee"] = 4
        with pytest.raises(JobSpecError, match="source.sizee"):
            JobSpec.from_json(payload)

    def test_garbage_body_rejected(self):
        with pytest.raises(JobSpecError, match="not valid JSON"):
            JobSpec.from_json("{nope")
        with pytest.raises(JobSpecError, match="JSON object"):
            JobSpec.from_json("[1, 2]")


class TestIdentity:
    def test_execution_knobs_do_not_change_identity(self):
        base = JobSpec(models=("work_stealing",), ranks=(8,))
        for variant in (
            base.with_overrides(executor="serial"),
            base.with_overrides(executor="local", jobs=8),
            base.with_overrides(timeout=60.0, max_attempts=5),
            base.with_overrides(cache=False, cache_dir="/elsewhere"),
            base.with_overrides(tag="same study, different label"),
            base.with_overrides(deadline_s=120.0),
        ):
            assert variant.job_key() == base.job_key()

    def test_result_fields_change_identity(self):
        base = JobSpec(models=("work_stealing",), ranks=(8,))
        for variant in (
            base.with_overrides(models=("static_block",)),
            base.with_overrides(ranks=(16,)),
            base.with_overrides(seed=1),
            base.with_overrides(machine="fast_network"),
            base.with_overrides(faults="crash:2@0.3"),
            base.with_overrides(source=SourceSpec(size=5)),
        ):
            assert variant.job_key() != base.job_key()

    def test_key_is_stable_across_processes(self):
        # A content hash, not id()-flavoured: recomputing yields the
        # same hex every time (the service's dedupe depends on it).
        spec = JobSpec(models=("work_stealing",), ranks=(8,))
        assert spec.job_key() == JobSpec.from_json(spec.to_json()).job_key()
        assert len(spec.job_key()) == 64

    def test_deadline_round_trips(self):
        spec = JobSpec(deadline_s=90.0)
        again = JobSpec.from_json(spec.to_json())
        assert again.deadline_s == 90.0
        assert again == spec


class TestValidation:
    def test_defaults_validate(self):
        assert JobSpec().validate() is not None

    @pytest.mark.parametrize(
        "changes, field",
        [
            ({"models": ()}, "models"),
            ({"models": ("nope",)}, "models"),
            ({"ranks": ()}, "ranks"),
            ({"ranks": (0,)}, "ranks"),
            ({"machine": "cray"}, "machine"),
            ({"jobs": 0}, "jobs"),
            ({"timeout": -1.0}, "timeout"),
            ({"deadline_s": 0.0}, "deadline_s"),
            ({"deadline_s": -5.0}, "deadline_s"),
            ({"max_attempts": 0}, "max_attempts"),
            ({"faults": "crash:banana"}, "faults"),
            ({"executor": "bogus"}, "executor"),
        ],
    )
    def test_bad_fields_name_themselves(self, changes, field):
        with pytest.raises(JobSpecError) as err:
            JobSpec(**changes).validate()
        assert err.value.field == field
        assert err.value.to_json() == {"field": field, "reason": err.value.reason}

    def test_bad_source_fields(self):
        with pytest.raises(JobSpecError, match="source.molecule"):
            JobSpec(source=SourceSpec(molecule="benzene")).validate()
        with pytest.raises(JobSpecError, match="source.size"):
            JobSpec(source=SourceSpec(size=0)).validate()

    def test_fault_plan_rank_must_be_swept(self):
        spec = JobSpec(ranks=(4, 16), faults="crash:7@0.3")
        with pytest.raises(JobSpecError, match="rank 7"):
            spec.validate()

    def test_serial_with_jobs_contradiction(self):
        with pytest.raises(JobSpecError) as err:
            JobSpec(executor="serial", jobs=4).validate()
        assert err.value.field == "jobs/executor"

    def test_serial_with_timeout_contradiction(self):
        with pytest.raises(JobSpecError) as err:
            JobSpec(executor="serial", timeout=5.0).validate()
        assert err.value.field == "timeout/executor"

    def test_distributed_needs_fallback_pool(self):
        # The PR-7 fix: --jobs 1 --executor distributed used to quietly
        # degrade to *unsupervised* serial execution on worker loss.
        with pytest.raises(JobSpecError) as err:
            JobSpec(executor="distributed", jobs=1).validate()
        assert err.value.field == "jobs/executor"
        assert "jobs >= 2" in err.value.reason
        JobSpec(executor="distributed", jobs=2).validate()


class TestCliFrontDoor:
    def test_bind_and_lease_fold_into_distributed_spec(self):
        ns = cli_namespace(
            executor="distributed", jobs=2, bind="0.0.0.0:9999", lease=7.5
        )
        spec = JobSpec.from_cli_args(ns)
        name, options = api.parse_executor_spec(spec.executor)
        assert name == "distributed"
        assert options == {"bind": "0.0.0.0:9999", "lease": 7.5}

    def test_inline_spec_options_win_over_flags(self):
        ns = cli_namespace(executor="distributed?lease=3", jobs=2, lease=30.0)
        spec = JobSpec.from_cli_args(ns)
        _, options = api.parse_executor_spec(spec.executor)
        assert options["lease"] == 3

    def test_bind_lease_ignored_for_local(self):
        spec = JobSpec.from_cli_args(cli_namespace(executor="local"))
        assert spec.executor == "local"

    def test_bad_executor_is_structured(self):
        with pytest.raises(JobSpecError) as err:
            JobSpec.from_cli_args(cli_namespace(executor="bogus"))
        assert err.value.field == "executor"

    @pytest.mark.parametrize("executor", ["local?foo=1", "distributed?fallback=no"])
    def test_executor_option_the_backend_does_not_take_exits_2(self, executor, capsys):
        from repro.__main__ import main

        assert main(["study", "--executor", executor, "--jobs", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: executor:") and "takes no option" in err

    @pytest.mark.parametrize("executor", ["local?foo=1", "distributed?fallback=no"])
    def test_executor_option_the_backend_does_not_take_is_refused(self, executor):
        with pytest.raises(JobSpecError) as err:
            JobSpec(executor=executor, jobs=2).validate()
        assert err.value.field == "executor"
        assert "takes no option" in err.value.reason

    def test_no_cache_flag(self):
        assert JobSpec.from_cli_args(cli_namespace(no_cache=True)).cache is False


class TestMaterialization:
    def test_run_job_matches_run_study(self, tiny_problem):
        spec = JobSpec(
            models=("static_block", "work_stealing"), ranks=(2, 4), cache=False
        )
        config = spec.study_config(tiny_problem)
        direct = api.run_study(config, tiny_problem)
        via_job = api.run_job(spec, source=tiny_problem, cache=None)
        assert via_job.rows() == direct.rows()

    def test_fault_scale_matches_cli_math(self, tiny_problem):
        from repro.core.config import MACHINE_PRESETS

        spec = JobSpec(ranks=(2, 4), faults="crash:1@0.5")
        machine = MACHINE_PRESETS[spec.machine](2)
        expected = tiny_problem.graph.total_flops / (machine.flops_per_second * 2)
        assert spec.fault_time_scale(tiny_problem) == expected
        plan = spec.fault_plan(tiny_problem)
        assert plan is not None
        assert JobSpec(ranks=(2,)).fault_plan(tiny_problem) is None
