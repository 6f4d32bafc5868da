"""Algorithm-registry tests: metadata, resolution, table rendering."""

import pytest

from repro.engine.registry import (
    AlgorithmSpec,
    get_algorithm,
    list_algorithms,
    register_algorithm,
    registry_table,
)
from repro.exceptions import ParameterError


class TestResolution:
    def test_all_paper_algorithms_registered(self):
        names = set(list_algorithms())
        assert {
            "D-SSA", "SSA", "IMM", "TIM", "TIM+",
            "CELF", "CELF++", "IRIE", "degree", "degree-discount",
        } <= names

    def test_case_insensitive_and_aliases(self):
        assert get_algorithm("d-ssa").name == "D-SSA"
        assert get_algorithm("dssa").name == "D-SSA"
        assert get_algorithm("TIM+").name == "TIM+"
        assert get_algorithm("tim_plus").name == "TIM+"
        assert get_algorithm(" SSA ").name == "SSA"

    def test_unknown_name_rejected(self):
        with pytest.raises(ParameterError):
            get_algorithm("SimPath")


class TestMetadata:
    def test_ris_algorithms_have_engine_bodies(self):
        for name in ("D-SSA", "SSA", "IMM", "TIM", "TIM+"):
            spec = get_algorithm(name)
            assert spec.needs_rr_sets and spec.supports_backend
            assert spec.engine_func is not None

    def test_ris_algorithms_select_sampling_kernels(self):
        for name in ("D-SSA", "SSA", "IMM", "TIM", "TIM+"):
            assert get_algorithm(name).supports_kernel, name

    def test_heuristics_are_one_shot_only(self):
        for name in ("CELF", "CELF++", "degree", "degree-discount", "IRIE"):
            spec = get_algorithm(name)
            assert not spec.needs_rr_sets
            assert spec.engine_func is None
            assert not spec.supports_kernel

    def test_ssa_reads_split_and_verify_streams(self):
        assert get_algorithm("SSA").streams == ("split", "verify")
        for name in ("D-SSA", "IMM", "TIM", "TIM+"):
            assert get_algorithm(name).streams == ("direct",), name

    def test_horizon_capability(self):
        assert get_algorithm("D-SSA").supports_horizon
        assert not get_algorithm("IMM").supports_horizon

    def test_celf_variants_share_one_function_with_bound_flag(self):
        celf = get_algorithm("CELF")
        celfpp = get_algorithm("CELF++")
        assert celf.func is celfpp.func
        assert dict(celf.extra_kwargs) == {"plus_plus": False}
        assert dict(celfpp.extra_kwargs) == {"plus_plus": True}


class TestRegistration:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ParameterError):
            register_algorithm("D-SSA", description="dup")(lambda g, k: None)

    def test_alias_collision_rejected(self):
        with pytest.raises(ParameterError):
            register_algorithm(
                "brand-new", description="x", aliases=("dssa",)
            )(lambda g, k: None)

    def test_unknown_accepts_key_rejected_at_registration(self):
        with pytest.raises(ParameterError):
            register_algorithm(
                "brand-new-2", description="x", accepts=("not_a_knob",)
            )(lambda g, k: None)

    @pytest.mark.parametrize("streams", [("split",), ("verify",), ("direct", "verify"), ()])
    def test_unknown_streams_rejected_at_registration(self, streams):
        with pytest.raises(ParameterError, match="streams must be"):
            register_algorithm(
                "brand-new-3", description="x", streams=streams
            )(lambda g, k: None)

    def test_option_filtering(self):
        spec = get_algorithm("degree")
        assert spec.one_shot_kwargs({"epsilon": 0.1, "seed": 3}) == {}
        spec = get_algorithm("CELF")
        kwargs = spec.one_shot_kwargs({"model": "IC", "simulations": 9, "epsilon": 0.1})
        assert kwargs == {"model": "IC", "simulations": 9, "plus_plus": False}


class TestTable:
    def test_registry_table_lists_every_algorithm(self):
        table = registry_table()
        for name in list_algorithms():
            assert name in table
        assert "engine reuse" in table
