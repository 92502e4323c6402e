"""Unit tests for the translation service layer (cache, scheduler, daemon)."""

import threading

import pytest

from repro.bench.corpus import CorpusSpec, generate_stress_cfg, random_edit_batch
from repro.bench.generator import GeneratorConfig, generate_ssa_program
from repro.ir import format_function, parse_function, text_digest
from repro.ir.parser import ParseError
from repro.outofssa.config import ENGINE_CONFIGURATIONS, EngineConfig, engine_by_name
from repro.pipeline import Pipeline, Session
from repro.service import (
    CachedTranslation,
    ServiceClient,
    ServiceError,
    ShardedScheduler,
    TranslationCache,
    TranslationServer,
    TranslationService,
    shard_of,
)


def program_text(seed: int, size: int = 24) -> str:
    return format_function(generate_ssa_program(GeneratorConfig(seed=seed, size=size)))


def entry_for(digest: str, fingerprint: str = "fp") -> CachedTranslation:
    return CachedTranslation(
        digest=digest, fingerprint=fingerprint, engine_name="us_i",
        ir_text="function f() {\n  entry:\n    ret\n}\n", seconds=0.1,
    )


# --------------------------------------------------------------------------- fingerprints
class TestEngineFingerprint:
    def test_stable_across_instances(self):
        assert engine_by_name("us_i").fingerprint() == engine_by_name("us_i").fingerprint()

    def test_distinct_across_all_named_engines(self):
        fingerprints = {config.fingerprint() for config in ENGINE_CONFIGURATIONS}
        assert len(fingerprints) == len(ENGINE_CONFIGURATIONS)

    def test_name_and_label_are_cosmetic(self):
        renamed = EngineConfig.builder("us_i").name("renamed").label("Renamed").build()
        assert renamed.fingerprint() == engine_by_name("us_i").fingerprint()

    #: The fingerprints key the translation cache and travel in every
    #: ``repro-serve/2`` response, so a refactor of the configuration must
    #: not move them.
    PINNED = {
        "sreedhar_iii": "d8bf842eada86c0d",
        "us_iii": "afeada696022a5a1",
        "us_iii_intercheck": "cca016c0498c2337",
        "us_iii_intercheck_livecheck": "9f85f2d3eb9416db",
        "us_iii_linear_intercheck_livecheck": "f7ef26690404a823",
        "us_i": "404259d591fcfc90",
        "us_i_linear_intercheck_livecheck": "4cf5c6d9af6b7380",
    }

    @pytest.mark.parametrize("engine", sorted(PINNED))
    def test_named_engine_fingerprints_are_pinned(self, engine):
        assert engine_by_name(engine).fingerprint() == self.PINNED[engine]

    def test_every_knob_feeds_the_fingerprint(self):
        base = engine_by_name("us_i")
        variants = [
            EngineConfig.builder(base).coalescing("intersect").build(),
            EngineConfig.builder(base).liveness("sets").build(),
            EngineConfig.builder(base).interference("query").build(),
            EngineConfig.builder(base).linear_class_check(True).build(),
            EngineConfig.builder(base).on_branch_def("error").build(),
        ]
        fingerprints = {base.fingerprint()} | {v.fingerprint() for v in variants}
        assert len(fingerprints) == len(variants) + 1


# --------------------------------------------------------------------------- the cache
class TestTranslationCache:
    def test_hit_miss_accounting(self):
        cache = TranslationCache(capacity=4)
        assert cache.lookup("d1", "fp") is None
        cache.store(entry_for("d1"))
        entry = cache.lookup("d1", "fp")
        assert entry is not None and entry.hits == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)
        assert 0 < stats.hit_rate < 1

    def test_lru_eviction_order(self):
        cache = TranslationCache(capacity=2)
        cache.store(entry_for("d1"))
        cache.store(entry_for("d2"))
        cache.lookup("d1", "fp")          # d1 becomes most-recently-used
        cache.store(entry_for("d3"))      # evicts d2, not d1
        assert ("d1", "fp") in cache and ("d3", "fp") in cache
        assert ("d2", "fp") not in cache
        assert cache.stats().evictions == 1

    def test_capacity_zero_disables_caching(self):
        cache = TranslationCache(capacity=0)
        cache.store(entry_for("d1"))
        assert cache.lookup("d1", "fp") is None
        assert len(cache) == 0

    def test_flush_drops_everything(self):
        cache = TranslationCache(capacity=4)
        cache.store(entry_for("d1"))
        cache.store(entry_for("d2"))
        assert cache.flush() == 2
        assert len(cache) == 0 and cache.stats().flushes == 1

    def test_eviction_drops_the_warm_state(self):
        service = TranslationService("us_i", capacity=1)
        first = service.translate_text(program_text(1))
        assert service.cache.warm_state(first.digest, first.fingerprint) is not None
        service.translate_text(program_text(2))  # evicts the first entry
        assert service.cache.warm_state(first.digest, first.fingerprint) is None
        assert service.cache.stats().warm_states == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            TranslationCache(capacity=-1)


# --------------------------------------------------------------------------- sessions
class TestSessionRetainsNothing:
    def test_a_translated_function_is_not_kept_alive(self):
        import gc
        import weakref

        session = Session("us_i_linear_intercheck_livecheck")
        function = parse_function(program_text(3))
        session.translate(function)
        alive = weakref.ref(function)
        del function
        gc.collect()
        assert alive() is None

    def test_apply_edits_is_a_no_op_before_a_cold_run(self):
        config = engine_by_name("us_i_linear_intercheck_livecheck")
        function = parse_function(program_text(3))
        session = Session(config)
        session.translate(function)
        log = random_edit_batch(function, seed=5)
        edited = function.copy()
        session.apply_edits(function, log)
        assert format_function(function) == format_function(edited)
        session.translate(function)
        Session(config).translate(edited)
        assert format_function(function) == format_function(edited)


# --------------------------------------------------------------------------- the service worker
class TestTranslationService:
    def test_miss_then_hit(self):
        service = TranslationService("us_i")
        text = program_text(4)
        cold = service.translate_text(text)
        hit = service.translate_text(text)
        assert cold.kind == "cold" and hit.kind == "hit"
        assert cold.ir_text == hit.ir_text
        assert hit.translate_seconds == cold.seconds

    def test_fingerprint_separates_engines_digest_separates_programs(self):
        service = TranslationService("us_i")
        text = program_text(4)
        a = service.translate_text(text)
        b = service.translate_text(text, engine="us_iii")
        c = service.translate_text(program_text(5))
        assert a.digest == b.digest and a.fingerprint != b.fingerprint
        assert a.digest != c.digest
        assert b.kind == "cold" and c.kind == "cold"

    def test_equivalent_config_under_another_name_hits(self):
        service = TranslationService("us_i")
        text = program_text(4)
        service.translate_text(text)
        renamed = EngineConfig.builder("us_i").name("renamed").build()
        assert service.translate_text(text, engine=renamed).kind == "hit"

    def test_translate_function_does_not_mutate_the_argument(self):
        service = TranslationService("us_i")
        function = parse_function(program_text(6))
        before = format_function(function)
        result = service.translate_function(function)
        assert format_function(function) == before
        assert result.digest == text_digest(before)

    def test_retranslate_without_warm_state_raises(self):
        service = TranslationService("us_i")
        with pytest.raises(KeyError, match="no warm state"):
            service.retranslate("0" * 64, None)

    def test_retranslate_validates_the_edited_function(self):
        """An edit that breaks the CFG fails at the ingest check with a
        located error, not with a bare KeyError from inside a pass."""
        from repro.ir.editlog import EditLog
        from repro.ir.instructions import Jump
        from repro.ir.validate import ValidationError

        service = TranslationService("us_i")
        first = service.translate_text(program_text(3))
        function = service.cache.warm_state(first.digest, first.fingerprint).function
        label = next(
            block.label for block in function if isinstance(block.terminator, Jump)
        )
        function.blocks[label].terminator = Jump("nowhere")
        with pytest.raises(ValidationError, match=rf"{label}.*'nowhere'"):
            service.retranslate(first.digest, EditLog())

    def test_flush_resets_cache_and_sessions(self):
        service = TranslationService("us_i")
        service.translate_text(program_text(4))
        assert service.flush() == 1
        assert service.translate_text(program_text(4)).kind == "cold"

    def test_stats_payload_shape(self):
        service = TranslationService("us_i")
        service.translate_text(program_text(4))
        payload = service.stats_payload()
        assert payload["requests"] == 1
        assert payload["engine"] == "us_i"
        assert payload["cache"]["entries"] == 1

    def test_cache_disabled_service_retains_no_warm_state(self):
        """With caching off the eviction hook never runs, so nothing may be
        retained per request — a long-lived cold daemon must not grow."""
        service = TranslationService("us_i", capacity=0)
        for seed in range(5):
            service.translate_text(program_text(seed, size=16))
        assert service.cache.stats().warm_states == 0

    def test_hit_stats_are_caller_owned_copies(self):
        service = TranslationService("us_i")
        text = program_text(4)
        service.translate_text(text)
        first_hit = service.translate_text(text)
        first_hit.stats["corrupted"] = True
        second_hit = service.translate_text(text)
        assert "corrupted" not in second_hit.stats

    def test_retranslate_moves_warm_state_off_the_old_digest(self):
        """After a retranslation the old key's result stays servable but its
        warm state is gone: evicting the old entry must not break the new
        key's warm path, and re-editing from the old digest fails loudly
        instead of silently stacking edits."""
        config = engine_by_name("us_i")
        service = TranslationService(config, capacity=2)
        function = generate_stress_cfg(CorpusSpec(seed=13, blocks=80, variables=6))
        first = service.translate_function(function)
        state = service.cache.warm_state(first.digest, first.fingerprint)
        log = random_edit_batch(state.function, seed=5)
        warm = service.retranslate(first.digest, log)

        assert service.cache.warm_state(first.digest, first.fingerprint) is None
        # (An empty log suffices: random_edit_batch would mutate the live
        # function even though the call is expected to be refused.)
        from repro.ir.editlog import EditLog

        with pytest.raises(KeyError, match="no warm state"):
            service.retranslate(first.digest, EditLog())

        # Evict the old entry (capacity 2: old digest is LRU) and confirm the
        # new digest's warm path survived the eviction.
        service.translate_text(program_text(42))
        state2 = service.cache.warm_state(warm.digest, warm.fingerprint)
        assert state2 is not None
        log2 = random_edit_batch(state2.function, seed=7)
        cold_copy = state2.function.copy()
        warm2 = service.retranslate(warm.digest, log2)
        Session(config).translate(cold_copy)
        assert warm2.ir_text == format_function(cold_copy)


# --------------------------------------------------------------------------- the scheduler
class TestShardedScheduler:
    def test_digest_affinity_is_stable(self):
        digest = text_digest(program_text(1))
        assert shard_of(digest, 4) == shard_of(digest, 4)
        assert shard_of(digest, 1) == 0

    def test_requests_route_by_digest_and_each_repeat_hits(self):
        texts = [program_text(seed, size=18) for seed in range(4)] * 2
        scheduler = ShardedScheduler("us_i", shards=2)
        results = [scheduler.translate(text) for text in texts]
        assert [result.ir_text for result in results] == [
            TranslationService("us_i").translate_text(text).ir_text for text in texts
        ]
        assert [result.cached for result in results] == [False] * 4 + [True] * 4
        assert [result.shard for result in results] == [
            shard_of(text_digest(text), 2) for text in texts
        ]
        payload = scheduler.stats_payload()
        assert payload["requests"] == len(texts)
        assert payload["hits"] == 4  # each program repeats exactly once

    def test_a_bad_request_raises_and_leaves_the_shards_serving(self):
        scheduler = ShardedScheduler("us_i", shards=2)
        with pytest.raises(ParseError):
            scheduler.translate("function broken(")
        assert scheduler.translate(program_text(1)).cached is False
        assert scheduler.stats_payload()["requests"] == 1

    def test_single_requests_route_by_digest(self):
        scheduler = ShardedScheduler("us_i", shards=3)
        text = program_text(7)
        result = scheduler.translate(text)
        assert result.shard == shard_of(text_digest(text), 3)
        assert scheduler.translate(text).cached

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError, match="shards"):
            ShardedScheduler("us_i", shards=0)

    def test_mode_option_is_gone(self):
        """Batches run in the calling thread only; the scheduler and the
        daemon no longer take a batch execution mode."""
        with pytest.raises(TypeError):
            ShardedScheduler("us_i", mode="thread")
        with pytest.raises(TypeError):
            TranslationServer(mode="thread")

    def test_flush_counts_across_shards(self):
        scheduler = ShardedScheduler("us_i", shards=2)
        for seed in range(3):
            scheduler.translate(program_text(seed, size=18))
        assert scheduler.flush() == 3


# --------------------------------------------------------------------------- daemon + client
@pytest.fixture()
def server():
    server = TranslationServer(engine="us_i", shards=2)
    server.serve_in_background()
    yield server
    server.shutdown()
    server.server_close()


class TestServerAndClient:
    def test_ping_reports_the_banner(self, server):
        with ServiceClient(port=server.port) as client:
            payload = client.ping()
            assert payload["service"].startswith("repro-serve/")
            assert payload["engine"] == "us_i" and payload["shards"] == 2
            assert "mode" not in payload

    def test_translate_roundtrip_and_cache(self, server):
        text = program_text(9)
        reference = parse_function(text)
        Pipeline.for_engine("us_i").run(reference)
        with ServiceClient(port=server.port) as client:
            first = client.translate(text)
            assert first["ir"] == format_function(reference)
            assert first["cached"] is False
            assert client.translate(text)["cached"] is True

    def test_engine_override_and_unknown_engine(self, server):
        text = program_text(9)
        with ServiceClient(port=server.port) as client:
            assert client.translate(text, engine="us_iii")["engine"] == "us_iii"
            with pytest.raises(ServiceError, match="unknown engine"):
                client.translate(text, engine="bogus")

    def test_batch_stats_flush(self, server):
        texts = [program_text(seed, size=18) for seed in (1, 2, 1)]
        with ServiceClient(port=server.port) as client:
            results = client.translate_batch(texts)
            assert len(results) == 3
            assert results[0]["ir"] == results[2]["ir"]
            stats = client.stats()
            assert stats["stats"]["requests"] >= 3
            assert client.flush() >= 2

    def test_malformed_inputs_do_not_kill_the_connection(self, server):
        with ServiceClient(port=server.port) as client:
            bad_ir = client.request("translate", ir="not ir at all")
            assert bad_ir["ok"] is False and "error" in bad_ir
            unknown = client.request("frobnicate")
            assert unknown["ok"] is False
            assert client.ping()["ok"] is True  # still alive afterwards

    def test_two_clients_share_the_warm_cache(self, server):
        text = program_text(11)
        with ServiceClient(port=server.port) as first:
            first.translate(text)
        with ServiceClient(port=server.port) as second:
            assert second.translate(text)["cached"] is True

    def test_shutdown_verb_stops_the_server(self):
        server = TranslationServer(engine="us_i", shards=1)
        thread = server.serve_in_background()
        with ServiceClient(port=server.port) as client:
            assert client.shutdown()["stopping"] is True
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        server.server_close()

    def test_concurrent_clients(self, server):
        texts = [program_text(seed, size=16) for seed in range(4)]
        errors = []

        def drive(text):
            try:
                with ServiceClient(port=server.port) as client:
                    first = client.translate(text)
                    second = client.translate(text)
                    assert first["ir"] == second["ir"]
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        threads = [threading.Thread(target=drive, args=(text,)) for text in texts]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
