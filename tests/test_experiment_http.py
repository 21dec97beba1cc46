"""End-to-end tests of the HTTP content-modification methodology."""

import time

import pytest

from repro.core.analysis import (
    AnalysisThresholds,
    injected_fragment,
    injection_signature,
    table6_js_injection,
    table7_image_compression,
    widget_token,
)
from repro.core.experiments.http_mod import INITIAL_PER_AS, HttpModExperiment
from repro.middlebox.injectors import JsInjector
from repro.sim import WorldConfig, build_world
from repro.sim.profiles import CountrySpec, IspSpec, TranscoderSpec
from repro.web.content import ObjectKind, make_html


@pytest.fixture(scope="module")
def http_world():
    """A tiny world with a transcoding mobile AS and a web filter."""
    specs = (
        CountrySpec(
            code="TR",
            population=500,
            isps=(
                IspSpec(
                    name="SqueezeMobile",
                    population=80,
                    mobile=True,
                    fixed_asn=64700,
                    transcoder=TranscoderSpec((0.5,), 0.9),
                ),
                IspSpec(
                    name="FilterNet",
                    population=40,
                    fixed_asn=64701,
                    web_filter_tag="NetsparkQuiltingResult",
                ),
            ),
        ),
        CountrySpec(code="US", population=400),
    )
    config = WorldConfig(scale=1.0, seed=13, include_rare_tail=False, alexa_countries=2)
    return build_world(config, countries=specs)


@pytest.fixture(scope="module")
def http_run(http_world):
    dataset = HttpModExperiment(http_world, seed=17).run()
    return http_world, dataset


class TestHttpCrawl:
    def test_initial_sampling_plus_revisit(self, http_run):
        world, dataset = http_run
        # The transcoding AS must have been flagged and revisited heavily.
        assert 64700 in dataset.flagged_ases
        squeezed = dataset.measured_in_as(64700)
        assert len(squeezed) > 50

    def test_unflagged_ases_sampled_lightly(self, http_run):
        _world, dataset = http_run
        from collections import Counter

        per_as = Counter(r.asn for r in dataset.records if r.asn is not None)
        for asn, count in per_as.items():
            if asn not in dataset.flagged_ases:
                assert count <= INITIAL_PER_AS

    def test_records_complete(self, http_run):
        _world, dataset = http_run
        assert all(record.fetched_all for record in dataset.records)

    def test_no_duplicate_nodes(self, http_run):
        _world, dataset = http_run
        zids = [record.zid for record in dataset.records]
        assert len(zids) == len(set(zids))


class TestModificationDetection:
    def test_transcoded_images_detected(self, http_run):
        world, dataset = http_run
        squeezed = dataset.measured_in_as(64700)
        modified = [r for r in squeezed if r.modified(ObjectKind.JPEG)]
        # 90% of subscribers are affected.
        assert len(modified) / len(squeezed) == pytest.approx(0.9, abs=0.12)

    def test_filter_tags_detected_as_html_modification(self, http_run):
        _world, dataset = http_run
        filtered = dataset.measured_in_as(64701)
        assert filtered
        assert all(record.modified(ObjectKind.HTML) for record in filtered)

    def test_clean_nodes_see_ground_truth(self, http_run):
        world, dataset = http_run
        by_zid = {host.zid: host for host in world.hosts}
        for record in dataset.records:
            truth = by_zid[record.zid].truth
            clean = (
                "injector" not in truth
                and "misc_modifier" not in truth
                and "mobile_transcoder" not in truth
                and "web_filter" not in truth
                and truth["isp"] != "FilterNet"
            )
            if clean:
                assert not record.modified_bodies, truth


class TestTable7:
    def test_compression_row(self, http_run):
        world, dataset = http_run
        rows = table7_image_compression(
            dataset, world.corpus, world.orgmap, AnalysisThresholds()
        )
        assert len(rows) == 1
        row = rows[0]
        assert row.asn == 64700
        assert row.isp == "SqueezeMobile"
        assert row.ratio == pytest.approx(0.9, abs=0.12)
        assert row.compression_ratios == (0.5,)
        assert not row.multiple_ratios


class TestTable6:
    def test_filter_marker_extracted(self, http_run):
        world, dataset = http_run
        analysis = table6_js_injection(dataset, world.corpus, AnalysisThresholds())
        markers = {row.marker for row in analysis.rows}
        assert "NetsparkQuiltingResult" in markers
        for row in analysis.rows:
            if row.marker == "NetsparkQuiltingResult":
                assert row.ases == 1
                assert row.countries == 1

    def test_as_ratio_identifies_network_level_filter(self, http_run):
        world, dataset = http_run
        analysis = table6_js_injection(
            dataset, world.corpus, AnalysisThresholds(as_min_nodes=5)
        )
        injected, measured = analysis.as_ratios[64701]
        assert injected == measured  # every FilterNet node is modified


PAGE = make_html(8 * 1024)


def splice(block: bytes) -> bytes:
    """``PAGE`` with ``block`` injected before ``</body>``."""
    anchor = PAGE.rfind(b"</body>")
    return PAGE[:anchor] + block + PAGE[anchor:]


class TestSignatureExtraction:
    def test_url_signature(self):
        received = splice(b'<script src="http://cdn.evil.example/x.js"></script>')
        assert injection_signature(PAGE, received) == "cdn.evil.example/x.js"

    def test_var_signature(self):
        received = splice(b"<script>var oiasudoj;</script>")
        assert injection_signature(PAGE, received) == "var oiasudoj;"

    def test_widget_container_signature(self):
        received = splice(b"<script>AdTaily_Widget_Container.init()</script>")
        assert injection_signature(PAGE, received) == "AdTaily_Widget_Container"

    def test_unidentified_fallback(self):
        received = splice(b"<script>!function(){}()</script>")
        assert injection_signature(PAGE, received) == "(unidentified)"

    def test_fragment_recovery(self):
        block = b"<script>payload_xyz</script>"
        received = splice(block)
        fragment = injected_fragment(PAGE, received)
        assert b"payload_xyz" in fragment
        assert len(fragment) <= len(block) + 16

    def test_url_preferred_over_var(self):
        received = splice(
            b'<script src="http://a.example/x.js">var decoy;</script>'
        )
        assert injection_signature(PAGE, received) == "a.example/x.js"


class TestAdversarialFragments:
    """Marker extraction stays linear on large injected payloads.

    Each case first runs at 40K characters (several seconds for a quadratic
    extractor), so a regression fails there instead of spending hours on the
    1 MB input.  The ceilings are loose: every case takes well under 0.1 s.
    """

    CEILING_S = 2.0
    SIZES = (40_000, 1_000_000)

    def timed(self, extract, *args):
        start = time.perf_counter()
        result = extract(*args)
        elapsed = time.perf_counter() - start
        assert elapsed < self.CEILING_S, f"{elapsed:.2f}s on {len(args[-1]):,} chars"
        return result

    def test_adtaily_splice_without_url(self):
        for size in (40_000, 335_000):
            block = JsInjector(
                "adtaily", "AdTaily_Widget_Container", size, marker_is_url=False
            ).injection_block()
            assert self.timed(injection_signature, PAGE, splice(block)) == (
                "AdTaily_Widget_Container"
            )

    def test_long_filler_without_token_is_unidentified(self):
        for size in self.SIZES:
            received = splice(b"ad" * (size // 2))
            assert self.timed(injection_signature, PAGE, received) == (
                "(unidentified)"
            )

    def test_letters_after_the_only_literal_match_nothing(self):
        for size in self.SIZES:
            text = "_Widget_Container" + "a" * size
            assert self.timed(widget_token, text) is None

    def test_token_spans_the_whole_word_run(self):
        for size in self.SIZES:
            text = "x" * (size - 17) + "_Widget_Container"
            assert self.timed(widget_token, text) == text
