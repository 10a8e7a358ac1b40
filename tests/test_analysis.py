"""Analysis-layer tests: stats, domain syntax, timelines, evasion, figures."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import stats
from repro.analysis.domains import classify_domain_syntax, domain_syntax_summary
from repro.analysis.dnsvolume import dns_volume_summary
from repro.analysis.evasion import measure_evasion_prevalence
from repro.analysis.figures import (
    figure2,
    figure3,
    outcome_breakdown,
    section5a_spear,
    section5b_nontargeted,
    section5c_evasion,
    table1,
    table2,
)
from repro.analysis.timeline import compute_timelines, timeline_summary
from repro.core.outcomes import MessageCategory

BRANDS = ["amatravel", "skybooker", "contenthub", "revenuepro", "payroute", "microsoft"]


class TestStats:
    def test_moments(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert stats.mean(values) == 2.5
        assert stats.median(values) == 2.5
        assert stats.std([2.0, 2.0]) == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            stats.mean([])
        with pytest.raises(ValueError):
            stats.median([])

    def test_kurtosis_fat_tail(self):
        rng = random.Random(1)
        normal_ish = [rng.gauss(0, 1) for _ in range(2000)]
        fat = normal_ish + [50.0, -60.0, 80.0]
        assert stats.excess_kurtosis(fat) > stats.excess_kurtosis(normal_ish)
        assert stats.excess_kurtosis(fat) > 3.0

    def test_kurtosis_needs_samples(self):
        with pytest.raises(ValueError):
            stats.excess_kurtosis([1.0, 2.0])
        with pytest.raises(ValueError):
            stats.excess_kurtosis([1.0, 2.0, 3.0])

    def test_kurtosis_of_constant_input_is_nan(self):
        assert math.isnan(stats.excess_kurtosis([3.0] * 10))
        assert math.isnan(stats.excess_kurtosis([0.0] * 4))

    def test_paired_t_test_significant(self):
        a = [10.0, 12.0, 9.0, 11.0, 13.0, 10.5, 9.5, 12.5]
        offsets = [2.9, 3.1, 3.0, 2.8, 3.2, 3.0, 2.95, 3.05]
        b = [value - offset for value, offset in zip(a, offsets)]
        result = stats.paired_t_test(a, b)
        assert result.significant()
        assert result.mean_difference == pytest.approx(3.0)

    def test_paired_t_test_insignificant(self):
        rng = random.Random(2)
        a = [rng.gauss(10, 1) for _ in range(10)]
        b = [value + rng.gauss(0, 2) for value in a]
        result = stats.paired_t_test(a, b)
        assert 0.0 <= result.p_value <= 1.0

    def test_paired_requires_equal_length(self):
        with pytest.raises(ValueError):
            stats.paired_t_test([1.0], [1.0, 2.0])

    def test_histogram_days(self):
        histogram = stats.histogram_days([0.0, 25.0, 47.9, 24.0 * 89, 24.0 * 95])
        assert histogram[0] == 1
        assert histogram[1] == 2
        assert histogram[89] == 1
        assert sum(histogram) == 4  # the >90d value is excluded


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=4, max_size=50))
def test_median_between_min_max_property(values):
    result = stats.median(values)
    assert min(values) <= result <= max(values)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=4, max_size=60)
    | st.lists(st.sampled_from([0.0, 1.5, 2.0, 1e3]), min_size=4, max_size=12)
)
def test_kurtosis_matches_scipy_property(values):
    import warnings

    from scipy.stats import kurtosis

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # scipy's near-constant input note
        expected = float(kurtosis(values, fisher=True, bias=False))
    result = stats.excess_kurtosis(values)
    if math.isnan(expected):
        assert math.isnan(result)
    else:
        assert result == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestDomainSyntax:
    @pytest.mark.parametrize(
        "host,expected",
        [
            ("amatravel-login.com", "combosquatting"),
            ("login-amatravel.buzz", "combosquatting"),
            ("amatravel.cedar-harbor.com", "target-embedding"),
            ("arnatravel.com", "homoglyph"),
            ("skyb0oker.ru", "homoglyph"),  # 0 -> o restores the brand
            ("skybo0ker.ru", "homoglyph"),
            ("secure-login-verify-account.com", "keyword-stuffing"),
            ("amatrave.com", "typosquatting"),
            ("amatravell.com", "typosquatting"),
            ("cedar-harbor.com", None),
            ("crystal-media.tech", None),
            ("xn--mazon-wqa.com", "punycode"),
        ],
    )
    def test_classification(self, host, expected):
        assert classify_domain_syntax(host, BRANDS) == expected

    def test_summary_counts(self):
        hosts = ["amatravel-login.com", "cedar-harbor.com", "arnatravel.com", "plain.org"]
        summary = domain_syntax_summary(hosts, BRANDS)
        assert summary.total_domains == 4
        assert summary.deceptive == 2
        assert summary.punycode == 0
        assert 0.49 < summary.deceptive_fraction < 0.51

    def test_generated_names_are_detected(self, rng):
        from repro.dataset import names

        for technique in names.DECEPTIVE_TECHNIQUES:
            detected = 0
            for _ in range(12):
                host = names.deceptive_host(technique, "amatravel", rng, ".com")
                if classify_domain_syntax(host, BRANDS) is not None:
                    detected += 1
            assert detected >= 10, technique

    def test_neutral_names_rarely_flagged(self, rng):
        from repro.dataset import names

        flagged = sum(
            1
            for _ in range(60)
            if classify_domain_syntax(names.neutral_domain(rng) + ".com", BRANDS) is not None
        )
        assert flagged <= 2


class TestAnalysisIntegration:
    def test_outcome_breakdown_sums(self, analyzed_records):
        breakdown = outcome_breakdown(analyzed_records)
        assert breakdown.total == len(analyzed_records)
        assert sum(count for _, count in breakdown.counts) == breakdown.total
        assert breakdown.fraction(MessageCategory.NO_RESOURCES) > 0.2

    def test_table2_com_dominates(self, analyzed_records):
        table = table2(analyzed_records)
        assert table.total_domains > 0
        assert table.rows[0][0] == ".com"

    def test_figure2_t_test_significant(self, analyzed_records):
        figure = figure2(analyzed_records)
        assert sum(figure.monthly_2024) == len(analyzed_records)
        assert figure.mean_2023 > figure.mean_2024
        assert figure.t_test.significant()

    def test_figure3_shape(self, small_corpus, analyzed_records):
        summary = figure3(analyzed_records, small_corpus.world.network)
        assert summary.n_domains > 0
        assert summary.median_timedelta_a > summary.median_timedelta_b
        assert summary.kurtosis_a > 0  # fat-tailed
        assert summary.over_90d_a >= summary.over_90d_b
        assert summary.outliers >= summary.outlier_compromised + summary.outlier_abused_services
        assert sum(summary.histogram_a_days) <= summary.n_domains

    def test_timelines_match_whois(self, small_corpus, analyzed_records):
        timelines = compute_timelines(analyzed_records, small_corpus.world.network)
        for timeline in timelines:
            if timeline.timedelta_a is not None:
                assert timeline.timedelta_a > 0
            if timeline.timedelta_b is not None and timeline.timedelta_a is not None:
                assert timeline.timedelta_b <= timeline.timedelta_a + 1e-6

    def test_section5a_summary(self, small_corpus, analyzed_records):
        summary = section5a_spear(analyzed_records, small_corpus.world)
        assert summary.active_messages >= summary.spear_messages > 0
        assert 0.5 < summary.spear_fraction <= 1.0
        assert summary.hotlink_messages >= 0
        assert summary.messages_per_domain_median >= 1.0
        assert summary.domain_syntax.punycode == 0
        assert summary.dns_volumes is not None
        assert summary.dns_volumes.top_domains

    def test_section5a_dns_single_vs_multi(self, small_corpus, analyzed_records):
        summary = section5a_spear(analyzed_records, small_corpus.world)
        volumes = summary.dns_volumes
        if volumes.n_single_domains and volumes.n_multi_domains:
            assert volumes.multi_median_total >= volumes.single_median_total

    def test_section5b_summary(self, small_corpus, analyzed_records):
        summary = section5b_nontargeted(analyzed_records, small_corpus.world)
        assert summary.nontargeted_messages >= 0
        assert summary.otp_messages >= 1
        total_branded = sum(count for _, count in summary.brand_counts)
        assert total_branded <= summary.nontargeted_messages

    def test_section5c_prevalences(self, analyzed_records):
        prevalence = section5c_evasion(analyzed_records)
        assert prevalence.credential_messages > 0
        assert prevalence.auth_all_pass == len(analyzed_records)
        assert 0.6 < prevalence.turnstile_fraction < 0.9
        assert 0.1 < prevalence.recaptcha_fraction < 0.4
        assert prevalence.faulty_qr >= 1
        assert prevalence.qr_messages >= prevalence.faulty_qr
        assert prevalence.console_hijack >= 1
        assert prevalence.noise_padded >= 1

    def test_shared_script_clusters_found(self, analyzed_records):
        prevalence = measure_evasion_prevalence(analyzed_records)
        kinds = {cluster.kind for cluster in prevalence.shared_script_clusters}
        assert "victim-check" in kinds
        for cluster in prevalence.shared_script_clusters:
            assert cluster.n_domains >= 2

    def test_table1_computed(self):
        rows = table1(seed=3)
        assert len(rows) == 8
        assert sum(1 for row in rows if row.passes_all) == 3
