"""Behavioural tests for the robot bestiary, through the real pipeline."""

from __future__ import annotations

import pytest

from repro.agents.robots import (
    BlindFetcherBot,
    ClickFraudBot,
    CrawlerBot,
    DdosZombie,
    EmailHarvesterBot,
    EngineBot,
    HotlinkLeechBot,
    MouseForgerBot,
    OfflineBrowserBot,
    ReferrerSpammerBot,
    VulnScannerBot,
)
from repro.detection.verdict import Label
from repro.util.rng import RngStream
from repro.workload.session_run import SessionRunner

ROBOT_UA = "Googlebot/2.1 (+http://www.google.com/bot.html)"
BROWSER_UA = "Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1; SV1)"


def _run(make_node, entry_url, bot_cls, ua=ROBOT_UA, seed=3, **kwargs):
    node = make_node()
    agent = bot_cls(
        client_ip="10.6.0.1",
        user_agent=ua,
        rng=RngStream(seed, "bot"),
        entry_url=entry_url,
        **kwargs,
    )
    record = SessionRunner(node.handle).run(agent)
    state = node.session(agent.client_ip, agent.user_agent)
    return record, state, node


def _final_label(node, state):
    return node.classifier.classify_final(state).label


class TestCrawler:
    def test_html_only_no_probes(self, make_node, entry_url):
        record, state, node = _run(
            make_node, entry_url, CrawlerBot, max_requests=40
        )
        assert record.requests > 10
        assert not state.in_css_set
        assert not state.in_js_set
        assert not state.in_mouse_set
        assert _final_label(node, state) is Label.ROBOT

    def test_polite_crawler_respects_robots_txt(self, make_node, entry_url):
        record, state, node = _run(
            make_node, entry_url, CrawlerBot, max_requests=60, polite=True
        )
        assert state.cgi_requests == 0  # /cgi-bin/ disallowed

    def test_hidden_follower_trips_trap(self, make_node, entry_url):
        _, state, node = _run(
            make_node, entry_url, CrawlerBot,
            max_requests=120, polite=False, follow_hidden=True,
        )
        assert state.followed_hidden_link
        verdict = node.classifier.classify_final(state)
        assert verdict.label is Label.ROBOT
        assert verdict.definitive

    def test_visible_only_crawler_avoids_trap(self, make_node, entry_url):
        _, state, _ = _run(
            make_node, entry_url, CrawlerBot,
            max_requests=120, follow_hidden=False,
        )
        assert not state.followed_hidden_link

    def test_image_crawler_fetches_images_not_css(self, make_node, entry_url):
        record, state, _ = _run(
            make_node, entry_url, CrawlerBot,
            max_requests=80, fetch_images=True,
        )
        assert not state.in_css_set


class TestEmailHarvester:
    def test_profile(self, make_node, entry_url):
        record, state, node = _run(
            make_node, entry_url, EmailHarvesterBot, max_requests=40
        )
        assert not state.in_css_set
        assert _final_label(node, state) is Label.ROBOT


class TestReferrerSpammer:
    def test_forged_referrers(self, make_node, entry_url):
        record, state, node = _run(
            make_node, entry_url, ReferrerSpammerBot,
            ua=BROWSER_UA, max_requests=30,
        )
        assert _final_label(node, state) is Label.ROBOT
        assert record.requests >= 20


class TestClickFraud:
    def test_hits_cgi(self, make_node, entry_url):
        record, state, node = _run(
            make_node, entry_url, ClickFraudBot,
            ua=BROWSER_UA, max_requests=50, seed=5,
        )
        assert state.cgi_requests > 0
        assert _final_label(node, state) is Label.ROBOT


class TestVulnScanner:
    def test_piles_up_404s(self, make_node, entry_url):
        record, state, node = _run(
            make_node, entry_url, VulnScannerBot,
            ua=BROWSER_UA, max_requests=40,
        )
        assert state.status_4xx > 10
        assert _final_label(node, state) is Label.ROBOT

    def test_uses_head_requests(self, make_node, entry_url):
        _, state, _ = _run(
            make_node, entry_url, VulnScannerBot,
            ua=BROWSER_UA, max_requests=60, head_fraction=0.5,
        )
        assert state.head_requests > 0

    def test_gets_blocked_by_policy(self, make_node, entry_url):
        record, state, node = _run(
            make_node, entry_url, VulnScannerBot,
            ua=BROWSER_UA, max_requests=80,
        )
        assert node.stats.policy_blocked > 0


class TestDdosZombie:
    def test_flood_blocked(self, make_node, entry_url):
        record, state, node = _run(
            make_node, entry_url, DdosZombie,
            ua=BROWSER_UA, max_requests=150,
        )
        assert node.stats.policy_blocked > 0
        assert _final_label(node, state) is Label.ROBOT


class TestOfflineBrowser:
    def test_fetches_css_without_js(self, make_node, entry_url):
        record, state, node = _run(
            make_node, entry_url, OfflineBrowserBot,
            ua="WebZIP/6.0", max_requests=80,
        )
        assert state.in_css_set
        assert not state.in_js_set
        # This is the acknowledged false positive of the set algebra:
        assert state.is_human_by_set_algebra
        assert state.true_label == ""  # ground truth set by engine, not here


class TestEngineBot:
    def test_js_without_mouse_is_robot(self, make_node, entry_url):
        _, state, node = _run(
            make_node, entry_url, EngineBot, ua=BROWSER_UA, seed=8
        )
        assert state.in_css_set
        assert state.in_js_set
        assert not state.in_mouse_set
        assert _final_label(node, state) is Label.ROBOT

    def test_forged_header_mismatch(self, make_node, entry_url):
        _, state, node = _run(
            make_node, entry_url, EngineBot,
            ua="Wget/1.10.2", forge_header=True, seed=8,
        )
        assert state.ua_mismatched
        verdict = node.classifier.classify_final(state)
        assert verdict.definitive

    def test_honest_engine_no_mismatch(self, make_node, entry_url):
        _, state, _ = _run(
            make_node, entry_url, EngineBot, ua=BROWSER_UA, forge_header=False
        )
        assert not state.ua_mismatched


class TestBlindFetcher:
    def test_eventually_caught_by_decoys(self, make_node, entry_url):
        caught = 0
        runs = 12
        for seed in range(runs):
            _, state, node = _run(
                make_node, entry_url, BlindFetcherBot,
                ua=BROWSER_UA, seed=seed, fetch_per_page=1, max_pages=4,
            )
            if state.wrong_key_fetches > 0:
                caught += 1
        # With m=4 decoys each blind pick is wrong w.p. 4/5; over several
        # pages per run, near-certain catch.  Allow generous slack.
        assert caught >= runs * 0.6

    def test_wrong_key_is_definitive_robot(self, make_node, entry_url):
        for seed in range(10):
            _, state, node = _run(
                make_node, entry_url, BlindFetcherBot,
                ua=BROWSER_UA, seed=seed, fetch_per_page=2,
            )
            if state.wrong_key_fetches:
                verdict = node.classifier.classify_final(state)
                assert verdict.label is Label.ROBOT
                assert verdict.definitive
                return
        pytest.fail("no blind fetch hit a decoy in 10 seeded runs")


class TestMouseForger:
    def test_defeats_detection(self, make_node, entry_url):
        """§4.1: a bot that synthesises mouse events wins (for now)."""
        _, state, node = _run(
            make_node, entry_url, MouseForgerBot, ua=BROWSER_UA, seed=4
        )
        assert state.in_mouse_set
        assert _final_label(node, state) is Label.HUMAN  # evaded!


class TestHotlinkLeech:
    def test_images_with_unseen_referrers(self, make_node, entry_url):
        record, state, node = _run(
            make_node, entry_url, HotlinkLeechBot,
            ua=BROWSER_UA, max_requests=30,
        )
        assert not state.in_css_set
        assert _final_label(node, state) is Label.ROBOT
